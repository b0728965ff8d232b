"""Exact integer linear algebra: the fraction-free Bareiss determinant
behind Kirchhoff's tree count and the simplex volumes."""

from __future__ import annotations


def det_bareiss(rows: list[list[int]]) -> int:
    """Integer determinant via fraction-free Bareiss elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot, top = a[k][k], a[k]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            if lead == 0 and pivot == prev:
                continue  # the update leaves the row as it is
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
            row[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]
