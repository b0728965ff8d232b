"""Exact rational linear algebra helpers.

Everything here works over ``fractions.Fraction`` (or plain ints where
possible).  No floating point: the geometric predicates downstream
(strict simplex containment, separating functionals, Ehrhart fits) are
not robust under rounding, so all solves are exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

Vec = tuple[Fraction, ...]


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]):
    """Solve an (possibly overdetermined) linear system exactly.

    Returns the unique solution vector, or None if the system is
    inconsistent.  Raises ValueError when the solution is not unique
    (rank-deficient in the columns), which callers treat as a bug since
    our systems come from affinely independent point sets.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    a = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    piv_cols = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    # inconsistent if a zero row has nonzero rhs
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    if len(piv_cols) < n:
        raise ValueError("underdetermined system (columns not independent)")
    sol: list[Fraction] = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        sol[c] = a[i][n]
    return tuple(sol)


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


def in_convex_hull(points: list[Vec], target: Vec) -> bool:
    """Exact membership of ``target`` in conv(points).

    Decided by searching for an affinely independent subset whose
    simplex contains the target (Caratheodory), which avoids a general
    LP.  Intended for small point sets only.
    """
    if not points:
        return False
    dim = len(target)
    # affine rank of the point set bounds the subset size to try
    max_k = min(len(points), dim + 1)
    for k in range(1, max_k + 1):
        for subset in combinations(points, k):
            rows = [[subset[j][i] for j in range(k)] for i in range(dim)]
            rows.append([Fraction(1)] * k)
            rhs = [Fraction(x) for x in target] + [Fraction(1)]
            try:
                sol = solve_exact(rows, rhs)
            except ValueError:
                continue  # affinely dependent subset
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False
