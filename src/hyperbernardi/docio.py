"""The ``hyperbernardi-graph v1`` text format, hypertree literals, and
polynomial printing.

Format sketch (``#`` starts a comment, encoding is UTF-8)::

    hyperbernardi-graph v1
    emerald: e0 e1 e2 e3
    violet: v0 v1 v2
    edges:
      e0v0 e0 v0
      e0v1 e0 v1
    rotations:
      v0: e0v0 e3v0 e2v0
    base: v0 e0v0

``rotations:`` is optional; omitted nodes default to the order in which
their edges appear in the ``edges:`` section (deterministic).
"""

from __future__ import annotations

from .graph import RibbonBipartiteGraph, ValidationError

HEADER = "hyperbernardi-graph v1"

_SECTIONS = ("emerald:", "violet:", "edges:", "rotations:", "base:")


class GraphFormatError(ValueError):
    """Raised on malformed graph documents."""


def parse_graph(text: str) -> RibbonBipartiteGraph:
    raws = text.splitlines()
    if "#" in text:                     # drop the comments
        raws = [raw.split("#", 1)[0] for raw in raws]
    lines = [line for line in map(str.strip, raws) if line]
    if not lines or lines[0] != HEADER:
        raise GraphFormatError(f"missing header {HEADER!r}")

    # each section's lines; a header line's text after the head is one
    sections: dict[str, list[str]] = {s: [] for s in _SECTIONS}
    current: list[str] | None = None
    for line in lines[1:]:
        parts = line.split(None, 1)
        if parts[0] in sections:
            current = sections[parts[0]]
            current += parts[1:]
        elif current is None:
            raise GraphFormatError(f"content before any section: {line!r}")
        else:
            current.append(line)

    emeralds, violets, base = ([x for line in sections[s] for x in line.split()]
                               for s in ("emerald:", "violet:", "base:"))
    if not emeralds or not violets:
        raise GraphFormatError("both emerald: and violet: sections are required")
    if len(set(emeralds)) != len(emeralds) or len(set(violets)) != len(violets):
        raise GraphFormatError("duplicate node name")
    declared = {*emeralds, *violets}

    edges: dict[str, tuple[str, str]] = {}
    for line in sections["edges:"]:
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(f"edge line needs 'id emerald violet': {line!r}")
        eid, em, vi = parts
        if eid in edges:
            raise GraphFormatError(f"duplicate edge id {eid!r}")
        if em not in declared or vi not in declared:
            raise GraphFormatError(f"edge {eid!r} uses an undeclared node")
        edges[eid] = (em, vi)
    if not edges:
        raise GraphFormatError("edges: section is empty")

    rotations: dict[str, tuple[str, ...]] = {}
    for line in sections["rotations:"]:
        if ":" not in line:
            raise GraphFormatError(f"rotation line needs 'node: id id ...': {line!r}")
        node, rest = line.split(":", 1)
        node = node.strip()
        if node not in declared:
            raise GraphFormatError(f"rotation for undeclared node {node!r}")
        if node in rotations:
            raise GraphFormatError(f"duplicate rotation for node {node!r}")
        rotations[node] = tuple(rest.split())
    appearance = {x: [] for x in declared - rotations.keys()}   # the default order
    for eid, ends in edges.items():
        for x in ends:
            if x in appearance:
                appearance[x].append(eid)
    rotations.update((x, tuple(eids)) for x, eids in appearance.items())

    if len(base) != 2:
        raise GraphFormatError("base: section needs 'nodeName edgeId'")

    try:
        return RibbonBipartiteGraph(emeralds, violets, edges, rotations,
                                    base_node=base[0], base_edge=base[1])
    except ValidationError as exc:
        raise GraphFormatError(str(exc)) from exc


def serialize_graph(g: RibbonBipartiteGraph) -> str:
    out = [HEADER]
    out.append("emerald: " + " ".join(g.emeralds))
    out.append("violet: " + " ".join(g.violets))
    out.append("edges:")
    for e in g.edge_ids:
        em, vi = g.edges[e]
        out.append(f"  {e} {em} {vi}")
    out.append("rotations:")
    for x in g.nodes:
        out.append(f"  {x}: " + " ".join(g.rotations[x]))
    out.append(f"base: {g.base_node} {g.base_edge}")
    return "\n".join(out) + "\n"


def parse_hypertree(literal: str, g: RibbonBipartiteGraph, side: str) -> dict[str, int]:
    """Parse ``e0=1,e1=0,...`` against the graph's node names."""
    values: dict[str, int] = {}
    for item in literal.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise GraphFormatError(f"bad hypertree item {item!r}")
        name, val = item.split("=", 1)
        name = name.strip()
        if name in values:
            raise GraphFormatError(f"hypertree names {name!r} twice")
        try:
            values[name] = int(val)
        except ValueError as exc:
            raise GraphFormatError(f"bad hypertree value in {item!r}") from exc
    expected = set(g.side_nodes(side))
    if set(values) != expected:
        raise GraphFormatError(
            f"hypertree must assign exactly the {side} nodes {sorted(expected)}")
    return values


def format_hypertree(f: dict[str, int]) -> str:
    return ",".join(f"{x}={f[x]}" for x in sorted(f))


def format_polynomial(coeffs) -> str:
    """Render ``1 + 3*x + 3*x^2`` style."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append("x" if c == 1 else f"{c}*x")
        else:
            terms.append(f"x^{k}" if c == 1 else f"{c}*x^{k}")
    return " + ".join(terms) if terms else "0"
