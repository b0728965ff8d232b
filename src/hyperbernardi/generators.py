"""Seeded random instances: connected ribbon bipartite graphs and
ordinary ribbon multigraphs.  Everything is deterministic in the seed."""

from __future__ import annotations

import random

from .graph import RibbonBipartiteGraph, RibbonGraph


def random_bipartite(seed: int, max_emerald: int = 4, max_violet: int = 4,
                     max_edges: int = 10) -> RibbonBipartiteGraph:
    """Connected simple bipartite graph with random rotations and base.

    A random spanning tree guarantees connectivity; extra distinct pairs
    are added up to the edge budget.  Parallel edges are avoided so the
    instance is usable by the polytope machinery too.
    """
    rng = random.Random(seed)
    n_e = rng.randint(1, max_emerald)
    n_v = rng.randint(1, max_violet)
    if max_edges < n_e + n_v - 1:
        raise ValueError("edge budget below spanning-tree size")
    emeralds = [f"e{i}" for i in range(n_e)]
    violets = [f"v{i}" for i in range(n_v)]

    pairs: set[tuple[str, str]] = set()
    # random bipartite tree: attach each new node to a random node of
    # the opposite color among those already placed
    order = emeralds[1:] + violets[1:]
    rng.shuffle(order)
    placed_e = [emeralds[0]]
    placed_v = [violets[0]]
    pairs.add((emeralds[0], violets[0]))
    for node in order:
        if node.startswith("e"):
            mate = rng.choice(placed_v)
            pairs.add((node, mate))
            placed_e.append(node)
        else:
            mate = rng.choice(placed_e)
            pairs.add((mate, node))
            placed_v.append(node)

    all_pairs = [(a, b) for a in emeralds for b in violets]
    rng.shuffle(all_pairs)
    budget = rng.randint(len(pairs), max_edges)
    for cand in all_pairs:
        if len(pairs) >= budget:
            break
        pairs.add(cand)

    edges = {f"x{i}": ab for i, ab in enumerate(sorted(pairs))}
    rotations = _random_rotations(rng, edges)
    base_node = rng.choice(sorted(set(emeralds + violets)))
    incident = [e for e, (a, b) in sorted(edges.items()) if base_node in (a, b)]
    base_edge = rng.choice(incident)
    return RibbonBipartiteGraph(emeralds, violets, edges, rotations,
                                base_node, base_edge)


def random_ordinary(seed: int, max_vertices: int = 6,
                    max_edges: int = 9) -> RibbonGraph:
    """Connected loopless ribbon multigraph (parallel edges allowed)."""
    rng = random.Random(seed)
    n = rng.randint(2, max_vertices)
    if max_edges < n - 1:
        raise ValueError("edge budget below spanning-tree size")
    vertices = [f"w{i}" for i in range(n)]
    edges: dict[str, tuple[str, str]] = {}
    for i in range(1, n):
        edges[f"t{i}"] = (vertices[rng.randrange(i)], vertices[i])
    budget = rng.randint(n - 1, max_edges)
    k = 0
    while len(edges) < budget:
        a, b = rng.sample(vertices, 2)
        edges[f"m{k}"] = (a, b)
        k += 1
    rotations = _random_rotations(rng, edges)
    base_node = rng.choice(vertices)
    incident = [e for e, (a, b) in sorted(edges.items()) if base_node in (a, b)]
    base_edge = rng.choice(incident)
    return RibbonGraph(edges, rotations, base_node, base_edge)


def _random_rotations(rng: random.Random, edges: dict[str, tuple[str, str]]):
    incident: dict[str, list[str]] = {}
    for e, (a, b) in sorted(edges.items()):
        incident.setdefault(a, []).append(e)
        incident.setdefault(b, []).append(e)
    out = {}
    for x, inc in sorted(incident.items()):
        rng.shuffle(inc)
        out[x] = tuple(inc)
    return out

