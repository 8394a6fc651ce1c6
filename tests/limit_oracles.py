"""Reference implementations that the package's limit constants are checked
against: tau2 and sigma2 as sums of densities of the pattern glued to
itself, one join per ordered pair of vertices or edges. The package takes
the same sums in projection form without building any join, so agreement
is evidence.

The joins live here, and so does the contraction their densities come
from: one einsum with an operand per vertex weight and per edge copy,
written independently of the package's vertex elimination; with marks it
gives conditional densities too. A strong edge join keeps both copies of
the shared edge, so it is returned as a vertex count with an
{edge: multiplicity} map rather than as a simple graph.

Returned constants are not clamped at zero.
"""

from __future__ import annotations

import numpy as np

from graphonlab import LabeledGraph, StepGraphon, automorphism_count

Edge = tuple[int, int]


def _sorted_edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def einsum_density(
    F: LabeledGraph | tuple[int, dict[Edge, int]], W: StepGraphon, marks: tuple[int, ...] = ()
) -> float | np.ndarray:
    """t(F, W) for a simple graph or a (vertex_count, {edge: multiplicity})
    multigraph: an edge of multiplicity m enters as m copies of the kernel.
    With marks, the conditional density instead: the marked vertices carry
    no block weight and stay as output axes, in mark order."""
    if isinstance(F, LabeledGraph):
        F = (F.vertex_count, dict.fromkeys(F.edges, 1))
    vertex_count, multiplicity = F
    operands: list = []
    for u in range(1, vertex_count + 1):
        operands += [np.ones(W.block_count) if u in marks else W.block_weights, [u - 1]]
    for (a, b), m in sorted(multiplicity.items()):
        operands += [W.values, [a - 1, b - 1]] * m
    out = np.einsum(*operands, [u - 1 for u in marks], optimize=True)
    return out if marks else float(out)


def average(values: np.ndarray, W: StepGraphon) -> float:
    """Integrate every pinned coordinate of a conditional density out
    against the block weights."""
    for _ in range(values.ndim):
        values = np.tensordot(W.block_weights, values, axes=([0], [0]))
    return float(values)


def _check_vertex(H: LabeledGraph, v: int, name: str) -> None:
    if not (1 <= v <= H.vertex_count):
        raise ValueError(f"vertex {v} not in {name}")


def _relabel_second(
    H1: LabeledGraph, H2: LabeledGraph, identified: dict[int, int]
) -> dict[int, int]:
    """Map H2's vertices into the joined graph: identified ones to their H1
    partner, the rest to fresh labels |V(H1)|+1, ... in increasing order."""
    mapping = dict(identified)
    nxt = H1.vertex_count + 1
    for u in range(1, H2.vertex_count + 1):
        if u not in mapping:
            mapping[u] = nxt
            nxt += 1
    return mapping


def vertex_join(H1: LabeledGraph, a: int, H2: LabeledGraph, b: int) -> LabeledGraph:
    """Glue H1 and H2 by identifying vertex a of H1 with vertex b of H2.

    The result keeps H1's labels and appends H2's remaining vertices.
    """
    _check_vertex(H1, a, "H1")
    _check_vertex(H2, b, "H2")
    mapping = _relabel_second(H1, H2, {b: a})
    edges = set(H1.edges)
    edges.update(_sorted_edge(mapping[x], mapping[y]) for x, y in H2.edges)
    return LabeledGraph(H1.vertex_count + H2.vertex_count - 1, frozenset(edges))


def _check_join_edges(H1: LabeledGraph, e1: Edge, H2: LabeledGraph, e2: Edge):
    a, b = e1
    c, d = e2
    if not H1.has_edge(a, b):
        raise ValueError(f"({a},{b}) is not an edge of H1")
    if not H2.has_edge(c, d):
        raise ValueError(f"({c},{d}) is not an edge of H2")
    return a, b, c, d


def weak_edge_join(H1: LabeledGraph, e1: Edge, H2: LabeledGraph, e2: Edge) -> LabeledGraph:
    """Glue H1 and H2 along the edges e1=(a,b), e2=(c,d), keeping one copy
    of the shared edge.

    Identification is positional: a with c and b with d, in the order the
    pairs are passed.
    """
    a, b, c, d = _check_join_edges(H1, e1, H2, e2)
    mapping = _relabel_second(H1, H2, {c: a, d: b})
    edges = set(H1.edges)
    edges.update(_sorted_edge(mapping[x], mapping[y]) for x, y in H2.edges)
    return LabeledGraph(H1.vertex_count + H2.vertex_count - 2, frozenset(edges))


def strong_edge_join(
    H1: LabeledGraph, e1: Edge, H2: LabeledGraph, e2: Edge
) -> tuple[int, dict[Edge, int]]:
    """The weak edge join with its shared edge doubled: its vertex count and
    every edge with its multiplicity (2 for the shared edge, 1 otherwise)."""
    weak = weak_edge_join(H1, e1, H2, e2)
    multiplicity = dict.fromkeys(weak.edges, 1)
    multiplicity[_sorted_edge(*e1)] = 2
    return weak.vertex_count, multiplicity


def tau_squared_by_joins(H: LabeledGraph, W: StepGraphon) -> float:
    """Over all ordered vertex pairs (a, b), the density of H glued to itself
    at a ~ b, minus v^2 t(H,W)^2, divided by |Aut(H)|^2."""
    v = H.vertex_count
    aut = automorphism_count(H)
    t = einsum_density(H, W)
    total = 0.0
    for a in range(1, v + 1):
        for b in range(1, v + 1):
            total += einsum_density(vertex_join(H, a, H, b), W)
    return (total - v * v * t * t) / (aut * aut)


def sigma_squared_by_joins(H: LabeledGraph, W: StepGraphon) -> float:
    """2/|Aut(H)|^2 times the sum over ordered pairs of edges of the
    weak-join density minus the strong-join density."""
    aut = automorphism_count(H)
    edges = H.sorted_edges()
    total = 0.0
    for e in edges:
        for f in edges:
            total += einsum_density(weak_edge_join(H, e, H, f), W)
            total -= einsum_density(strong_edge_join(H, e, H, f), W)
    return 2.0 * total / (aut * aut)
