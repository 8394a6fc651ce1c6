"""Reference implementations that the package's limit constants are checked
against: tau2 and sigma2 as sums of densities of the pattern glued to
itself, one join per ordered pair of vertices or edges. The package takes
the same sums in projection form without building any join, so agreement
is evidence.

Returned values are not clamped at zero.
"""

from __future__ import annotations

from graphonlab import (
    LabeledGraph,
    StepGraphon,
    automorphism_count,
    hom_density,
    strong_edge_join,
    vertex_join,
    weak_edge_join,
)


def tau_squared_by_joins(H: LabeledGraph, W: StepGraphon) -> float:
    """Over all ordered vertex pairs (a, b), the density of H glued to itself
    at a ~ b, minus v^2 t(H,W)^2, divided by |Aut(H)|^2."""
    v = H.vertex_count
    aut = automorphism_count(H)
    t = hom_density(H, W)
    total = 0.0
    for a in range(1, v + 1):
        for b in range(1, v + 1):
            total += hom_density(vertex_join(H, a, H, b), W)
    return (total - v * v * t * t) / (aut * aut)


def sigma_squared_by_joins(H: LabeledGraph, W: StepGraphon) -> float:
    """2/|Aut(H)|^2 times the sum over ordered pairs of edges of the
    weak-join density minus the strong-join density."""
    aut = automorphism_count(H)
    edges = H.sorted_edges()
    total = 0.0
    for e in edges:
        for f in edges:
            total += hom_density(weak_edge_join(H, e, H, f), W)
            total -= hom_density(strong_edge_join(H, e, H, f), W)
    return 2.0 * total / (aut * aut)
