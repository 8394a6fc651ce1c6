"""Exact homomorphism densities on step graphons.

The density of a pattern F in a step kernel W is the sum over all maps from
V(F) to blocks of the product of block weights and edge values: the copy
count's sum over labellings, with blocks in place of host vertices. It is
evaluated by the elimination that counts copies, planned by graphs._plan
and run by graphs._run, with the block weights as unary factors and the
kernel on every edge; a conditional density keeps its marks as axes.
Densities on one graphon share the products it keeps: each merge over the
block weights between two kept factors (its values, a kept product, or
the transpose of either), such as B diag(pi) B and B diag(pi) B diag(pi) B,
is built once per key. Sharing is exact because each product is built on
the operands, in the layout, that the contraction would use.
"""

from __future__ import annotations

import math

import numpy as np

from . import graphs
from .graphs import LabeledGraph
from .graphon import StepGraphon, _integer


def _contract(F: LabeledGraph, W: StepGraphon, marks: tuple[int, ...] = ()) -> np.ndarray:
    """Vertex elimination with the block weights on the unmarked vertices,
    all ones on the marks and the kernel on every edge; the result keeps
    one axis per mark, in mark order."""
    v, k = F.vertex_count, W.block_count
    graphs._check_pattern_size(v)
    unary = [np.ones(k) if u in marks else W.block_weights for u in range(1, v + 1)]
    plan = graphs._plan(tuple(range(1, v + 1)), F.edges, marks)
    return graphs._run(plan, unary, [W.values] * F.edge_count, k, W)


def hom_density(F: LabeledGraph, W: StepGraphon) -> float:
    """Homomorphism density t(F, W).

    For derived kernels with values outside [0,1] the result may leave
    [0,1] as well.
    """
    return float(_contract(F, W))


def conditional_density(H: LabeledGraph, marks, W: StepGraphon) -> np.ndarray:
    """K-point conditional density of H in W given the ordered marked
    vertices: the density with mark i pinned to a coordinate in block x_i,
    one value per block tuple (x_1, ..., x_K)."""
    mk = tuple(_integer(a, "marked vertex") for a in marks)
    if len(mk) == 0 or len(set(mk)) != len(mk):
        raise ValueError("marks must be a non-empty list of distinct vertices")
    for a in mk:
        if not (1 <= a <= H.vertex_count):
            raise ValueError(f"marked vertex {a} not in the pattern")
    return _contract(H, W, marks=mk)


def mean_count(H: LabeledGraph, W: StepGraphon, n: int) -> float:
    """Expected number of copies of H in a W-random graph on n vertices:
    (n)_{|V(H)|} / |Aut(H)| * t(H, W)."""
    v = H.vertex_count
    if _integer(n, "n") < v:
        raise ValueError(f"need n >= {v}, got {n}")
    return math.perm(n, v) / H.counting_plan.automorphisms * hom_density(H, W)


def two_point_graphon(H: LabeledGraph, W: StepGraphon) -> StepGraphon:
    """Derived kernel averaging the 2-point conditional densities of H over
    all ordered vertex pairs, scaled by 1/(2 |Aut(H)|).

    Lives on W's partition; values may exceed 1. Its degree function equals
    (|V(H)|-1)/(2|Aut(H)|) times the sum of 1-point conditional densities,
    so it is degree-regular exactly when W is H-regular.
    """
    v = H.vertex_count
    if v < 2:
        raise ValueError("pattern needs at least 2 vertices")
    # the (b, a) term is the transpose of the (a, b) one
    pairs = ((a, b) for a in range(1, v + 1) for b in range(a + 1, v + 1))
    total = sum(t + t.T for t in (conditional_density(H, ab, W) for ab in pairs))
    return StepGraphon(W.block_weights, total / (2 * H.counting_plan.automorphisms))
