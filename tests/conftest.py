"""Shared helpers: deterministic random step graphons, pattern zoo, and
the closed-form table behind `graphonlab selftest`."""

from __future__ import annotations

import numpy as np
import pytest

from graphonlab import KernelSpec, LabeledGraph, StepGraphon, cli, discretize, simulate

_K4 = LabeledGraph.complete(4)

# Patterns that reach every branch of the counting engine: trees (degree-1
# elimination), cycles (degree 2), K4, K5 and the wheel (pinning), and
# patterns whose quotients are disconnected or carry isolated vertices.
ZOO = {
    "star3": LabeledGraph.star(3),
    "path3": LabeledGraph.path(3),
    "c4": LabeledGraph.cycle(4),
    "k4": _K4,
    "c5": LabeledGraph.cycle(5),
    "k5": LabeledGraph.complete(5),
    "diamond": LabeledGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]),
    "wheel4": LabeledGraph.from_edges(
        5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5), (2, 5)]
    ),
    # pinning after elimination: weighted pin, and unequal pairwise factors
    "k4_pendant": LabeledGraph.from_edges(5, [*_K4.edges, (1, 5)]),
    "k4_subdivided": LabeledGraph.from_edges(5, [*(set(_K4.edges) - {(1, 2)}), (1, 5), (2, 5)]),
    "two_edges": LabeledGraph.from_edges(4, [(1, 2), (3, 4)]),
    "isolated_vertex": LabeledGraph.from_edges(4, [(1, 2), (2, 3)]),
}

# An edge and a disjoint triangle, with vertex 3 isolated, and a seeded
# 20-block custom kernel on which a plan that followed the order the edges
# are listed in would move the last bits of t, tau2 and the normalized counts.
EDGE_AND_TRIANGLE = [(1, 2), (4, 5), (4, 6), (5, 6)]


def twenty_block_kernel() -> KernelSpec:
    """Values uniform on [0.05, 0.95], symmetrised, then block weights
    uniform on [0.25, 1.25], normalised; all drawn from seed 3."""
    rng = np.random.default_rng(3)
    values = rng.uniform(0.05, 0.95, size=(20, 20))
    weights = rng.random(20) + 0.25
    return KernelSpec.custom(weights / weights.sum(), (values + values.T) / 2.0)


# The rows of the closed-form table, by name; the acceptance test runs every
# row, and module tests name the rows for the function they test.
CLOSED_FORMS = {row.name: row for row in cli._closed_forms()}


def closed_form(name: str) -> bool:
    """Whether the closed-form row `name` holds."""
    return CLOSED_FORMS[name].holds()


def degree(W: StepGraphon) -> np.ndarray:
    """Block-constant degree function of W: d_i = sum_j pi_j B_ij."""
    return W.values @ W.block_weights


def empty_graph(vertex_count: int) -> LabeledGraph:
    """The pattern with vertex_count vertices and no edges."""
    return LabeledGraph(vertex_count, frozenset())


def random_step_graphon(rng: np.random.Generator, max_blocks: int = 4) -> StepGraphon:
    """Random graphon with 1..max_blocks blocks, weights bounded away from 0
    and values bounded away from {0, 1} so nothing is degenerate."""
    k = int(rng.integers(1, max_blocks + 1))
    weights = rng.random(k) + 0.25
    weights /= weights.sum()
    values = rng.uniform(0.05, 0.95, size=(k, k))
    values = (values + values.T) / 2.0
    return StepGraphon(weights, values)


@pytest.fixture
def fresh_grids() -> None:
    """`discretize` starts from an empty cache, so a grid the test asks for
    is built afresh, with no two-step product that an earlier test kept."""
    discretize.cache_clear()


@pytest.fixture
def fresh_pool():
    """`run_experiment` keeps no worker pool when the test starts or after
    it ends: a pool the test needs is forked with the test's patches of
    `simulate` in place, and no later test inherits its workers."""
    simulate._drop_pool()
    yield
    simulate._drop_pool()


@pytest.fixture
def graphon_suite() -> list[StepGraphon]:
    """20 seeded random step graphons with at most 4 blocks."""
    rng = np.random.default_rng(20240817)
    return [random_step_graphon(rng) for _ in range(20)]


@pytest.fixture
def small_patterns() -> dict[str, LabeledGraph]:
    return {
        "k2": LabeledGraph.complete(2),
        "star2": LabeledGraph.star(2),
        "k3": LabeledGraph.complete(3),
    }
