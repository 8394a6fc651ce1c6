"""Density module: homomorphism densities, conditionals, regularity, and the
two-point conditional kernel."""

import itertools

import numpy as np
import pytest
from conftest import EDGE_AND_TRIANGLE, ZOO, closed_form, degree, empty_graph, twenty_block_kernel
from counting_oracles import automorphisms_by_copies
from limit_oracles import average, einsum_density

from graphonlab import (
    DegenerateGraphonError,
    KernelSpec,
    LabeledGraph,
    StepGraphon,
    as_step_graphon,
    cli,
    conditional_density,
    discretize,
    first_order,
    hom_density,
    mean_count,
    sigma_squared,
    two_point_graphon,
)
from graphonlab import graphs

K2 = LabeledGraph.complete(2)
K3 = LabeledGraph.complete(3)
STAR2 = LabeledGraph.star(2)

CONST_HALF = as_step_graphon(KernelSpec.constant(0.5))

# Patterns whose contractions sum a vertex of degree 2 between two kernel
# factors, as t, a one- or two-point conditional, or an edge-deleted
# conditional of sigma2, and K4, which pins.
SHARED_PRODUCT_PATTERNS = {
    "k3": K3,
    "path3": LabeledGraph.path(3),
    "star3": LabeledGraph.star(3),
    "cycle4": LabeledGraph.cycle(4),
    "paw": LabeledGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)]),
    "diamond": ZOO["diamond"],
    "k4": ZOO["k4"],
}


class TestHomDensity:
    def test_edge_in_constant(self):
        assert closed_form("t of k2 on constant:0.3")

    def test_two_star_in_two_block(self):
        assert closed_form("t of star2 on two_block:0.5")

    def test_two_star_in_product(self):
        assert closed_form("t of star2 on product, m=256")

    @pytest.mark.parametrize("H", [K2, STAR2, K3, LabeledGraph.path(3), LabeledGraph.cycle(4)])
    def test_product_kernel_matches_separable_oracle(self, H):
        W = discretize(KernelSpec.product(), 256)
        exact = float(cli._product_density(H, 256))
        assert hom_density(H, W) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_matches_einsum_oracle(self, graphon_suite, name):
        H = ZOO[name]
        for W in graphon_suite:
            assert hom_density(H, W) == pytest.approx(einsum_density(H, W), rel=1e-12)

    # every vertex of these has degree >= 3, so the engine pins a vertex and
    # carries the block weights through the pin
    @pytest.mark.parametrize("name,m", [("k4", 64), ("wheel4", 16), ("k5", 16)])
    def test_pinned_patterns_match_einsum_oracle_on_product(self, name, m):
        W = discretize(KernelSpec.product(), m)
        assert hom_density(ZOO[name], W) == pytest.approx(einsum_density(ZOO[name], W), rel=1e-12)

    @pytest.mark.parametrize("name,m", [("k4", 64), ("wheel4", 64), ("k5", 64), ("k4", 256)])
    def test_pinned_patterns_match_exact_product_value(self, name, m):
        exact = float(cli._product_density(ZOO[name], m))
        W = discretize(KernelSpec.product(), m)
        assert hom_density(ZOO[name], W) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("name", ["k4", "k5", "wheel4", "k4_pendant", "k4_subdivided"])
    @pytest.mark.parametrize("m", [2, 16, 64])
    def test_pinned_density_cut_to_the_pinned_blocks_half(self, name, m, monkeypatch):
        # two_block:0.5 is 0 between its halves, so a pin at a block of one
        # half runs its sub-elimination on that half's m/2 blocks only; the
        # density of a connected pattern is 2 (1/2)^v 0.5^e
        H, W = ZOO[name], discretize(KernelSpec.two_block_diagonal(0.5), m)
        sizes = []
        original = graphs._run
        monkeypatch.setattr(graphs, "_run", lambda *args: sizes.append(args[3]) or original(*args))
        t = hom_density(H, W)
        assert len(sizes) > 1 and sizes == [m] + [m // 2] * (len(sizes) - 1)
        assert t == pytest.approx(2 * 0.5 ** (H.vertex_count + H.edge_count), rel=1e-12)
        if m <= 16:  # the oracle's einsum takes seconds for five vertices on 64 blocks
            assert t == pytest.approx(einsum_density(H, W), rel=1e-12)

    def test_multigraph_density_powers_the_kernel(self):
        # the oracle's strong-join densities: an edge of multiplicity 2 is W^2
        assert einsum_density((2, {(1, 2): 2}), CONST_HALF) == pytest.approx(0.25, abs=1e-15)

    def test_three_star_with_doubled_edge_in_two_block(self):
        # center 1, leaves 2..4, doubled (1,2): density d(x)^2 * int W^2
        plus = (4, {(1, 2): 2, (1, 3): 1, (1, 4): 1})
        p = 0.6
        W = as_step_graphon(KernelSpec.two_block_diagonal(p))
        assert einsum_density(plus, W) == pytest.approx(p**4 / 8, abs=1e-15)

    def test_isolated_vertices_do_not_change_density(self):
        padded = LabeledGraph.from_edges(4, [(1, 2)])
        assert hom_density(padded, CONST_HALF) == pytest.approx(0.5, abs=1e-15)

    def test_pattern_size_bound(self):
        with pytest.raises(ValueError):
            hom_density(empty_graph(9), CONST_HALF)

    def test_derived_kernel_values_may_exceed_one(self):
        derived = StepGraphon(np.array([1.0]), np.array([[2.0]]))
        assert hom_density(K2, derived) == pytest.approx(2.0, abs=1e-15)


class TestConditionalDensity:
    def test_center_mark_of_two_star_is_degree_squared(self, graphon_suite):
        for W in graphon_suite[:8]:
            cond = conditional_density(STAR2, (1,), W)
            assert np.allclose(cond, degree(W) ** 2, atol=1e-13)

    def test_leaf_mark_of_two_star_integrates_neighbor_degree(self, graphon_suite):
        for W in graphon_suite[:8]:
            cond = conditional_density(STAR2, (2,), W)
            expected = W.values @ (W.block_weights * degree(W))
            assert np.allclose(cond, expected, atol=1e-13)
            also = conditional_density(STAR2, (3,), W)
            assert np.allclose(also, cond, atol=1e-15)

    def test_constant_kernel_gives_constant_conditional(self):
        cond = conditional_density(K3, (1, 2), CONST_HALF)
        assert np.allclose(cond, 0.5**3, atol=1e-15)

    def test_marginalization_recovers_density(self, graphon_suite, small_patterns):
        marks_by_pattern = {"k2": [(1,), (2,), (1, 2)], "star2": [(1,), (3,), (2, 3), (1, 2, 3)],
                            "k3": [(2,), (1, 3), (3, 2, 1)]}
        for W in graphon_suite[:6]:
            for name, H in small_patterns.items():
                t = hom_density(H, W)
                for marks in marks_by_pattern[name]:
                    cond = conditional_density(H, marks, W)
                    assert average(cond, W) == pytest.approx(t, abs=1e-12)

    def test_mark_order_transposes_the_tensor(self, graphon_suite):
        # pinning (a, b) at (x, y) is pinning (b, a) at (y, x)
        for W in graphon_suite[:6]:
            for H in (STAR2, K3):
                ab = conditional_density(H, (1, 2), W)
                ba = conditional_density(H, (2, 1), W)
                assert np.allclose(ba, ab.T, atol=1e-13)

    def test_fully_marked_two_star_is_the_plain_product(self, graphon_suite):
        # all three vertices pinned: the tensor is just B[x,y] * B[x,z]
        for W in graphon_suite[:4]:
            vals = conditional_density(STAR2, (1, 2, 3), W)
            B = W.values
            expected = B[:, :, None] * B[:, None, :]
            assert np.allclose(vals, expected, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_matches_einsum_oracle(self, graphon_suite, name):
        # every single mark, every ordered pair, and a triple in two orders
        H = ZOO[name]
        vertices = range(1, H.vertex_count + 1)
        mark_tuples = [(a,) for a in vertices] + list(itertools.permutations(vertices, 2))
        for W in graphon_suite:
            for marks in mark_tuples + [(1, 2, 3), (3, 1, 2)]:
                got = conditional_density(H, marks, W)
                expected = einsum_density(H, W, marks)
                assert got.shape == expected.shape == (W.block_count,) * len(marks)
                assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("name", ["k4", "wheel4", "k5"])
    def test_pinned_patterns_on_a_kernel_with_zeros(self, name):
        # a pinned vertex's zero kernel entries must not cut the mark axes
        H, W = ZOO[name], discretize(KernelSpec.two_block_diagonal(0.5), 4)
        assert hom_density(H, W) == pytest.approx(einsum_density(H, W), rel=1e-12)
        for marks in [(1,), (2, 1), (1, 2, 3)]:
            expected = einsum_density(H, W, marks)
            assert np.allclose(conditional_density(H, marks, W), expected, rtol=1e-12, atol=0)

    def test_rejects_duplicate_marks(self):
        with pytest.raises(ValueError):
            conditional_density(K3, (1, 1), CONST_HALF)

    def test_rejects_invalid_vertex(self):
        with pytest.raises(ValueError):
            conditional_density(K3, (4,), CONST_HALF)

    @pytest.mark.parametrize("marks", [(1.7,), ("2",), (True,), (1, 2.0)])
    def test_rejects_marks_that_are_not_integers(self, marks):
        # refused, not converted: int() would read mark 1.7 as 1 and "2" as 2
        with pytest.raises(ValueError, match="marked vertex must be an integer"):
            conditional_density(K3, marks, CONST_HALF)

    def test_numpy_integer_marks(self):
        marks = (np.int64(1), np.int32(2))
        assert np.array_equal(conditional_density(K3, marks, CONST_HALF),
                              conditional_density(K3, (1, 2), CONST_HALF))


class TestMeanCount:
    def test_edge_in_constant(self):
        assert closed_form("mean count at n=3 of k2 on constant:0.3")

    def test_triangle_in_constant(self):
        assert closed_form("mean count at n=4 of k3 on constant:0.5")

    def test_two_star_matches_binomial_form(self):
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.7))
        n = 10
        t = hom_density(STAR2, W)
        assert mean_count(STAR2, W, n) == pytest.approx(3 * 120 * t, abs=1e-10)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            mean_count(K3, CONST_HALF, 2)
        with pytest.raises(ValueError, match=r"^n must be an integer, got 4\.5$"):
            mean_count(K3, CONST_HALF, 4.5)


class TestRegularity:
    def test_constant_kernel_is_regular_for_everything(self):
        for case in ("k2 on constant:0.3", "star2 on constant:0.3", "k3 on constant:0.5"):
            assert closed_form(f"defect and tau2 of {case}")

    def test_two_block_is_two_star_regular(self):
        assert closed_form("defect and tau2 of star2 on two_block:0.5")

    def test_product_is_not_two_star_regular(self):
        W = discretize(KernelSpec.product(), 64)
        assert first_order(STAR2, W).defect > 1e-4

    def test_all_ones_kernel_is_degenerate(self):
        W = as_step_graphon(KernelSpec.constant(1.0))
        with pytest.raises(DegenerateGraphonError, match="kernel is identically 1"):
            first_order(K3, W)

    def test_pattern_free_kernel_is_degenerate(self):
        bipartite = StepGraphon(np.array([0.5, 0.5]), np.array([[0.0, 0.8], [0.8, 0.0]]))
        with pytest.raises(DegenerateGraphonError, match="pattern has zero density"):
            first_order(K3, bipartite)

    def test_rejects_non_probability_kernel(self):
        derived = StepGraphon(np.array([1.0]), np.array([[1.2]]))
        with pytest.raises(ValueError):
            first_order(K2, derived)


class TestTwoPointGraphon:
    def test_edge_pattern_halves_the_kernel(self, graphon_suite):
        for W in graphon_suite[:6]:
            WH = two_point_graphon(K2, W)
            assert np.allclose(WH.values, W.values / 2, atol=1e-15)

    def test_two_star_closed_form(self, graphon_suite):
        # (1/2) { W(x,y)(d(x)+d(y)) + int W(x,z) W(y,z) dz }
        for W in graphon_suite[:8]:
            d = degree(W)
            overlap = W.values @ (W.block_weights[:, None] * W.values)
            expected = 0.5 * (W.values * (d[:, None] + d[None, :]) + overlap)
            WH = two_point_graphon(STAR2, W)
            assert np.allclose(WH.values, expected, atol=1e-13)

    def test_two_block_diagonal_values(self):
        assert closed_form("two-point kernel of star2 on two_block:0.5")

    def test_degree_identity(self, graphon_suite, small_patterns):
        # degree of the derived kernel = (v-1)/(2|Aut|) * sum of one-point conditionals
        for W in graphon_suite[:6]:
            for H in small_patterns.values():
                v = H.vertex_count
                total = np.zeros(W.block_count)
                for a in range(1, v + 1):
                    total += conditional_density(H, (a,), W)
                expected = (v - 1) / (2 * automorphisms_by_copies(H)) * total
                assert np.allclose(degree(two_point_graphon(H, W)), expected, atol=1e-12)

    def test_values_within_structural_bound(self, graphon_suite, small_patterns):
        # every two-point conditional is at most 1, so the derived kernel is
        # bounded by the number of ordered pairs over 2|Aut|
        for W in graphon_suite[:8]:
            for H in small_patterns.values():
                v = H.vertex_count
                bound = v * (v - 1) / (2 * automorphisms_by_copies(H))
                WH = two_point_graphon(H, W)
                assert np.all(WH.values >= -1e-15)
                assert np.all(WH.values <= bound + 1e-12)

    def test_regularity_iff_derived_kernel_degree_constant(self, graphon_suite, small_patterns):
        kernels = list(graphon_suite[:6])
        kernels.append(as_step_graphon(KernelSpec.two_block_diagonal(0.5)))
        for W in kernels:
            for H in small_patterns.values():
                defect = first_order(H, W).defect
                d = degree(two_point_graphon(H, W))
                spread = float(np.max(d) - np.min(d))
                assert (defect <= 1e-10) == (spread <= 1e-10)

    def test_rejects_single_vertex_pattern(self):
        with pytest.raises(ValueError):
            two_point_graphon(empty_graph(1), CONST_HALF)


def _random_custom(k: int) -> KernelSpec:
    """A seeded custom kernel on k blocks of unequal weight."""
    rng = np.random.default_rng(k)
    weights = rng.random(k) + 0.25
    values = rng.uniform(0.05, 0.95, size=(k, k))
    return KernelSpec.custom(weights / weights.sum(), (values + values.T) / 2.0)


def _results(H: LabeledGraph, W: StepGraphon) -> list:
    """Everything the density layer derives from (H, W): t, every one- and
    two-point conditional, first_order, sigma2 and the two-point kernel."""
    vertices = range(1, H.vertex_count + 1)
    marks = [(a,) for a in vertices] + list(itertools.permutations(vertices, 2))
    return [hom_density(H, W), *(conditional_density(H, mk, W) for mk in marks),
            *first_order(H, W), sigma_squared(H, W), two_point_graphon(H, W).values]


def test_densities_plan_each_shape_once():
    # t, the one- and two-point conditionals and sigma2's H - ab patterns,
    # built afresh on every call, are planned on the first graphon only
    patterns = [ZOO["k4"], ZOO["path3"]]

    def constants(W: StepGraphon) -> None:
        for H in patterns:
            first_order(H, W)
            sigma_squared(H, W)
            two_point_graphon(H, W)

    graphs._plan.cache_clear()
    constants(discretize(KernelSpec.product(), 4))
    misses = graphs._plan.cache_info().misses
    assert misses > 0
    for W in (discretize(KernelSpec.product(), 8), as_step_graphon(_random_custom(3))):
        constants(W)
    assert graphs._plan.cache_info().misses == misses


def test_the_order_edges_are_listed_in_moves_no_bit_and_plans_nothing():
    # a pattern is its edge set: built from its edges in reverse, with each
    # H - ab built by from_edges rather than by set difference, it must give
    # the bits of the first build and reuse its plans
    spec = twenty_block_kernel()

    def results(v: int, edges: list, minus) -> list:
        H, W = LabeledGraph.from_edges(v, edges), as_step_graphon(spec)
        return _results(H, W) + [conditional_density(minus(v, edges, e), e, W)
                                 for e in sorted(edges)]

    def by_set(v: int, edges: list, e) -> LabeledGraph:
        return LabeledGraph(v, set(edges) - {e})

    def by_list(v: int, edges: list, e) -> LabeledGraph:
        return LabeledGraph.from_edges(v, [f for f in edges if f != e])

    patterns = {name: (H.vertex_count, list(H.edges)) for name, H in ZOO.items()}
    patterns["edge_and_triangle"] = (6, EDGE_AND_TRIANGLE)
    for name, (v, listed) in patterns.items():
        first = results(v, listed, by_set)
        misses = graphs._plan.cache_info().misses
        second = results(v, listed[::-1], by_list)
        assert graphs._plan.cache_info().misses == misses, name
        assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                   for a, b in zip(first, second, strict=True)), name


class TestSharedTwoStepProduct:
    @pytest.mark.parametrize("spec", [
        KernelSpec.product(), _random_custom(3), _random_custom(7), _random_custom(20),
    ], ids=["product-m64", "custom-k3", "custom-k7", "custom-k20"])
    def test_warm_graphon_gives_the_bits_of_a_fresh_one(self, spec, monkeypatch):
        # the products a graphon keeps for every pattern (B diag(pi) B,
        # B diag(pi) B diag(pi) B, ...) must give each pattern the bits it
        # gets on a graphon of its own,
        # and those of the elimination that builds every product itself
        names = list(SHARED_PRODUCT_PATTERNS)
        for order in (names, names[::-1]):
            discretize.cache_clear()  # a product grid too starts with no kept product
            W = as_step_graphon(spec, 64)
            for name in order:
                _results(SHARED_PRODUCT_PATTERNS[name], W)
            for name in order:
                H = SHARED_PRODUCT_PATTERNS[name]
                fresh = _results(H, StepGraphon(W.block_weights, W.values))
                warm = _results(H, W)
                assert all(np.array_equal(a, b) for a, b in zip(warm, fresh)), name
                with monkeypatch.context() as patch:  # no graphon, so no shared product
                    run = graphs._run
                    patch.setattr(graphs, "_run", lambda *args: run(*args[:4]))
                    unshared = _results(H, W)
                assert all(np.array_equal(a, b) for a, b in zip(warm, unshared)), name
