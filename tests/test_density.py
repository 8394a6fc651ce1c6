"""Density module: homomorphism densities, conditionals, regularity, and the
two-point conditional kernel."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import ZOO
from limit_oracles import average, einsum_density

from graphonlab import (
    DegenerateGraphonError,
    KernelSpec,
    LabeledGraph,
    StepGraphon,
    as_step_graphon,
    conditional_density,
    discretize,
    hom_density,
    mean_count,
    regularity_defect,
    two_point_graphon,
)

K2 = LabeledGraph.complete(2)
K3 = LabeledGraph.complete(3)
STAR2 = LabeledGraph.star(2)

CONST_HALF = as_step_graphon(KernelSpec.constant(0.5))


def separable_density(F: LabeledGraph) -> float:
    """Exact density of F in the product kernel xy: each vertex of degree d
    contributes the moment 1/(d+1)."""
    return float(np.prod([1.0 / (d + 1) for d in F.degrees()]))


class TestHomDensity:
    def test_edge_in_constant(self):
        assert hom_density(K2, as_step_graphon(KernelSpec.constant(0.3))) == pytest.approx(
            0.3, abs=1e-15
        )

    def test_two_star_in_two_block(self):
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.6))
        assert hom_density(STAR2, W) == pytest.approx(0.36 / 4, abs=1e-15)

    def test_two_star_in_product(self):
        W = discretize(KernelSpec.product(), 256)
        assert hom_density(STAR2, W) == pytest.approx(1 / 12, abs=1e-5)

    @pytest.mark.parametrize("H", [K2, STAR2, K3, LabeledGraph.path(3), LabeledGraph.cycle(4)])
    def test_product_kernel_matches_separable_oracle(self, H):
        W = discretize(KernelSpec.product(), 256)
        assert hom_density(H, W) == pytest.approx(separable_density(H), abs=1e-4)

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
        # the cell averages of xy are c_i c_j with c_i the cell midpoints, so
        # t(F, W) = prod_u sum_i pi_i c_i^(d_u), here in exact arithmetic
        H = ZOO[name]
        c = [Fraction(2 * i + 1, 2 * m) for i in range(m)]
        exact = math.prod(sum(ci**d for ci in c) / m for d in H.degrees())
        W = discretize(KernelSpec.product(), m)
        assert hom_density(H, W) == pytest.approx(float(exact), rel=1e-12)

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
            hom_density(LabeledGraph.empty(9), CONST_HALF)

    def test_derived_kernel_values_may_exceed_one(self):
        derived = StepGraphon(np.array([1.0]), np.array([[2.0]]))
        assert hom_density(K2, derived) == pytest.approx(2.0, abs=1e-15)


class TestConditionalDensity:
    def test_center_mark_of_two_star_is_degree_squared(self, graphon_suite):
        for W in graphon_suite[:8]:
            cond = conditional_density(STAR2, (1,), W)
            assert np.allclose(cond, W.degree() ** 2, atol=1e-13)

    def test_leaf_mark_of_two_star_integrates_neighbor_degree(self, graphon_suite):
        for W in graphon_suite[:8]:
            cond = conditional_density(STAR2, (2,), W)
            expected = W.values @ (W.block_weights * W.degree())
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


class TestMeanCount:
    def test_edge_in_constant(self):
        assert mean_count(K2, as_step_graphon(KernelSpec.constant(0.4)), 3) == pytest.approx(
            3 * 0.4, abs=1e-14
        )

    def test_triangle_in_constant(self):
        assert mean_count(K3, CONST_HALF, 4) == pytest.approx(4 * 0.5**3, abs=1e-14)

    def test_two_star_matches_binomial_form(self):
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.7))
        n = 10
        t = hom_density(STAR2, W)
        assert mean_count(STAR2, W, n) == pytest.approx(3 * 120 * t, abs=1e-10)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            mean_count(K3, CONST_HALF, 2)


class TestRegularity:
    def test_constant_kernel_is_regular_for_everything(self):
        W = as_step_graphon(KernelSpec.constant(0.3))
        for H in (K2, STAR2, K3):
            assert regularity_defect(H, W) <= 1e-12

    def test_two_block_is_two_star_regular(self):
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.5))
        assert regularity_defect(STAR2, W) <= 1e-12

    def test_product_is_not_two_star_regular(self):
        W = discretize(KernelSpec.product(), 64)
        assert regularity_defect(STAR2, W) > 1e-4

    def test_all_ones_kernel_is_degenerate(self):
        W = as_step_graphon(KernelSpec.constant(1.0))
        with pytest.raises(DegenerateGraphonError) as err:
            regularity_defect(K3, W)
        assert err.value.reason == "complete"

    def test_pattern_free_kernel_is_degenerate(self):
        bipartite = StepGraphon(np.array([0.5, 0.5]), np.array([[0.0, 0.8], [0.8, 0.0]]))
        with pytest.raises(DegenerateGraphonError) as err:
            regularity_defect(K3, bipartite)
        assert err.value.reason == "pattern_free"

    def test_rejects_non_probability_kernel(self):
        derived = StepGraphon(np.array([1.0]), np.array([[1.2]]))
        with pytest.raises(ValueError):
            regularity_defect(K2, derived)


class TestTwoPointGraphon:
    def test_edge_pattern_halves_the_kernel(self, graphon_suite):
        for W in graphon_suite[:6]:
            WH = two_point_graphon(K2, W)
            assert np.allclose(WH.values, W.values / 2, atol=1e-15)

    def test_two_star_closed_form(self, graphon_suite):
        # (1/2) { W(x,y)(d(x)+d(y)) + int W(x,z) W(y,z) dz }
        for W in graphon_suite[:8]:
            d = W.degree()
            overlap = W.values @ (W.block_weights[:, None] * W.values)
            expected = 0.5 * (W.values * (d[:, None] + d[None, :]) + overlap)
            WH = two_point_graphon(STAR2, W)
            assert np.allclose(WH.values, expected, atol=1e-13)

    def test_two_block_diagonal_values(self):
        p = 0.5
        WH = two_point_graphon(STAR2, as_step_graphon(KernelSpec.two_block_diagonal(p)))
        assert WH.values[0, 0] == pytest.approx(3 * p**2 / 4, abs=1e-15)
        assert WH.values[0, 1] == 0.0

    def test_degree_identity(self, graphon_suite, small_patterns):
        # degree of the derived kernel = (v-1)/(2|Aut|) * sum of one-point conditionals
        from graphonlab import automorphism_count

        for W in graphon_suite[:6]:
            for H in small_patterns.values():
                v = H.vertex_count
                total = np.zeros(W.block_count)
                for a in range(1, v + 1):
                    total += conditional_density(H, (a,), W)
                expected = (v - 1) / (2 * automorphism_count(H)) * total
                assert np.allclose(two_point_graphon(H, W).degree(), expected, atol=1e-12)

    def test_values_within_structural_bound(self, graphon_suite, small_patterns):
        # every two-point conditional is at most 1, so the derived kernel is
        # bounded by the number of ordered pairs over 2|Aut|
        from graphonlab import automorphism_count

        for W in graphon_suite[:8]:
            for H in small_patterns.values():
                v = H.vertex_count
                bound = v * (v - 1) / (2 * automorphism_count(H))
                WH = two_point_graphon(H, W)
                assert np.all(WH.values >= -1e-15)
                assert np.all(WH.values <= bound + 1e-12)

    def test_regularity_iff_derived_kernel_degree_constant(self, graphon_suite, small_patterns):
        kernels = list(graphon_suite[:6])
        kernels.append(as_step_graphon(KernelSpec.two_block_diagonal(0.5)))
        for W in kernels:
            for H in small_patterns.values():
                defect = regularity_defect(H, W)
                d = two_point_graphon(H, W).degree()
                spread = float(np.max(d) - np.min(d))
                assert (defect <= 1e-10) == (spread <= 1e-10)

    def test_rejects_single_vertex_pattern(self):
        with pytest.raises(ValueError):
            two_point_graphon(LabeledGraph.empty(1), CONST_HALF)
