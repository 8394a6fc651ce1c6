"""Spectral module: step-kernel eigendecomposition and the degree eigenvalue."""

import numpy as np
import pytest
from conftest import closed_form

from graphonlab import (
    KernelSpec,
    LabeledGraph,
    StepGraphon,
    as_step_graphon,
    discretize,
    dwh,
    spec_minus,
    spectrum,
    two_point_graphon,
)

STAR2 = LabeledGraph.star(2)


class TestSpectrum:
    def test_constant_kernel_is_rank_one(self):
        spec = spectrum(as_step_graphon(KernelSpec.constant(0.4)))
        assert spec.eigenvalues.tolist() == [0.4]
        assert np.allclose(spec.eigenvectors[0], 1.0)

    def test_discretized_constant_truncates_zeros(self):
        spec = spectrum(discretize(KernelSpec.constant(0.4), 8))
        assert len(spec) == 1
        assert spec.eigenvalues[0] == pytest.approx(0.4, abs=1e-12)

    def test_two_point_kernel_of_two_block(self):
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.5))
        WH = two_point_graphon(STAR2, W)
        spec = spectrum(WH)
        assert closed_form("spectrum of the two-point kernel of star2 on two_block:0.5")
        # the eigenvalue is degenerate, so the basis is free; what is pinned
        # down is orthonormality and the residual
        gram = (spec.eigenvectors * spec.block_weights[None, :]) @ spec.eigenvectors.T
        assert np.allclose(gram, np.eye(2), atol=1e-12)
        assert spec.max_residual(WH) <= 1e-12

    def test_off_diagonal_two_block(self):
        W = StepGraphon(np.array([0.5, 0.5]), np.array([[0.0, 0.6], [0.6, 0.0]]))
        spec = spectrum(W)
        assert np.allclose(spec.eigenvalues, [0.3, -0.3], atol=1e-14)

    def test_at_most_k_eigenvalues(self, graphon_suite):
        for W in graphon_suite:
            assert len(spectrum(W)) <= W.block_count

    def test_hilbert_schmidt_bound(self, graphon_suite):
        for W in graphon_suite:
            spec = spectrum(W)
            hs = float(W.block_weights @ (W.values**2) @ W.block_weights)
            assert np.sum(spec.eigenvalues**2) <= hs + 1e-9

    def test_residuals(self, graphon_suite):
        for W in graphon_suite:
            assert spectrum(W).max_residual(W) <= 1e-9

    def test_orthonormal_in_weighted_inner_product(self, graphon_suite):
        for W in graphon_suite[:8]:
            spec = spectrum(W)
            gram = (spec.eigenvectors * W.block_weights[None, :]) @ spec.eigenvectors.T
            assert np.allclose(gram, np.eye(len(spec)), atol=1e-9)

    def test_invariant_under_block_refinement(self, graphon_suite):
        for W in graphon_suite[:8]:
            pi = np.repeat(W.block_weights, 2) / 2
            B = np.repeat(np.repeat(W.values, 2, axis=0), 2, axis=1)
            refined = StepGraphon(pi, B)
            a = np.sort(spectrum(W).eigenvalues)
            b = np.sort(spectrum(refined).eigenvalues)
            assert a.size == b.size
            assert np.allclose(a, b, atol=1e-9)


class TestDegreeEigenvalue:
    def test_two_star_on_two_block(self):
        assert closed_form("d_wh of star2 on two_block:0.9")

    def test_edge_on_constant(self):
        assert closed_form("d_wh of k2 on constant:0.3")

    def test_triangle_on_constant(self):
        assert closed_form("d_wh of k3 on constant:0.5")

    def test_constant_function_is_eigenfunction_when_regular(self, small_patterns):
        # T 1 = d 1 blockwise for regular kernels
        for H in small_patterns.values():
            W = as_step_graphon(KernelSpec.two_block_diagonal(0.5))
            WH = two_point_graphon(H, W)
            image = WH.values @ (WH.block_weights * np.ones(2))
            assert np.allclose(image, dwh(H, W), atol=1e-9)


class TestSpecMinus:
    def test_removes_one_copy(self):
        # on the two-block kernel the degree eigenvalue is doubled, so one
        # copy of it stays
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.5))
        spec = spectrum(two_point_graphon(STAR2, W))
        kept = spec_minus(spec, dwh(STAR2, W))
        assert kept.shape == (1,)
        assert kept[0] == pytest.approx(dwh(STAR2, W), abs=1e-10)

    def test_rank_one_becomes_empty(self):
        spec = spectrum(as_step_graphon(KernelSpec.constant(0.4)))
        assert spec_minus(spec, 0.4).size == 0

    def test_no_match_is_an_error(self):
        from graphonlab import Spectrum

        spec = Spectrum(
            np.array([0.5, 0.1]), np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([0.5, 0.5])
        )
        with pytest.raises(ValueError):
            spec_minus(spec, 0.3)

    def test_empty_spectrum_is_an_error(self):
        spec = spectrum(as_step_graphon(KernelSpec.constant(0.4)))
        emptied = spec_minus(spec, 0.4)
        assert emptied.size == 0
        from graphonlab import Spectrum

        with pytest.raises(ValueError):
            spec_minus(Spectrum(emptied, np.zeros((0, 1)), np.array([1.0])), 0.4)
