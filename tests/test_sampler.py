"""Sampler module: W-random graphs, and the normalized statistic of a sample."""

import math

import numpy as np
import pytest
from counting_oracles import edge_list_sample_graph

from graphonlab import (
    KernelSpec,
    LabeledGraph,
    LimitLaw,
    SampleRecord,
    StepGraphon,
    as_step_graphon,
    count_copies,
    hom_density,
    mean_count,
    sample_graph,
)
from graphonlab.graphon import discretize
from graphonlab.sampler import sample_adjacency
from graphonlab.simulate import _record

K3 = LabeledGraph.complete(3)
STAR2 = LabeledGraph.star(2)


class TestSampleGraph:
    def test_all_ones_kernel_gives_complete_graph(self):
        W = as_step_graphon(KernelSpec.constant(1.0))
        for seed in (0, 1, 2):
            G = sample_graph(W, 5, seed)
            assert G.edge_count == 10

    def test_zero_kernel_gives_empty_graph(self):
        W = as_step_graphon(KernelSpec.constant(0.0))
        for seed in (0, 1, 2):
            assert sample_graph(W, 5, seed).edge_count == 0

    def test_reproducible_bit_for_bit(self):
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.6))
        assert sample_graph(W, 40, 123) == sample_graph(W, 40, 123)
        assert sample_graph(W, 40, 123) != sample_graph(W, 40, 124)

    def test_mean_edge_count_matches_binomial(self):
        p, n, reps = 0.37, 8, 10_000
        W = as_step_graphon(KernelSpec.constant(p))
        pairs = n * (n - 1) // 2
        counts = [sample_graph(W, n, seed).edge_count for seed in range(reps)]
        se = math.sqrt(pairs * p * (1 - p) / reps)
        assert abs(float(np.mean(counts)) - p * pairs) <= 4 * se

    def test_edge_density_converges_to_kernel_integral(self):
        W = StepGraphon(np.array([0.3, 0.7]), np.array([[0.2, 0.6], [0.6, 0.4]]))
        n, reps = 500, 100
        target = hom_density(LabeledGraph.complete(2), W)
        pairs = n * (n - 1) / 2
        # sample_graph's edges are sample_adjacency's (test_matches_edge_list_sampler)
        densities = np.array(
            [sample_adjacency(W, n, seed).sum() / 2 / pairs for seed in range(reps)]
        )
        se = float(np.std(densities, ddof=1)) / math.sqrt(reps)
        assert abs(float(np.mean(densities)) - target) <= 4 * se

    def test_rejects_non_probability_kernel(self):
        derived = StepGraphon(np.array([1.0]), np.array([[1.4]]))
        with pytest.raises(ValueError):
            sample_graph(derived, 5, 0)

    def test_rejects_zero_vertices(self):
        with pytest.raises(ValueError):
            sample_graph(as_step_graphon(KernelSpec.constant(0.5)), 0, 0)

    @pytest.mark.parametrize(
        "W",
        [
            as_step_graphon(KernelSpec.two_block_diagonal(0.5)),
            as_step_graphon(KernelSpec.constant(0.37)),
            discretize(KernelSpec.product(), 64),
            StepGraphon(np.array([0.3, 0.7]), np.array([[0.2, 0.6], [0.6, 0.4]])),
        ],
    )
    def test_matches_edge_list_sampler(self, W):
        for n, seed in ((1, 0), (2, 5), (17, 1), (150, 20240817), (151, 3)):
            expected = edge_list_sample_graph(W, n, seed)
            assert sample_graph(W, n, seed) == expected
            A = sample_adjacency(W, n, seed)
            assert A.dtype == np.float64
            assert np.array_equal(A, A.T)
            rows, cols = np.nonzero(np.triu(A))
            assert set(zip((rows + 1).tolist(), (cols + 1).tolist())) == set(expected.edges)
            assert np.all(np.isin(A, (0.0, 1.0))) and not A.diagonal().any()


class TestNormalizedStatistic:
    """The replicate record of a sample: simulate._record of the count_copies
    count, centered at mean_count and scaled by n^scale_exponent."""

    @staticmethod
    def record(H, W, G, law, seed=0):
        n = G.vertex_count
        return _record(H, n, seed, count_copies(H, G), mean_count(H, W, n), law)

    def test_all_ones_kernel_is_exactly_centered(self):
        W = as_step_graphon(KernelSpec.constant(1.0))
        law = LimitLaw.gaussian(0.0, 3)
        for seed in (3, 4):
            rec = self.record(K3, W, sample_graph(W, 10, seed), law, seed=seed)
            assert rec == SampleRecord(seed=seed, raw_count=math.perm(10, 3) // 6, normalized=0.0)

    def test_single_edge_two_point_support(self):
        p = 0.3
        W = as_step_graphon(KernelSpec.constant(p))
        law = LimitLaw.gaussian(0.0, 2)  # exponent 1.5
        K2 = LabeledGraph.complete(2)
        seen = {self.record(K2, W, sample_graph(W, 2, seed), law).normalized for seed in range(40)}
        assert seen == {(0 - p) / 2**1.5, (1 - p) / 2**1.5}

    def test_replicate_mean_matches_mean_count(self):
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.6))
        n, reps = 40, 200
        law = LimitLaw.mixture(0.0, (), 3)
        raws = np.array([self.record(STAR2, W, sample_graph(W, n, seed), law).raw_count
                         for seed in range(reps)], dtype=float)
        se = float(np.std(raws, ddof=1)) / math.sqrt(reps)
        assert abs(float(np.mean(raws)) - mean_count(STAR2, W, n)) <= 4 * se

    def test_raw_count_within_complete_graph_bound(self):
        W = as_step_graphon(KernelSpec.constant(0.9))
        law = LimitLaw.gaussian(0.0, 3)
        G = sample_graph(W, 12, 5)
        rec = self.record(K3, W, G, law)
        assert 0 <= rec.raw_count <= math.perm(12, 3) // 6
        assert rec.raw_count == count_copies(K3, G)
        # K_12 holds (12)_3 / |Aut K3| triangles; one more is a counting bug
        bound = math.perm(12, 3) // 6
        assert _record(K3, 12, 0, bound, 0.0, law).raw_count == bound
        with pytest.raises(RuntimeError, match="complete-graph bound"):
            _record(K3, 12, 0, bound + 1, 0.0, law)

    def test_rejects_host_smaller_than_pattern(self):
        W = as_step_graphon(KernelSpec.constant(0.5))
        law = LimitLaw.gaussian(0.0, 3)
        with pytest.raises(ValueError):
            self.record(K3, W, sample_graph(W, 2, 0), law)
