"""Sampler module: W-random graphs, and the normalized statistic of a sample."""

import math

import numpy as np
import pytest
from counting_oracles import edge_list_sample_graph

from graphonlab import (
    ExperimentConfig,
    KernelSpec,
    LabeledGraph,
    StepGraphon,
    as_step_graphon,
    count_copies,
    hom_density,
    mean_count,
    run_experiment,
    sample_graph,
)
from graphonlab.graphon import discretize
from graphonlab.sampler import sample_adjacency

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
        W = as_step_graphon(KernelSpec.constant(0.5))
        with pytest.raises(ValueError):
            sample_graph(W, 0, 0)
        # and a vertex count that is not an integer
        for n in (4.5, 4.0, True):
            with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
                sample_adjacency(W, n, 0)

    @pytest.mark.parametrize(
        "W",
        [
            as_step_graphon(KernelSpec.two_block_diagonal(0.5)),
            as_step_graphon(KernelSpec.constant(0.37)),
            discretize(KernelSpec.product(), 64),
            StepGraphon(np.array([0.3, 0.7]), np.array([[0.2, 0.6], [0.6, 0.4]])),
            # exact 0 and 1 values: no uniform falls below 0, every one below 1
            StepGraphon(np.array([0.2, 0.5, 0.3]),
                        np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.25], [0.5, 0.25, 1.0]])),
        ],
    )
    def test_matches_edge_list_sampler(self, W):
        for n, seed in ((1, 0), (2, 5), (3, 8), (5, 2), (17, 1), (150, 20240817), (151, 3)):
            expected = edge_list_sample_graph(W, n, seed)
            assert sample_graph(W, n, seed) == expected
            A = sample_adjacency(W, n, seed)
            # a fresh array of its own, which a caller may write to
            assert A.dtype == np.float64 and A.flags.c_contiguous and A.flags.writeable
            assert A.flags.owndata and not np.shares_memory(A, sample_adjacency(W, n, seed))
            assert np.array_equal(A, A.T)
            rows, cols = np.nonzero(np.triu(A))
            assert set(zip((rows + 1).tolist(), (cols + 1).tolist())) == set(expected.edges)
            assert np.all(np.isin(A, (0.0, 1.0))) and not A.diagonal().any()


class TestNormalizedStatistic:
    """The replicate records of a run: each sample's copy count, centered at
    mean_count and scaled by n^scale_exponent. The centring of the all-ones
    kernel is checked in test_acceptance (mean_count(K3, ones, n) equals
    C(n, 3)), a count above the complete graph's in test_simulate, and a host
    smaller than the pattern by count_copies' own refusal in test_graphs."""

    @staticmethod
    def run(H, kernel, n, replicates, seed=0):
        return run_experiment(ExperimentConfig(pattern=H, kernel=kernel, n=n,
                                               replicates=replicates, master_seed=seed,
                                               reference_draws=1_000))

    def test_single_edge_two_point_support(self):
        p = 0.3
        result = self.run(LabeledGraph.complete(2), KernelSpec.constant(p), 2, 40)
        e = result.law.scale_exponent
        assert {r.normalized for r in result.records} == {(0 - p) / 2**e, (1 - p) / 2**e}

    def test_replicate_mean_matches_mean_count(self):
        kernel, n, reps = KernelSpec.two_block_diagonal(0.6), 40, 200
        result = self.run(STAR2, kernel, n, reps)
        raws = np.array([r.raw_count for r in result.records], dtype=float)
        se = float(np.std(raws, ddof=1)) / math.sqrt(reps)
        assert abs(float(np.mean(raws)) - mean_count(STAR2, as_step_graphon(kernel), n)) <= 4 * se

    def test_raw_count_within_complete_graph_bound(self):
        # each record holds count_copies of its own sample
        kernel = KernelSpec.constant(0.9)
        W = as_step_graphon(kernel)
        for r in self.run(K3, kernel, 12, 5, seed=5).records:
            assert 0 <= r.raw_count <= math.perm(12, 3) // 6
            assert r.raw_count == count_copies(K3, sample_graph(W, 12, r.seed))
