"""Sampler module: W-random graphs, and the normalized statistic of a sample."""

import math
from fractions import Fraction

import numpy as np
import pytest
from blowup_oracle import counts_by_block_size, exact_law
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
STAR3 = LabeledGraph.star(3)
# the 0/1 two-block kernels: two disjoint cliques, and the complete bipartite graph
CLIQUES = as_step_graphon(KernelSpec.two_block_diagonal(1.0))
BIPARTITE = as_step_graphon(KernelSpec.custom([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]]))


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


class TestBlowupLaw:
    """The sampler, the counter and mean_count against the exact law of X_n
    on a 0/1 two-block kernel (tests/blowup_oracle.py), where X_n is a
    polynomial in the Binomial(n, 1/2) size N of block 1."""

    KERNELS = {"two_block:1": CLIQUES, "bipartite": BIPARTITE}
    PATTERNS = {"star2": STAR2, "k3": K3, "star3": STAR3}
    # copies in two disjoint cliques K_N, K_{n-N}, and in K_{N,n-N}
    CLOSED_FORMS = {
        ("two_block:1", "star2"): lambda N, M: 3 * (math.comb(N, 3) + math.comb(M, 3)),
        ("two_block:1", "k3"): lambda N, M: math.comb(N, 3) + math.comb(M, 3),
        ("two_block:1", "star3"): lambda N, M: 4 * (math.comb(N, 4) + math.comb(M, 4)),
        ("bipartite", "star2"): lambda N, M: N * math.comb(M, 2) + M * math.comb(N, 2),
        ("bipartite", "k3"): lambda N, M: 0,
        ("bipartite", "star3"): lambda N, M: N * math.comb(M, 3) + M * math.comb(N, 3),
    }

    @pytest.mark.parametrize("kernel, pattern", list(CLOSED_FORMS))
    def test_counts_match_the_closed_forms(self, kernel, pattern):
        closed_form = self.CLOSED_FORMS[kernel, pattern]
        for n in range(12):
            counts = counts_by_block_size(self.PATTERNS[pattern], self.KERNELS[kernel], n)
            assert counts == [closed_form(N, n - N) for N in range(n + 1)]

    def test_pinned_laws(self):
        # star2 at n = 4: N = 0..4 with probabilities 1, 4, 6, 4, 1 over 16
        assert exact_law(STAR2, CLIQUES, 4) == {0: Fraction(3, 8), 3: Fraction(1, 2),
                                                12: Fraction(1, 8)}
        assert exact_law(STAR2, BIPARTITE, 4) == {0: Fraction(1, 8), 3: Fraction(1, 2),
                                                  4: Fraction(3, 8)}
        assert exact_law(K3, BIPARTITE, 60) == {0: 1}
        assert sum(exact_law(STAR3, CLIQUES, 60).values()) == 1

    def test_refuses_other_kernels(self):
        for W in (as_step_graphon(KernelSpec.two_block_diagonal(0.5)),
                  StepGraphon(np.array([0.25, 0.75]), np.array([[1.0, 0.0], [0.0, 1.0]]))):
            with pytest.raises(ValueError, match="^need "):
                exact_law(STAR2, W, 4)

    @pytest.mark.parametrize("kernel", list(KERNELS))
    @pytest.mark.parametrize("pattern", list(PATTERNS))
    @pytest.mark.parametrize("n", [10, 60, 150])
    def test_mean_is_mean_count(self, kernel, pattern, n):
        H, W = self.PATTERNS[pattern], self.KERNELS[kernel]
        mean = sum(count * p for count, p in exact_law(H, W, n).items())
        assert float(mean) == pytest.approx(mean_count(H, W, n), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_sampled_counts_lie_within_dkw(self, kernel):
        # integer counts, not normalized floats, which can round equal counts apart
        W, n, replicates, alpha = self.KERNELS[kernel], 60, 1000, 1e-3
        samples = (sample_adjacency(W, n, seed) for seed in range(replicates))
        counted = np.array([[count_copies(H, A) for H in self.PATTERNS.values()] for A in samples])
        bound = math.sqrt(math.log(2 / alpha) / (2 * replicates))
        for H, counts in zip(self.PATTERNS.values(), counted.T):
            law = exact_law(H, W, n)
            assert set(counts.tolist()) <= law.keys()  # so the sup is taken at the atoms
            atoms = np.array(list(law))
            cdf = np.cumsum([float(p) for p in law.values()])
            empirical = np.searchsorted(np.sort(counts), atoms, side="right") / replicates
            assert np.max(np.abs(empirical - cdf)) <= bound
