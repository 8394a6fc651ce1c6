"""Acceptance suite.

One test per criterion, each at its stated tolerance, printing a
"[acceptance] <name>: PASS/FAIL" line (visible with pytest -s). The
distributional tests run the full-size Monte Carlo experiments and dominate
the runtime of the whole suite.
"""

import itertools
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from graphonlab import (
    DegenerateGraphonError,
    ExperimentConfig,
    KernelSpec,
    LabeledGraph,
    StepGraphon,
    as_step_graphon,
    conditional_density,
    count_copies,
    discretize,
    dwh,
    hom_density,
    limit_law,
    mean_count,
    regularity_defect,
    run_experiment,
    sample_graph,
    sigma_squared,
    spec_minus,
    spectrum,
    tau_squared,
    two_point_graphon,
)
from conftest import random_step_graphon
from counting_oracles import copy_edge_sets, exhaustive_copy_count
from limit_oracles import (
    average,
    einsum_density,
    strong_edge_join,
    tau_squared_by_joins,
    vertex_join,
    weak_edge_join,
)

K2 = LabeledGraph.complete(2)
K3 = LabeledGraph.complete(3)
STAR2 = LabeledGraph.star(2)
PATH4 = LabeledGraph.path(4)


@pytest.fixture
def criterion(request):
    """Context manager printing one verdict line per criterion, visible even
    under pytest's fd-level capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(line: str) -> None:
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    @contextmanager
    def _criterion(name):
        try:
            yield
        except Exception:
            emit(f"[acceptance] {name}: FAIL")
            raise
        emit(f"[acceptance] {name}: PASS")

    return _criterion


# ---------------------------------------------------------------------------
# exact constants


def test_two_point_kernel_on_two_block(criterion):
    with criterion("two-point kernel of the 2-star on the two-block graphon"):
        for p in (0.3, 0.5, 0.9):
            WH = two_point_graphon(STAR2, as_step_graphon(KernelSpec.two_block_diagonal(p)))
            target = 3 * p * p / 4
            assert abs(WH.values[0, 0] - target) <= 1e-12
            assert abs(WH.values[1, 1] - target) <= 1e-12
            assert WH.values[0, 1] == 0.0
            assert WH.values[1, 0] == 0.0


def test_sigma_squared_two_star_two_block(criterion):
    with criterion("sigma2 of the 2-star on the two-block graphon"):
        for p in (0.3, 0.5, 0.9):
            W = as_step_graphon(KernelSpec.two_block_diagonal(p))
            assert abs(sigma_squared(STAR2, W) - p**3 * (1 - p) / 4) <= 1e-12
        # dyadic p: every intermediate is exact in binary floating point
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.5))
        assert sigma_squared(STAR2, W) == 1 / 64


def test_spectrum_and_degree_removal_two_block(criterion):
    with criterion("spectrum of the derived two-block kernel and its reduction"):
        for p in (0.3, 0.5, 0.9):
            W = as_step_graphon(KernelSpec.two_block_diagonal(p))
            spec = spectrum(two_point_graphon(STAR2, W))
            target = 3 * p * p / 8
            assert spec.eigenvalues.shape == (2,)
            assert np.all(np.abs(spec.eigenvalues - target) <= 1e-10)
            kept = spec_minus(spec, dwh(STAR2, W))
            assert kept.shape == (1,)
            assert abs(kept[0] - target) <= 1e-10


def test_regularity_classifications(criterion):
    with criterion("regularity defects: constants and two-block zero, product positive"):
        const = as_step_graphon(KernelSpec.constant(0.45))
        for H in (K2, STAR2, K3):
            assert regularity_defect(H, const) <= 1e-10
        wtilde = as_step_graphon(KernelSpec.two_block_diagonal(0.5))
        assert regularity_defect(STAR2, wtilde) <= 1e-10
        product = discretize(KernelSpec.product(), 256)
        assert regularity_defect(STAR2, product) > 1e-4


def test_tau_squared_product_against_separable_oracle(criterion):
    with criterion("tau2 of the 2-star on the discretized product kernel"):
        # independent oracle: the self-joins of the 2-star are the 4-star,
        # four center-leaf joins, and four leaf-leaf paths; in xy each vertex
        # of degree d contributes the moment 1/(d+1)
        oracle = (
            Fraction(1, 5) * Fraction(1, 2) ** 4  # degrees 4,1,1,1,1
            + 4 * Fraction(1, 4) * Fraction(1, 3) * Fraction(1, 2) ** 3  # 3,2,1,1,1
            + 4 * Fraction(1, 3) ** 3 * Fraction(1, 2) ** 2  # 2,2,2,1,1
            - 9 * (Fraction(1, 3) * Fraction(1, 2) ** 2) ** 2  # 9 t(2-star)^2
        ) / 4
        assert oracle == Fraction(31, 4320)
        gap_256 = abs(tau_squared(STAR2, discretize(KernelSpec.product(), 256)) - float(oracle))
        gap_512 = abs(tau_squared(STAR2, discretize(KernelSpec.product(), 512)) - float(oracle))
        assert gap_256 <= 1e-3
        assert gap_512 < gap_256


def test_sigma_squared_triangle_constant(criterion):
    with criterion("sigma2 of the triangle on constant kernels"):
        for p in (0.2, 0.5):
            W = as_step_graphon(KernelSpec.constant(p))
            assert abs(sigma_squared(K3, W) - p**5 * (1 - p) / 2) <= 1e-12
        # independent symbolic expansion at p = 1/2: nine ordered edge pairs,
        # each weak join has 5 plain edges, each strong join 6 with the double
        half = Fraction(1, 2)
        symbolic = 2 * Fraction(9) * (half**5 - half**6) / Fraction(36)
        W = as_step_graphon(KernelSpec.constant(0.5))
        assert abs(sigma_squared(K3, W) - float(symbolic)) <= 1e-12


# ---------------------------------------------------------------------------
# identity property suite


def directed_edges(H):
    return [e for a, b in H.sorted_edges() for e in ((a, b), (b, a))]


def test_identity_property_suite(criterion):
    with criterion("join identities, marginalization, alternate variance form, dichotomy"):
        rng = np.random.default_rng(20240817)
        kernels = [random_step_graphon(rng) for _ in range(20)]
        patterns = (K2, STAR2, K3)
        for W in kernels:
            for H in patterns:
                v = H.vertex_count
                copies = [LabeledGraph(v, c) for c in copy_edge_sets(H, range(1, v + 1))]
                g2 = len(copies) ** 2

                # vertex-join identity
                lhs = g2 * sum(
                    einsum_density(vertex_join(H, a, H, b), W)
                    for a in range(1, v + 1)
                    for b in range(1, v + 1)
                )
                rhs = v * v * sum(
                    einsum_density(vertex_join(H1, 1, H2, 1), W) for H1 in copies for H2 in copies
                )
                assert abs(lhs - rhs) <= 1e-10

                # edge-join identities; the copy-summed side pairs every sorted
                # vertex pair with every copy containing it, the single-pattern
                # side runs over ordered pairs of directed edges (gluing is
                # orientation-sensitive for asymmetric patterns)
                vpairs = list(itertools.combinations(range(1, v + 1), 2))
                de = directed_edges(H)
                for join, tag in ((weak_edge_join, "weak"), (strong_edge_join, "strong")):
                    total = 0.0
                    for e in vpairs:
                        for f in vpairs:
                            for H1 in copies:
                                if not H1.has_edge(*e):
                                    continue
                                for H2 in copies:
                                    if not H2.has_edge(*f):
                                        continue
                                    total += einsum_density(join(H1, e, H2, f), W)
                    single = sum(einsum_density(join(H, e, H, f), W) for e in de for f in de)
                    assert abs(total - g2 * single / 4) <= 1e-10, tag

                # marginalization of conditional densities
                t = hom_density(H, W)
                for size in range(1, v + 1):
                    marks = tuple(range(1, size + 1))
                    assert abs(average(conditional_density(H, marks, W), W) - t) <= 1e-10

                # alternate variance forms: tau_squared takes the variance of
                # the summed one-point conditionals; the oracle sums the
                # vertex-join densities
                assert abs(tau_squared(H, W) - tau_squared_by_joins(H, W)) <= 1e-9

                # dichotomy: zero variance exactly when the defect vanishes
                assert (tau_squared(H, W) <= 1e-10) == (regularity_defect(H, W) <= 1e-10)


# ---------------------------------------------------------------------------
# counting oracle


def test_counting_oracle(criterion):
    with criterion("copy counting agrees with exhaustive subset enumeration"):
        rng = np.random.default_rng(424242)
        patterns = (K2, STAR2, K3, PATH4)
        for _ in range(50):
            n = int(rng.integers(5, 11))
            p = float(rng.uniform(0.2, 0.8))
            edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
            G = LabeledGraph.from_edges(n, edges)
            for H in patterns:
                assert count_copies(H, G) == exhaustive_copy_count(H, G)


# ---------------------------------------------------------------------------
# distributional convergence (Monte Carlo, fixed seeds, stated thresholds)


def test_distributional_regular_case(criterion):
    with criterion("regular case: mixture law, KS < 0.08, variance within 25%"):
        config = ExperimentConfig(
            pattern=STAR2,
            kernel=KernelSpec.two_block_diagonal(0.5),
            n=150,
            replicates=2_000,
            reference_draws=100_000,
            master_seed=20240817,
        )
        result = run_experiment(config)
        assert result.law.kind == "mixture"
        limit_variance = 1 / 64 + 2 * (3 / 32) ** 2
        assert result.ks < 0.08
        assert abs(result.empirical_variance - limit_variance) <= 0.25 * limit_variance
        assert result.mean_pass  # empirical mean of the raw count within 4 SE
        assert result.passed


def test_distributional_nonregular_case(criterion):
    with criterion("non-regular case: Gaussian law, KS < 0.08"):
        config = ExperimentConfig(
            pattern=STAR2,
            kernel=KernelSpec.product(),
            discretization=64,
            n=150,
            replicates=2_000,
            reference_draws=100_000,
            master_seed=20240818,
        )
        result = run_experiment(config)
        assert result.law.kind == "gaussian"
        assert result.ks < 0.08
        assert result.mean_pass


# ---------------------------------------------------------------------------
# degenerate handling


def test_degenerate_handling(criterion):
    with criterion("degenerate kernels: structured errors and exact counts"):
        ones = as_step_graphon(KernelSpec.constant(1.0))
        with pytest.raises(DegenerateGraphonError) as err:
            limit_law(K3, ones)
        assert err.value.reason == "complete"

        bipartite = StepGraphon(np.array([0.5, 0.5]), np.array([[0.0, 0.7], [0.7, 0.0]]))
        with pytest.raises(DegenerateGraphonError) as err:
            limit_law(K3, bipartite)
        assert err.value.reason == "pattern_free"

        with pytest.raises(DegenerateGraphonError):
            run_experiment(
                ExperimentConfig(
                    pattern=K3,
                    kernel=KernelSpec.constant(1.0),
                    n=20,
                    replicates=1,
                    reference_draws=1_000,
                    master_seed=1,
                )
            )

        # the all-ones kernel samples the complete graph, so the count is the
        # deterministic maximum
        n = 10
        for seed in (0, 7):
            G = sample_graph(ones, n, seed)
            assert count_copies(K3, G) == math.perm(n, 3) // 6
            assert count_copies(K3, G) == math.comb(n, 3)
        assert mean_count(K3, ones, n) == math.comb(n, 3)
