"""Acceptance suite.

One test per criterion, and one case per row of the closed-form table that
`graphonlab selftest` runs, each at its stated tolerance, printing a
"[acceptance] <name>: PASS/FAIL" line (visible with pytest -s). The
distributional tests run the full-size Monte Carlo experiments and dominate
the runtime of the whole suite.
"""

import hashlib
import itertools
import math
from contextlib import contextmanager
from pathlib import Path

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
    hom_density,
    limit_law,
    mean_count,
    regularity_defect,
    run_experiment,
    sample_graph,
    tau_squared,
)
from graphonlab import simulate
from graphonlab.cli import main
from conftest import CLOSED_FORMS, random_step_graphon
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
# exact constants: the closed-form table that `graphonlab selftest` runs


@pytest.mark.parametrize("row", CLOSED_FORMS.values(), ids=list(CLOSED_FORMS))
def test_closed_form(row, criterion):
    with criterion(row.name):
        assert row.holds(), f"{row.name}: expected {row.expected!r} within {row.tol!r}"


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
        limit_variance = result.law.variance
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
# byte-identical outputs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# sha256 of result.json and replicates.csv for each shipped config; a change
# that moves any of them changes what the harness reports.
GOLDEN = {
    "quick_smoke": (
        "8f59d79167f544938e44b152aebfdea18d767dbf51e71661a14bdb99ab6860a6",
        "4c52590d2711bee32b956b06a4f3d25146bb96431c5eca52aee8ee0ca4aefef5",
    ),
    "two_star_product": (
        "07c63d050f702d42668e53aefcc4efa7321d311e62f162d7fd5b899601762b6d",
        "dcb1f854f800e41b083915635707dc0795dd01f3cb2d2afe3d1e160cecb9f137",
    ),
    "two_star_two_block": (
        "dcae4143c9e8ea30cb94acda450607f120b39b55f315c0f0a1a12b1b0a5d1196",
        "d8050d25840bb4b9c7e1674a5e2007909e8967a18b278787d593bcc3a799c45c",
    ),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(name, threads, criterion, monkeypatch, tmp_path, capsys):
    with criterion(f"{name} outputs byte-identical with {threads} worker(s)"):
        monkeypatch.setenv("GRAPHONLAB_THREADS", threads)
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1})
        assert main(["simulate", "--config", str(CONFIGS / f"{name}.json"),
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                        for f in ("result.json", "replicates.csv"))
        assert digests == GOLDEN[name]


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
