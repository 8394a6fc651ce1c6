"""Simulate module: KS distance, experiment harness, and the CLI."""

import json
import math
import os
import platform
import signal
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from graphonlab import (
    DegenerateGraphonError,
    ExperimentConfig,
    KernelSpec,
    LabeledGraph,
    LimitLaw,
    as_step_graphon,
    ks_distance,
    limit_law,
    run_experiment,
    sample_limit,
    spectrum,
    two_point_graphon,
)
from graphonlab import cli, graphon, simulate
from graphonlab.cli import main
from graphonlab.simulate import _sample_variance, replicate_seed

STAR2 = LabeledGraph.star(2)
K3 = LabeledGraph.complete(3)

# small but non-degree-regular: Gaussian branch
SKEWED = KernelSpec.custom((0.5, 0.5), [[0.4, 0.5], [0.5, 0.7]])


def merged_support_ks(a, b) -> float:
    """Reference KS statistic: both empirical CDFs at every point of the
    merged sorted support."""
    a_sorted = np.sort(np.asarray(a, dtype=float))
    b_sorted = np.sort(np.asarray(b, dtype=float))
    support = np.concatenate([a_sorted, b_sorted])
    cdf_a = np.searchsorted(a_sorted, support, side="right") / a_sorted.size
    cdf_b = np.searchsorted(b_sorted, support, side="right") / b_sorted.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def cpus(monkeypatch, count: int) -> None:
    """Let this process see `count` CPUs."""
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: set(range(count)))


def small_config(**overrides):
    base = dict(
        pattern=STAR2,
        kernel=KernelSpec.two_block_diagonal(0.5),
        n=40,
        replicates=60,
        reference_draws=2_000,
        master_seed=71,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestKsDistance:
    def test_identical_samples(self):
        a = np.array([0.3, 1.2, -0.5])
        assert ks_distance(a, a.copy()) == 0.0

    def test_disjoint_supports(self):
        assert ks_distance([-3.0, -1.0, -2.0], [1.0, 2.0]) == 1.0

    def test_hand_enumerated_step_functions(self):
        assert ks_distance([1.0, 2.0], [1.5, 2.5]) == 0.5

    def test_empty_input(self):
        with pytest.raises(ValueError):
            ks_distance([], [1.0])

    @pytest.mark.parametrize("a,b", [
        ([math.nan], [1.0]),
        ([1.0, math.nan], [1.0, 2.0, 3.0]),
        ([1.0], [2.0, math.inf]),
        ([-math.inf, 0.0], [1.0]),
        ([0.5], np.append(np.zeros(5000), math.nan)),
    ])
    def test_refuses_non_finite_samples(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            ks_distance(a, b)
        with pytest.raises(ValueError, match="finite"):
            ks_distance(b, a)

    def test_matches_merged_support_evaluation(self):
        rng = np.random.default_rng(17)
        cases = [
            (rng.standard_normal(400), rng.standard_normal(100_000)),
            (rng.standard_normal(9000), rng.standard_normal(50) + 0.3),
            (rng.integers(0, 5, 30).astype(float), rng.integers(0, 7, 5000).astype(float)),
            (rng.integers(0, 3, 3000).astype(float), rng.integers(1, 4, 3000).astype(float)),
            ([2.0], [1.0, 2.0, 2.0, 3.0]),
            ([5.0, 5.0], [5.0]),
        ]
        for _ in range(30):
            size_a, size_b = rng.integers(1, 60, 2)
            cases.append((rng.integers(-4, 4, size_a) / 3.0, rng.integers(-4, 4, size_b) / 3.0))
        # the larger sample fills chunks of _KS_CHUNK = 4096 exactly, with one
        # to spare or one short; runs of a smaller-sample value straddle the
        # chunk boundary, so its ties are counted in two chunks
        for size in (4095, 4096, 4097, 8192):
            small = rng.integers(0, 6, 40).astype(float) / 7.0
            large = rng.integers(0, 8, size).astype(float) / 7.0
            large[4090:4100] = small[0]
            large[-3:] = small[-1]
            cases.append((small, large))
            cases.append((np.repeat(small[:3], 2), np.sort(large)))
        for a, b in cases:
            assert ks_distance(a, b) == merged_support_ks(a, b)
            assert ks_distance(b, a) == merged_support_ks(a, b)

    def test_two_reference_samples_are_close(self):
        # calibrates the acceptance threshold: same law, different streams
        law = LimitLaw.mixture(1 / 64, (3 / 32,), 3)
        a = sample_limit(law, seed=100, count=10_000)
        b = sample_limit(law, seed=200, count=10_000)
        assert ks_distance(a, b) < 0.03


def test_sample_variance_matches_numpy():
    rng = np.random.default_rng(23)
    for size in (2, 3, 127, 129, 4097, 100_000):
        x = rng.standard_normal(size) * 3.0 + 1.5
        expected = float(np.var(x, ddof=1))
        assert _sample_variance(x.copy()) == expected


class TestConfig:
    def test_json_round_trip(self):
        cfg = small_config()
        again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert again == cfg
        # every field off its default, the kernel a custom grid
        off = small_config(kernel=SKEWED, pattern=K3, n=41, replicates=61, master_seed=72,
                           discretization=17, reference_draws=2_001, regularity_tol=1e-9,
                           ks_threshold=0.07, variance_band=0.3)
        for f in fields(off):
            assert getattr(off, f.name) not in (getattr(cfg, f.name), f.default), f.name
        data = off.to_json_dict()
        assert set(data) == {f.name for f in fields(ExperimentConfig)} | {"schema_version"}
        assert ExperimentConfig.from_json_dict(json.loads(json.dumps(data))) == off

    def test_rejects_unknown_schema_version(self):
        data = small_config().to_json_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError):
            ExperimentConfig.from_json_dict(data)

    def test_rejects_small_reference_sample(self):
        with pytest.raises(ValueError):
            small_config(reference_draws=10)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            small_config(n=2)

    @pytest.mark.parametrize("value", [math.nan, -1.0, -1e-300, math.inf])
    def test_rejects_bad_regularity_tol(self, value):
        with pytest.raises(ValueError, match="regularity_tol"):
            small_config(regularity_tol=value)

    @pytest.mark.parametrize("value", [math.nan, 0.0, -0.1, 1.0 + 1e-12, math.inf])
    def test_rejects_bad_ks_threshold(self, value):
        with pytest.raises(ValueError, match="ks_threshold"):
            small_config(ks_threshold=value)

    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, math.inf])
    def test_rejects_bad_variance_band(self, value):
        with pytest.raises(ValueError, match="variance_band"):
            small_config(variance_band=value)

    def test_accepts_tolerances_at_their_bounds(self):
        small_config(regularity_tol=0.0, ks_threshold=1.0, variance_band=1e-300)
        small_config(ks_threshold=1e-9, variance_band=5.0)

    def test_rejects_nan_tolerance_from_json(self):
        data = small_config().to_json_dict()
        data["regularity_tol"] = "nan"
        with pytest.raises(ValueError, match="regularity_tol"):
            ExperimentConfig.from_json_dict(data)

    @pytest.mark.parametrize(
        "key,value",
        [("n", 60.9), ("master_seed", True), ("replicates", "6"), ("ks_treshold", 0.5),
         ("variance_band", 10**400)],
        ids=["n-60.9", "master_seed-True", "replicates-6", "ks_treshold-0.5",
             "variance_band-10**400"],
    )
    def test_rejects_fields_it_would_change_or_ignore(self, key, value):
        data = small_config().to_json_dict()
        data[key] = value
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_json_dict(data)

    @pytest.mark.parametrize("key", ["pattern", "kernel", "n", "replicates", "master_seed"])
    def test_refuses_a_missing_required_key(self, key):
        data = small_config().to_json_dict()
        del data[key]
        with pytest.raises(ValueError, match=f"missing .*'{key}'"):
            ExperimentConfig.from_json_dict(data)

    def test_accepts_integral_floats(self):
        data = small_config().to_json_dict()
        data.update(n=40.0, master_seed=71.0)
        assert ExperimentConfig.from_json_dict(data) == small_config()

    def test_refuses_n_whose_counts_leave_exact_floats(self):
        # 98^8 < 2^53 <= 99^8; the configs are only built, never run
        eight = LabeledGraph.path(7)
        assert small_config(pattern=eight, n=98).n == 98
        with pytest.raises(ValueError, match="2\\^53"):
            small_config(pattern=eight, n=99)

    @pytest.mark.parametrize(
        "name", ["quick_smoke", "two_star_product", "two_star_two_block"]
    )
    def test_shipped_configs_load(self, name):
        path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
        ExperimentConfig.from_json_dict(json.loads(path.read_text(encoding="utf-8")))


class TestRunExperiment:
    def test_mixture_branch_smoke(self):
        result = run_experiment(small_config())
        assert result.law.kind == "mixture"
        assert len(result.records) == 60
        assert result.ks <= 1.0
        assert result.records[0].seed == replicate_seed(71, 0)

    def test_gaussian_branch_smoke(self):
        result = run_experiment(small_config(kernel=SKEWED, pattern=STAR2, n=30))
        assert result.law.kind == "gaussian"
        assert result.law.tau2 > 0

    def test_byte_identical_reruns(self):
        cfg = small_config()
        a = run_experiment(cfg).to_canonical_json()
        b = run_experiment(cfg).to_canonical_json()
        assert a == b

    def test_worker_pool_matches_serial(self, monkeypatch):
        cfg = small_config(replicates=24, n=25)
        serial = run_experiment(cfg).to_canonical_json()
        monkeypatch.setenv("GRAPHONLAB_THREADS", "3")
        cpus(monkeypatch, 3)
        pooled = run_experiment(cfg).to_canonical_json()
        assert pooled == serial
        # 5 replicates over 2 workers: chunks of 3 and 2
        cfg = small_config(replicates=5, n=25)
        monkeypatch.delenv("GRAPHONLAB_THREADS")
        serial = run_experiment(cfg)
        monkeypatch.setenv("GRAPHONLAB_THREADS", "2")
        pooled = run_experiment(cfg)
        assert [r.raw_count for r in pooled.records] == [r.raw_count for r in serial.records]
        assert pooled.to_canonical_json() == serial.to_canonical_json()

    def test_the_pool_forks_one_process_fewer_than_the_workers(self, fresh_pool, monkeypatch):
        # the calling process counts the first chunk itself; a pool is built
        # once per size and kept for later calls of that size
        built = []

        class Pool(simulate.ProcessPoolExecutor):
            def __init__(self, max_workers, **options):
                built.append(max_workers)
                super().__init__(max_workers, **options)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", Pool)
        cpus(monkeypatch, 3)
        for threads in ("1", "2", "2", "3", "3", "1"):
            monkeypatch.setenv("GRAPHONLAB_THREADS", threads)
            run_experiment(small_config(replicates=7, n=25))
        assert built == [1, 2]
        monkeypatch.setenv("GRAPHONLAB_THREADS", "2")
        run_experiment(small_config(replicates=7, n=25))
        assert built == [1, 2, 1]

    def test_a_pool_of_another_size_is_shut_down_first(self, fresh_pool, monkeypatch):
        cpus(monkeypatch, 3)
        monkeypatch.setenv("GRAPHONLAB_THREADS", "2")
        run_experiment(small_config(replicates=7, n=25))
        old = simulate._kept[1]
        pid = old.submit(os.getpid).result()
        monkeypatch.setenv("GRAPHONLAB_THREADS", "3")
        run_experiment(small_config(replicates=7, n=25))
        assert simulate._kept[0] == 2 and simulate._kept[1] is not old
        with pytest.raises(RuntimeError, match="after shutdown"):
            old.submit(os.getpid)
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # joined: no longer a child of this process

    def test_the_caller_counts_the_first_chunk(self, fresh_pool, monkeypatch):
        # samples drawn in the pool's processes are not seen here
        seen, original = [], simulate.sample_adjacency
        monkeypatch.setattr(simulate, "sample_adjacency",
                            lambda W, n, seed: seen.append(seed) or original(W, n, seed))
        cpus(monkeypatch, 3)
        for threads, chunk in (("2", 4), ("3", 3)):  # 7 replicates in chunks of 4, 3 / 3, 3, 1
            seen.clear()
            monkeypatch.setenv("GRAPHONLAB_THREADS", threads)
            run_experiment(small_config(replicates=7, n=25))
            assert seen == [replicate_seed(71, i) for i in range(chunk)]

    @pytest.mark.parametrize("where", ["caller", "worker"])
    def test_an_exception_while_counting_propagates(self, where, fresh_pool, monkeypatch):
        # fresh_pool: the worker is forked after the patch, so it counts with it
        caller, original = os.getpid(), simulate.count_copies

        def count(H, A):
            if (os.getpid() == caller) == (where == "caller"):
                raise ArithmeticError(f"count failed in the {where}")
            return original(H, A)

        monkeypatch.setattr(simulate, "count_copies", count)
        monkeypatch.setenv("GRAPHONLAB_THREADS", "2")
        cpus(monkeypatch, 2)
        with pytest.raises(ArithmeticError, match=f"count failed in the {where}"):
            run_experiment(small_config(replicates=7, n=25))

    def test_a_killed_worker_fails_its_call_and_the_next_call_forks_afresh(
            self, fresh_pool, tmp_path, monkeypatch):
        cfg = small_config(replicates=7, n=25)
        monkeypatch.delenv("GRAPHONLAB_THREADS", raising=False)
        _, serial = run_experiment(cfg).write(tmp_path / "serial")
        monkeypatch.setenv("GRAPHONLAB_THREADS", "2")
        cpus(monkeypatch, 2)
        run_experiment(cfg)  # forks the kept worker
        os.kill(simulate._kept[1].submit(os.getpid).result(), signal.SIGKILL)
        with pytest.raises(BrokenProcessPool):
            run_experiment(cfg)
        assert simulate._kept is None
        _, pooled = run_experiment(cfg).write(tmp_path / "pooled")
        assert pooled.read_bytes() == serial.read_bytes()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not Path("/proc/self/stat").exists(),
                        reason="counts a glibc worker's page faults in /proc")
    def test_a_kept_worker_reuses_its_heap_pages(self):
        # a fresh process that has freed no large block forks the pool; its
        # worker then faults in pages for each replicate's temporaries anew
        # (about 3,400 faults for these 30 replicates) unless it keeps them
        script = textwrap.dedent("""
            import os
            os.environ["GRAPHONLAB_THREADS"] = "2"
            os.sched_getaffinity = lambda pid: {0, 1}
            from graphonlab import ExperimentConfig, KernelSpec, LabeledGraph, simulate
            config = ExperimentConfig(
                pattern=LabeledGraph.complete(3), kernel=KernelSpec.two_block_diagonal(0.5),
                n=150, replicates=60, master_seed=1, reference_draws=1000)
            simulate.run_experiment(config)
            pid = simulate._kept[1].submit(os.getpid).result()

            def faults():
                with open(f"/proc/{pid}/stat") as stat:
                    return int(stat.read().rsplit(")", 1)[1].split()[7])

            before = faults()
            simulate.run_experiment(config)
            print(faults() - before)
        """)
        src = str(Path(simulate.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) < 300

    def test_threads_sharing_the_kept_pool_get_serial_counts(self, fresh_pool, monkeypatch):
        # 2 and 7 replicates need pools of 1 and 2 workers, so concurrent
        # calls resize the one kept pool
        configs = [small_config(replicates=r, n=25) for r in (2, 7)]
        serial = [run_experiment(cfg).to_canonical_json() for cfg in configs]
        monkeypatch.setenv("GRAPHONLAB_THREADS", "3")
        cpus(monkeypatch, 3)
        with ThreadPoolExecutor(2) as threads:
            runs = [threads.submit(run_experiment, configs[i % 2]) for i in range(8)]
            got = [run.result(timeout=120).to_canonical_json() for run in runs]
        assert got == serial * 4

    def test_replicates_csv_is_byte_identical_for_1_2_and_3_workers(self, tmp_path, monkeypatch):
        cpus(monkeypatch, 3)
        written = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("GRAPHONLAB_THREADS", threads)
            _, csv_path = run_experiment(small_config(replicates=7, n=25)).write(tmp_path / threads)
            written.append(csv_path.read_bytes())
        assert written[0] == written[1] == written[2]
        assert written[0].count(b"\n") == 8  # the header and 7 replicates

    def test_edgeless_pattern_raises_before_sampling(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(simulate, "sample_adjacency", refuse)
        with pytest.raises(DegenerateGraphonError, match="pattern has no edges"):
            run_experiment(small_config(pattern=LabeledGraph(3, frozenset())))

    def test_degenerate_kernel_raises(self):
        with pytest.raises(DegenerateGraphonError):
            run_experiment(small_config(kernel=KernelSpec.constant(1.0), pattern=K3))

    def test_count_above_complete_graph_bound_raises(self, monkeypatch):
        # K_40 holds (40)_3 / |Aut star2| = 40 * C(39, 2) two-stars
        bound = math.perm(40, 3) // 2
        monkeypatch.delenv("GRAPHONLAB_THREADS", raising=False)
        monkeypatch.setattr(simulate, "count_copies", lambda H, A: bound)
        assert {r.raw_count for r in run_experiment(small_config(replicates=4)).records} == {bound}
        monkeypatch.setattr(simulate, "count_copies", lambda H, A: bound + 1)
        with pytest.raises(RuntimeError, match="complete-graph bound"):
            run_experiment(small_config(replicates=4))

    def test_variance_gap_shrinks_with_n(self):
        # Gaussian branch for the edge pattern; counting is cheap, so the
        # finite-size bias trend over n is visible above Monte Carlo noise.
        K2 = LabeledGraph.complete(2)
        gaps = []
        for n in (50, 100, 200):
            per_rep = []
            for rep in range(5):
                cfg = ExperimentConfig(
                    pattern=K2,
                    kernel=SKEWED,
                    n=n,
                    replicates=1_000,
                    reference_draws=2_000,
                    master_seed=900 + rep,
                )
                result = run_experiment(cfg)
                per_rep.append(abs(result.empirical_variance - result.law.variance))
            gaps.append(float(np.median(per_rep)))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_failing_threshold_is_reported(self):
        result = run_experiment(small_config(ks_threshold=1e-9))
        assert not result.ks_pass
        assert not result.passed


class TestWorkerCount:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("GRAPHONLAB_THREADS", raising=False)
        cpus(monkeypatch, 8)
        assert simulate._worker_count(100) == 1

    @pytest.mark.parametrize("raw", ["0", "-1", "-64"])
    def test_refuses_fewer_than_one(self, raw, monkeypatch):
        monkeypatch.setenv("GRAPHONLAB_THREADS", raw)
        with pytest.raises(ValueError, match="GRAPHONLAB_THREADS must be >= 1"):
            simulate._worker_count(100)

    def test_refuses_a_non_integer(self, monkeypatch):
        monkeypatch.setenv("GRAPHONLAB_THREADS", "two")
        with pytest.raises(ValueError, match="must be an integer"):
            simulate._worker_count(100)

    @pytest.mark.parametrize("raw,cpu_count,replicates,workers", [
        ("2000", 2, 2000, 2),
        ("2000", 3, 2000, 3),
        ("2", 3, 2000, 2),
        ("3", 8, 2, 2),
    ])
    def test_capped_at_cpus_and_replicates(self, raw, cpu_count, replicates, workers,
                                           monkeypatch):
        monkeypatch.setenv("GRAPHONLAB_THREADS", raw)
        cpus(monkeypatch, cpu_count)
        assert simulate._worker_count(replicates) == workers

    @pytest.mark.parametrize("cpu_count,workers", [(3, 3), (None, 1)])
    def test_without_affinity_capped_at_the_machine_cpus(self, cpu_count, workers, monkeypatch):
        # os.sched_getaffinity does not exist on macOS and Windows, and
        # os.cpu_count may not know
        monkeypatch.delattr(simulate.os, "sched_getaffinity")
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpu_count)
        monkeypatch.setenv("GRAPHONLAB_THREADS", "8")
        assert simulate._worker_count(100) == workers
        monkeypatch.delenv("GRAPHONLAB_THREADS")
        assert len(run_experiment(small_config(replicates=2)).records) == 2


class TestOutputs:
    def test_writes_result_and_csv(self, tmp_path):
        result = run_experiment(small_config(replicates=10))
        result_path, csv_path = result.write(tmp_path / "out")
        data = json.loads(result_path.read_text())
        assert data["schema_version"] == 1
        # star2 on two_block:0.5: sigma2 = 1/64 and one chi-square weight 3/32
        assert data["limit_law"] == {
            "kind": "mixture",
            "sigma2": 1 / 64,
            "lambdas": [pytest.approx(3 / 32, rel=1e-15)],
            "scale_exponent": 2.0,
        }
        assert len(data["records"]) == 10
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "replicate,seed,raw_count,normalized"
        assert len(lines) == 11
        # floats round-trip exactly through the CSV
        first = lines[1].split(",")
        assert float(first[3]) == data["records"][0]["normalized"]


class TestCli:
    def test_density_constant(self, capsys):
        assert main(["density", "--pattern", "k2", "--kernel", "constant:0.3"]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.3

    def test_constants_two_block(self, capsys):
        code = main(["constants", "--pattern", "star2", "--kernel", "two_block:0.5"])
        out = capsys.readouterr().out
        assert code == 0
        law = limit_law(STAR2, as_step_graphon(KernelSpec.two_block_diagonal(0.5)))
        assert f"sigma2 = {law.sigma2!r}" in out
        assert f"spec_minus = {list(law.lambdas)!r}" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--pattern", "k1", "--kernel", "constant:0.3"],  # no edges: degenerate
            ["--pattern", "k1", "--kernel", "product", "--m", "8"],  # refused before refinement
            ["--pattern", "k3", "--kernel", "constant:1.0"],  # degenerate kernel
            ["--pattern", "cycle2", "--kernel", "constant:0.3"],  # no such cycle
        ],
        ids=["k1-constant", "k1-product", "k3-all-ones", "cycle2"],
    )
    def test_constants_failure_prints_nothing(self, argv, capsys):
        assert main(["constants", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip()

    @pytest.mark.parametrize("pattern,kernel,kept", [
        ("k4", "constant:0.01", 0), ("k4", "two_block:0.02", 1), ("k5", "two_block:0.1", 1),
    ])
    def test_constants_on_sparse_regular_kernels_exit_0(self, pattern, kernel, kept, capsys):
        # t is 1e-12 to 8e-12 here: every eigenvalue lies below an absolute 1e-10
        assert main(["constants", "--pattern", pattern, "--kernel", kernel]) == 0
        out = capsys.readouterr().out
        assert "regular = true" in out
        H = cli._load_pattern(pattern)
        law = limit_law(H, as_step_graphon(cli._load_kernel(kernel)))
        assert len(law.lambdas) == kept
        assert f"spec_minus = {list(law.lambdas)!r}" in out

    def test_constants_product_reports_refinement(self, capsys):
        code = main(
            ["constants", "--pattern", "star2", "--kernel", "product", "--m", "32"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "refined_m = 64" in out
        assert "refined_tau2" in out

    def test_regularity_verdicts(self, capsys):
        assert main(["regularity", "--pattern", "star2", "--kernel", "two_block:0.5"]) == 0
        assert "regular = true" in capsys.readouterr().out
        assert main(["regularity", "--pattern", "star2", "--kernel", "product", "--m", "64"]) == 0
        assert "regular = false" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["regularity", "--pattern", "k2", "--kernel", "product", "--m", "8"],
            ["constants", "--pattern", "star2", "--kernel", "two_block:0.5"],
        ],
        ids=["regularity", "constants"],
    )
    def test_tolerance_must_be_finite_and_nonnegative(self, argv, tol, capsys):
        # NaN compares false, a negative bound is never met and inf always
        # is, so each would print the same verdict for every kernel
        assert main([*argv, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        def refuse(spec, m):
            raise MemoryError(f"Unable to allocate {8 * m * m} bytes for an {m} x {m} kernel")

        monkeypatch.setattr(graphon, "discretize", refuse)
        assert main(["spectrum", "--kernel", "product", "--m", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate")

    def test_spectrum_json(self, capsys):
        assert main(["spectrum", "--kernel", "two_block:0.5", "--pattern", "star2"]) == 0
        data = json.loads(capsys.readouterr().out)
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.5))
        assert data == spectrum(two_point_graphon(STAR2, W)).to_json_dict()
        assert data["pi"] == [0.5, 0.5]

    @pytest.mark.parametrize("option,data", [
        ("pattern", {"n": 3, "edges": [1]}),
        ("pattern", [1, 2]),
        ("pattern", {"n": 3, "edges": [[1, 2], [2, 1]]}),
        ("pattern", {"n": 3, "edges": [[1, 2], [1, 2]]}),
        ("kernel", {"pi": 1, "B": 2}),
        ("kernel", [[0.5]]),
        ("kernel", {"pi": [math.nan, 1.0], "B": [[0.5, 0.5], [0.5, 0.5]]}),
        ("kernel", {"kind": "two_block", "p": 0.5}),  # the kind on the command line wins
        ("kernel", {"pi": [0.5, 0.5], "B": [[1.5, 0.2], [0.2, 0.3]]}),
        ("config", [1]),
        ("config", dict(small_config().to_json_dict(), pattern=[1])),
    ], ids=["edge-not-a-pair", "pattern-list", "edge-reversed-repeat", "edge-repeat",
            "kernel-scalars", "kernel-list",
            "kernel-nan-weight", "kernel-other-kind", "kernel-value-above-one", "config-list",
            "config-pattern-list"])
    def test_malformed_json_exits_2(self, option, data, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        argv = {
            "pattern": ["density", "--pattern", str(path), "--kernel", "constant:0.5"],
            # density computes on any kernel it is given, so a kernel refused
            # here is refused when it is read
            "kernel": ["density", "--pattern", "k2", "--kernel", f"custom:{path}"],
            "config": ["simulate", "--config", str(path), "--out", str(tmp_path / "out")],
        }[option]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("ref", ["constant", "product:0.3", "ring:0.2", "nonsense",
                                     "constant:nan", "constant:inf"])
    def test_bad_kernel_exits_2_with_the_config_message(self, ref, tmp_path, capsys):
        # --kernel and a config file's "kernel" are refused by the same check,
        # which names every kind and its keys, or the kind of a value that is
        # not finite
        assert main(["density", "--pattern", "k2", "--kernel", ref]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if ref.startswith("constant:"):
            assert captured.err.startswith("error: constant kernel p must be a finite number")
        else:
            assert captured.err.startswith("error: a kernel is an object")
            assert "(constant: p; product: none; two_block: p; custom: pi, B)" in captured.err
        assert captured.err.count("\n") == 1
        kind, sep, p = ref.partition(":")
        kernel = {"kind": kind, **({"p": float(p)} if sep else {})}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(dict(small_config().to_json_dict(), kernel=kernel)))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == captured.err

    @pytest.mark.parametrize("ref", ["constant:", "custom:"])
    def test_empty_kernel_arg_exits_2(self, ref, capsys):
        # an empty ARG would otherwise be read as the file "", the working directory
        assert main(["density", "--pattern", "k2", "--kernel", ref]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --kernel {ref!r}: the ARG after ':' is empty\n"

    @pytest.mark.parametrize("kernel", ["constant:0.3", "product"])
    def test_fewer_than_one_cell_exits_2(self, kernel, capsys):
        for command in ("density", "regularity", "constants", "spectrum"):
            with pytest.raises(SystemExit) as err:
                main([command, "--pattern", "k2", "--kernel", kernel, "--m", "0"])
            assert err.value.code == 2
            assert "argument --m: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["density", "regularity", "constants"])
    def test_abc_cells_exits_2_naming_the_option(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--pattern", "k2", "--kernel", "product", "--m", "abc"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "argument --m: must be a positive integer, got 'abc'" in stderr
        assert "_cells" not in stderr

    @pytest.mark.parametrize("ref", ["", "."], ids=["empty", "dot"])
    def test_directory_pattern_is_refused_as_a_name(self, ref, capsys):
        # Path("") and Path(".") are the working directory, not a pattern file
        assert main(["density", "--pattern", ref, "--kernel", "constant:0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: pattern {ref!r} is neither a file nor a builtin name\n"

    @pytest.mark.parametrize("command", ["regularity", "constants"])
    def test_edgeless_pattern_exits_2_as_degenerate(self, command, capsys):
        assert main([command, "--pattern", "k1", "--kernel", "product", "--m", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("degenerate input: pattern has no edges")

    def test_constants_print_the_same_text_from_cold_and_warm_grids(self, capsys):
        # the constants calls of the exact_constants benchmark: each on grids
        # built afresh, then on grids kept from the call before and from itself
        calls = [*((name, "256") for name in ("k2", "star2", "k3", "path3", "star3", "cycle4")),
                 ("k4", "4")]

        def printed(name: str, m: str) -> str:
            assert main(["constants", "--pattern", name, "--kernel", "product", "--m", m]) == 0
            return capsys.readouterr().out

        cold = []
        for name, m in calls:
            graphon.discretize.cache_clear()
            cold.append(printed(name, m))
        warm = [[printed(name, m), printed(name, m)] for name, m in calls]
        assert warm == [[text, text] for text in cold]

    def test_a_warm_repeat_builds_no_grid_and_no_product(self, capsys):
        argv = ["constants", "--pattern", "k3", "--kernel", "product", "--m", "64"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        misses = graphon.discretize.cache_info().misses
        grids = [graphon.discretize(KernelSpec.product(), m) for m in (64, 128)]
        kept = [dict(W._two_steps) for W in grids]
        assert all(kept)
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert graphon.discretize.cache_info().misses == misses
        for W, products in zip(grids, kept):
            assert W._two_steps.keys() == products.keys()
            assert all(W._two_steps[key] is P for key, P in products.items())

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # a refused call, or a --tol given once, leaves the next call as a
        # fresh parser would leave it
        kernel = tmp_path / "near_regular.json"  # star2 defect 1.7e-4
        kernel.write_text(json.dumps({"pi": [0.5, 0.5], "B": [[0.5, 0.5], [0.5, 0.501]]}))
        argv = ["regularity", "--pattern", "star2", "--kernel", f"custom:{kernel}"]
        refused = [["density", "--pattern", "k2", "--kernel", "product", "--m", "0"],
                   ["constants", "--pattern", "k2"]]

        def run(args) -> tuple:
            try:
                code = main(args)
            except SystemExit as refusal:
                code = refusal.code
            return (code, *capsys.readouterr())

        cli._build_parser.cache_clear()
        fresh = [run(argv), *map(run, refused)]
        assert [result[0] for result in fresh] == [0, 2, 2]
        assert "regular = false" in fresh[0][1]
        for args, expected in zip(refused, fresh[1:]):
            assert run(args) == expected
            assert run(argv) == fresh[0]
        tolerant = run([*argv, "--tol", "1e-3"])
        assert tolerant[0] == 0 and "regular = true" in tolerant[1]
        assert run(argv) == fresh[0]
        assert cli._build_parser.cache_info().misses == 1

    def test_pattern_file_loading(self, tmp_path, capsys):
        pattern_path = tmp_path / "k2.json"
        pattern_path.write_text(json.dumps({"n": 2, "edges": [[1, 2]]}))
        assert main(["density", "--pattern", str(pattern_path), "--kernel", "constant:0.25"]) == 0
        assert float(capsys.readouterr().out.strip()) == 0.25

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [10**30, 10**400], ids=["1e30", "1e400"])
    def test_oversized_n_exits_2_before_running(self, n, tmp_path, monkeypatch, capsys):
        def refuse(config):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        root = Path(__file__).resolve().parents[1]
        data = json.loads((root / "configs" / "quick_smoke.json").read_text(encoding="utf-8"))
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(dict(data, n=n)))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_threads_below_one_exits_2(self, raw, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GRAPHONLAB_THREADS", raw)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(small_config(replicates=4, n=20).to_json_dict()))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "GRAPHONLAB_THREADS must be >= 1" in capsys.readouterr().err

    def test_degenerate_config_exits_2(self, tmp_path, capsys):
        cfg = small_config(kernel=KernelSpec.constant(1.0), pattern=K3)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg.to_json_dict()))
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "degenerate" in capsys.readouterr().err

    def test_simulate_end_to_end(self, tmp_path, capsys):
        cfg = small_config(replicates=30, n=30, ks_threshold=0.9, variance_band=5.0)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg.to_json_dict()))
        out_dir = tmp_path / "results"
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "result.json").exists()
        assert (out_dir / "replicates.csv").exists()

    def test_simulate_failed_check_exits_1(self, tmp_path):
        cfg = small_config(replicates=30, n=30, ks_threshold=1e-9)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg.to_json_dict()))
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        rows = len(cli._closed_forms())
        assert out.count("ok - ") == rows >= 18
        assert out.endswith(f"PASS: {rows} ok, 0 failed\n")

    def test_selftest_fails_on_a_wrong_expected_value(self, monkeypatch, capsys):
        row = next(r for r in cli._closed_forms() if r.name == "sigma2 of star2 on two_block:0.5")
        wrong = row._replace(expected=np.nextafter(row.expected, 1.0))
        assert row.holds() and not wrong.holds()
        monkeypatch.setattr(cli, "_closed_forms", lambda: [row, wrong])
        assert main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert out.endswith(f"FAIL - {row.name}\nFAIL: 1 ok, 1 failed\n")
