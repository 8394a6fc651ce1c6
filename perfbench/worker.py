"""One benchmark process: set up, run the workload's timed units, check the
outputs, and print a JSON line for run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

run.py starts this with the worker count and BLAS threads in the
environment; `--setup-only` stops once set-up is done, to sample set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"


class Unit(NamedTuple):
    traced: bool
    wall: float
    cpu: float
    outputs: dict
    spans: list


def import_graphonlab():
    """graphonlab from this checkout's src/, never an installed copy."""
    if not (SRC / "graphonlab" / "__init__.py").is_file():
        raise SystemExit(f"no graphonlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphonlab

    if SRC.resolve() not in Path(graphonlab.__file__).resolve().parents:
        raise SystemExit(f"graphonlab imported from {graphonlab.__file__}, not {SRC}")
    return graphonlab


def warm_up(gl) -> None:
    """One call per module on a tiny input, so lazy imports and LAPACK
    set-up land in set-up time rather than in the first timed unit."""
    from graphonlab import cli

    star2 = gl.LabeledGraph.star(2)
    W = gl.as_step_graphon(gl.KernelSpec.two_block_diagonal(0.5))
    gl.discretize(gl.KernelSpec.product(), 4)
    gl.count_copies(star2, gl.sample_graph(W, 8, 0))
    gl.two_point_graphon(star2, W)
    gl.spectrum(W)
    gl.sample_limit(gl.limit_law(star2, W), 0, 1000)
    config = gl.ExperimentConfig(pattern=star2, kernel=gl.KernelSpec.two_block_diagonal(0.5),
                                 n=8, replicates=1, master_seed=0, reference_draws=1000)
    gl.run_experiment(config)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["density", "--pattern", "k2", "--kernel", "constant:0.3"])


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Larger of this process's and its workers' maximum RSS (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def same(expected, got) -> bool:
    """Equal, with floats allowed 1e-12 relative difference."""
    if isinstance(expected, dict) and isinstance(got, dict):
        return expected.keys() == got.keys() and all(same(expected[k], got[k]) for k in expected)
    if isinstance(expected, (list, tuple)) and isinstance(got, (list, tuple)):
        return len(expected) == len(got) and all(same(a, b) for a, b in zip(expected, got))
    if isinstance(expected, float) or isinstance(got, float):
        if isinstance(expected, bool) or isinstance(got, bool) or expected is None or got is None:
            return False
        return math.isclose(expected, got, rel_tol=1e-12, abs_tol=0.0)
    return type(expected) is type(got) and expected == got


def load_references(workload: str, seed: int) -> tuple[dict, dict | None, str]:
    """(seed-free references, references for this seed or None, and which
    kind of check the run gets: seed, held-out or seed-free)."""
    data = json.loads((REFS / f"{workload}.json").read_text(encoding="utf-8"))
    seeded = data["seeds"].get(str(seed))
    kind = "seed" if seeded else "held-out" if data["seeds"] else "seed-free"
    return data["seed_free"], seeded, kind


def check_unit(wl, outputs: dict, seed_free: dict, seeded: dict | None,
               first: dict | None) -> tuple[int, list[str]]:
    """Failed operations of one unit and why.

    Ops and summaries are compared with the seed-free references, and with
    the seed's references when there are any, else with the first unit of
    the run (so repeated, traced and untraced units must agree). A summary
    that differs counts as one failed operation; only the fields present in
    a reference are compared, so fields added to a result do not fail.
    """
    expected = [seed_free, seeded or first] if (seeded or first) else [seed_free]
    failed, why = 0, []
    for key in wl.expected_ops():
        got = outputs["ops"].get(key)
        refs = [e["ops"][key] for e in expected if key in e["ops"]]
        if got is None or not all(same(ref, got) for ref in refs):
            failed += 1
            why.append(f"{key}: expected {refs[0] if refs else 'an output'!r}, got {got!r}")
    for name, got in outputs["summaries"].items():
        refs = [e["summaries"][name] for e in expected if name in e["summaries"]]
        if not all(k in got and same(v, got[k]) for ref in refs for k, v in ref.items()):
            failed += 1
            why.append(f"{name}: summary differs from its reference")
    if seeded is None:
        bad = wl.held_out_failures(outputs)
        failed += len(bad)
        why += bad
    return failed, why


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not args.setup_only and (args.seconds is None or args.trace is None):
        parser.error("--seconds and --trace are required unless --setup-only is given")

    gl = import_graphonlab()
    import workloads
    import spans

    warm_up(gl)
    workers = int(os.environ.get("GRAPHONLAB_THREADS", "1"))
    wl = workloads.make(gl, args.workload, args.seed)
    ready = time.time()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    out_dir = HERE / ".work" / str(os.getpid())
    pattern_names = {workloads.build_pattern(gl, p): p for p in spans.COUNTED_PATTERNS}
    units: list[Unit] = []
    try:
        start = time.perf_counter()
        while True:
            for traced in ((False, True) if args.trace else (False,)):
                tracer = spans.Tracer(pattern_names)
                gc.collect()  # every unit starts from the same heap state
                cpu0 = cpu_seconds()
                t0 = time.perf_counter()
                with tracer if traced else contextlib.nullcontext():
                    outputs = wl.run_unit(out_dir)
                wall = time.perf_counter() - t0
                units.append(Unit(traced, wall, cpu_seconds() - cpu0, outputs, tracer.spans))
            elapsed = time.perf_counter() - start
            last_round = sum(u.wall for u in units[-(1 + args.trace):])
            if elapsed + last_round > args.seconds:
                break
        rss = peak_rss_mb()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            out_dir.parent.rmdir()

    seed_free, seeded, checked_against = load_references(args.workload, args.seed)
    attempted = failed = 0
    problems = []
    first = units[0].outputs
    for i, unit in enumerate(units):
        f, why = check_unit(wl, unit.outputs, seed_free, seeded, first if i else None)
        attempted += wl.ops_per_unit
        failed += f
        problems += why
    if hasattr(wl, "recount_failures"):
        bad = wl.recount_failures(first)
        failed += len(bad)
        problems += bad
    for line in problems[:20]:
        print(f"failed: {line}", file=sys.stderr)

    untraced = [u for u in units if not u.traced]
    report = {
        "ready": ready,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "unit_walls": [u.wall for u in untraced],
        "unit_cpus": [u.cpu for u in untraced],
        "ops_per_unit": wl.ops_per_unit,
        "peak_rss_mb": rss,
        "references": checked_against,
        "environment": environment(gl, workers),
    }
    if args.trace:
        traced = [u for u in units if u.traced]
        profiles = [spans.profile(u.spans) for u in traced]
        traced_walls = [u.wall for u in traced]
        spans.check_self_times(profiles, traced_walls)
        metrics = spans.layer_metrics(profiles, traced_walls, [u.wall for u in untraced],
                                      first["result_json_bytes"])
        report["layer_metrics"] = {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}
    print(json.dumps(report))
    return 0


def environment(gl, workers: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workers": workers,
        "graphonlab": gl.__version__,
    }


if __name__ == "__main__":
    sys.exit(main())
