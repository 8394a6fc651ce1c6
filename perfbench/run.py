"""graphonlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds src/graphonlab. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is the environment header. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-module ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Set-up is sampled by this many extra processes besides the measured one,
# half before it and half after, so that the median spans the whole run.
SETUP_PROBES = 16
# A whole run ends within this many seconds (the limit is 180), or fails
# with exit code 4 and no result. Each probe gets at most PROBE_TIMEOUT_S,
# and the probes after the measured process have PROBE_RESERVE_S kept for them.
RUN_LIMIT_S = 170
PROBE_TIMEOUT_S = 10
PROBE_RESERVE_S = 20


def run_worker(argv: list[str], env: dict, timeout: float) -> tuple[dict, float]:
    """Start worker.py, wait for it, and return its JSON line and the
    wall-clock time just before it started. The worker and its pool run in
    a process group of their own, which is killed if the worker outlives
    `timeout` seconds."""
    spawned = time.time()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 0.0))
    except BaseException:  # timed out or interrupted
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), spawned


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):  # no git binary
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="graphonlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "graphonlab" / "__init__.py").is_file():
        print(f"error: no graphonlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    nproc = len(os.sched_getaffinity(0))
    workers = 1 if args.trace else WORKERS[args.workload]
    blas_threads = max(1, nproc // workers)  # workers x BLAS threads <= nproc
    env = dict(os.environ, GRAPHONLAB_THREADS=str(workers),
               **{var: str(blas_threads) for var in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []

    def probe_setup(count: int) -> None:
        for _ in range(count):
            left = deadline - time.monotonic()
            probe, spawned = run_worker([*common, "--setup-only"], env, min(PROBE_TIMEOUT_S, left))
            setups.append(probe["ready"] - spawned)

    try:
        probe_setup(SETUP_PROBES // 2)
        report, spawned = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env,
            deadline - time.monotonic() - PROBE_RESERVE_S)
        setups.append(report["ready"] - spawned)
        probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    except subprocess.TimeoutExpired as exc:
        print(f"error: a worker ran out of time ({exc.timeout:.0f} s) and was stopped; the run "
              f"would exceed {RUN_LIMIT_S} s, so no result is reported "
              "(see perfbench/README.md, 'Time limit')", file=sys.stderr)
        return 4

    if args.trace:
        metrics = report["layer_metrics"]
        wanted = spec["per_layer"]
    else:
        walls = report["unit_walls"]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "ops_per_s": {"value": statistics.median(report["ops_per_unit"] / w for w in walls),
                          "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "cpu_s": {"value": statistics.median(report["unit_cpus"]), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        wanted = spec["end_to_end"]
    # Self-check: exactly the metrics BENCHMARK.json names, with its units.
    if {m["name"]: m["unit"] for m in wanted} != {k: v["unit"] for k, v in metrics.items()}:
        print("error: metrics do not match BENCHMARK.json", file=sys.stderr)
        return 3

    header = dict(
        report["environment"],
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=nproc,
        git_sha=git_sha(),
        unit_walls_s=report["unit_walls"],
        references=report["references"],
        setup_samples_s=setups,
    )
    if args.trace and WORKERS[args.workload] > 1:
        header["note"] = ("traced serially: spans cannot be collected from pool workers "
                          "without changing src/; trace.overhead_s compares serial runs")
    print(json.dumps({"environment": header}))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
