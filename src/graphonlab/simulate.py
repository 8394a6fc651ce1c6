"""Monte Carlo experiment harness.

Runs replicated W-random graph counts, compares the empirical law of the
normalized statistic against draws from the theoretical limit, and emits
machine-readable reports. All randomness derives from one master seed via
per-purpose Philox streams, so results are byte-identical across runs and
worker counts. Every run counts through one path: with k workers the
replicates are split into contiguous chunks of ceil(R / k), the calling
process counts the first, and k - 1 worker processes count the rest, when
there is more than one chunk. The largest count is then checked once
against the complete graph's, and all counts are centred and scaled in one
array step. The workers are forked on first use and kept for later calls
with the same worker count, so they see this module's state as of their
fork; a call with another count shuts them down first, and the kept ones
are joined at interpreter exit. A kept worker whose caller dies without
getting there exits by itself within about a second.
"""

from __future__ import annotations

import csv
import json
import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Mapping, get_type_hints

import numpy as np

from .density import mean_count
from .graphon import DEFAULT_DISCRETIZATION, KernelSpec, StepGraphon, as_step_graphon
from .graphon import _json_int, _json_real
from .graphs import LabeledGraph, _check_host_size, _copies
from .limits import REGULARITY_TOL, LimitLaw, _check_tolerance, limit_law, sample_limit
from .sampler import sample_adjacency

SCHEMA_VERSION = 1
THREADS_ENV_VAR = "GRAPHONLAB_THREADS"

# Stream tags for deriving independent Philox seeds from the master seed.
_REPLICATE_STREAM = 0
_REFERENCE_STREAM = 1

# The worker pool kept between run_experiment calls, with its size, and the
# lock that lets one caller at a time size and use it.
_kept: tuple[int, ProcessPoolExecutor] | None = None
_kept_lock = threading.Lock()


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |F_a - F_b| over the
    merged support of two non-empty finite samples.

    Only the distinct values u_0 < ... < u_{K-1} of the smaller sample are
    searched, into the sorted larger one: from the right for #b <= u_k and
    from the left for #b < u_k. On [u_k, u_{k+1}) the empirical CDF of the
    smaller sample is constant and that of the larger one rises from
    #{<= u_k} to #{< u_{k+1}}, and |x - y| over a monotone run of floats
    peaks at an end of the run. So the support points at those ends give
    the same maximum, float for float, as evaluating every support point.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0 or not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("both samples must be non-empty and finite")
    if a.size > b.size:
        a, b = b, a  # the statistic is symmetric
    u, multiplicity = np.unique(a, return_counts=True)
    b = np.sort(b)
    at_most = np.searchsorted(b, u, side="right")  # #b <= u_k
    below = np.searchsorted(b, u, side="left")  # #b < u_k
    cdf_a = np.cumsum(multiplicity) / a.size
    below_next = np.append(below[1:], b.size)  # #b < u_{k+1}, with #b < infinity last
    return max(
        float(np.max(np.abs(cdf_a - at_most / b.size))),
        float(np.max(np.abs(cdf_a - below_next / b.size))),
        float(below[0] / b.size),  # larger-sample points below u_0, where F_a is 0
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Description of one Monte Carlo run, checked alike when built in Python
    or read from JSON: each field is typed and stored converted (an integral
    float such as 150.0 becomes an int; a bool or a string is refused), then
    replicates >= 1, v <= n with n^v < 2^53 for the pattern's v vertices,
    reference_draws >= 1000, master_seed >= 0, discretization >= 1,
    regularity_tol finite and >= 0, ks_threshold in (0, 1] and
    variance_band > 0. Each refusal is a ValueError that names its field."""

    pattern: LabeledGraph
    kernel: KernelSpec
    n: int
    replicates: int
    master_seed: int
    discretization: int = DEFAULT_DISCRETIZATION
    reference_draws: int = 100_000
    regularity_tol: float = REGULARITY_TOL
    ks_threshold: float = 0.08
    variance_band: float = 0.25

    def __post_init__(self) -> None:
        # first, so that a NaN tolerance gets limit_law's refusal, not _json_real's
        _check_tolerance(self.regularity_tol, "regularity_tol")
        for name, kind in get_type_hints(type(self)).items():
            value = getattr(self, name)
            if kind is int:
                value = _json_int(value, name)
            elif kind is float:
                value = _json_real(value, name)
            elif not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
            object.__setattr__(self, name, value)
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        _check_host_size(self.n, self.pattern.vertex_count)
        if self.reference_draws < 1_000:
            raise ValueError("reference_draws must be >= 1000")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.discretization < 1:
            raise ValueError("discretization must be >= 1")
        if not 0.0 < self.ks_threshold <= 1.0:
            raise ValueError("ks_threshold must be finite and in (0, 1]")
        if self.variance_band <= 0.0:
            raise ValueError("variance_band must be finite and > 0")

    def to_json_dict(self) -> dict:
        data = {"schema_version": SCHEMA_VERSION}
        for f in fields(self):  # the pattern and the kernel write their own JSON
            value = getattr(self, f.name)
            data[f.name] = value.to_json_dict() if hasattr(value, "to_json_dict") else value
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ExperimentConfig":
        """The config of a JSON object. Unknown and missing keys and another
        schema_version are refused here; the pattern and the kernel read
        themselves, and the constructor checks every value."""
        if not isinstance(data, Mapping):
            raise ValueError(f"a config must be a JSON object, got {data!r}")
        unknown = set(data) - {f.name for f in fields(cls)} - {"schema_version"}
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
        if missing:
            raise ValueError(f"missing config keys {sorted(missing)}")
        version = _json_int(data.get("schema_version", SCHEMA_VERSION), "schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version!r}")
        values = {key: value for key, value in data.items() if key != "schema_version"}
        return cls(**{**values, "pattern": LabeledGraph.from_json_dict(data["pattern"]),
                      "kernel": KernelSpec.from_json_dict(data["kernel"])})


@dataclass(frozen=True)
class SampleRecord:
    """One Monte Carlo replicate: the raw copy count and its normalization."""

    seed: int
    raw_count: int
    normalized: float


@dataclass(frozen=True)
class ExperimentResult:
    """Summary of one run plus the per-replicate records."""

    config: ExperimentConfig
    law: LimitLaw
    mean_count_value: float
    raw_mean: float
    raw_std: float
    empirical_mean: float
    empirical_variance: float
    reference_mean: float
    reference_variance: float
    ks: float
    records: tuple[SampleRecord, ...] = field(repr=False)
    mean_pass: bool
    ks_pass: bool
    variance_pass: bool

    @property
    def passed(self) -> bool:
        return self.mean_pass and self.ks_pass and self.variance_pass

    def to_json_dict(self) -> dict:
        header, *rows = self._table()
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_json_dict(),
            "limit_law": self.law.to_json_dict(),
            "mean_count": self.mean_count_value,
            "raw_mean": self.raw_mean,
            "raw_std": self.raw_std,
            "empirical_mean": self.empirical_mean,
            "empirical_variance": self.empirical_variance,
            "reference_mean": self.reference_mean,
            "reference_variance": self.reference_variance,
            "ks_distance": self.ks,
            "checks": {
                "mean_within_4se": self.mean_pass,
                "ks_below_threshold": self.ks_pass,
                "variance_within_band": self.variance_pass,
                "passed": self.passed,
            },
            "records": [dict(zip(header, row)) for row in rows],
        }

    def _table(self) -> list[list]:
        """A header, then a row per replicate: its index and SampleRecord's fields."""
        names = [f.name for f in fields(SampleRecord)]
        rows = ([i, *(getattr(r, name) for name in names)] for i, r in enumerate(self.records))
        return [["replicate", *names], *rows]

    def to_canonical_json(self) -> str:
        """Deterministic serialization: sorted keys, no whitespace, shortest
        round-trip float representation."""
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def write(self, out_dir: str | Path) -> tuple[Path, Path]:
        """Write result.json and replicates.csv into out_dir."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        result_path = out / "result.json"
        result_path.write_text(self.to_canonical_json(), encoding="utf-8")
        csv_path = out / "replicates.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(self._table())  # str(x), which is repr(x) for a float
        return result_path, csv_path


def stream_seed(master_seed: int, purpose: int, index: int = 0) -> int:
    """Derive an independent 64-bit seed from the master seed; replicates and
    the reference sample live on disjoint spawn keys."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(purpose, index))
    return int(ss.generate_state(1, np.uint64)[0])


def replicate_seed(master_seed: int, index: int) -> int:
    return stream_seed(master_seed, _REPLICATE_STREAM, index)


def _count(H: LabeledGraph, W: StepGraphon, n: int, seed: int) -> int:
    """The copies of H in the W-random graph on n vertices drawn from seed,
    counted without re-checking the host: sample_adjacency builds it valid,
    and ExperimentConfig bounds n."""
    return _copies(H, sample_adjacency(W, n, seed))


def _worker_count(replicates: int) -> int:
    """GRAPHONLAB_THREADS (default 1), capped at one worker per replicate and
    per CPU this process may run on, or per CPU of the machine where the OS
    cannot say (no os.sched_getaffinity on macOS and Windows)."""
    raw = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    if workers < 1:
        raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {raw!r}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, replicates, cpus or 1)


def _pool(size: int) -> ProcessPoolExecutor:
    """The kept pool of `size` workers, forked at its first task; a kept
    pool of another size is shut down first."""
    global _kept
    if _kept is not None and _kept[0] != size:
        _drop_pool()
    if _kept is None:
        _kept = (size, ProcessPoolExecutor(size, initializer=_init_worker))
    return _kept[1]


def _init_worker() -> None:
    """Worker initializer: allocate and free one 4 MiB block, and start the
    thread that ends this worker when its parent is gone.

    glibc's malloc raises its mmap threshold to the largest block it has
    unmapped and trims the heap only past twice that, so the worker then
    reuses the heap pages of each replicate's temporaries. A worker forked
    before its caller freed any large block would otherwise give them back
    and fault them in again on every replicate, for as long as it is kept."""
    np.empty(1 << 19)
    threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),), daemon=True).start()


def _exit_when_orphaned(parent: int) -> None:
    """Exit this worker, skipping every exit handler, once its parent pid is
    no longer `parent`: a caller killed by SIGKILL never shuts its pool
    down, and its orphaned worker would otherwise wait for a task forever.
    Polled once a second. Not PR_SET_PDEATHSIG, which fires when the thread
    that forked the worker ends, and any thread may fork the kept pool."""
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(1)


def _drop_pool() -> None:
    """Shut the kept pool down and join its workers, if there is one; the
    next call that needs a pool forks a fresh one."""
    global _kept
    if _kept is not None:
        pool, _kept = _kept[1], None
        pool.shutdown()


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the replicates, draw the reference sample, and score the run.

    Fully deterministic given the config (including across worker counts).
    Raises DegenerateGraphonError for all-ones or pattern-free kernels and
    for edgeless patterns.
    """
    W = as_step_graphon(config.kernel, config.discretization)
    H = config.pattern
    law = limit_law(H, W, regularity_tol=config.regularity_tol)

    n = config.n
    mu = mean_count(H, W, n)
    seeds = [replicate_seed(config.master_seed, i) for i in range(config.replicates)]
    count, workers = partial(_count, H, W, n), _worker_count(len(seeds))
    chunk = math.ceil(len(seeds) / workers)  # one contiguous chunk of seeds per worker
    rest = seeds[chunk:]
    with _kept_lock:
        try:  # this process counts the first chunk, the kept pool the rest, in seed order
            pooled = _pool(workers - 1).map(count, rest, chunksize=chunk) if rest else ()
            counts = [*map(count, seeds[:chunk]), *pooled]
        except BrokenProcessPool:  # a worker died; the next call forks afresh
            _drop_pool()
            raise
    if max(counts) > math.perm(n, H.vertex_count) // H.counting_plan.automorphisms:
        raise RuntimeError("copy count exceeds the complete-graph bound; counting bug")
    raw = np.array(counts, dtype=float)
    normalized = (raw - mu) / n**law.scale_exponent
    records = tuple(map(SampleRecord, seeds, counts, normalized.tolist()))

    reference_seed = stream_seed(config.master_seed, _REFERENCE_STREAM)
    reference = sample_limit(law, reference_seed, config.reference_draws)

    raw_std = float(np.std(raw, ddof=1)) if raw.size > 1 else 0.0
    se = raw_std / math.sqrt(raw.size) if raw.size > 1 else float("inf")
    mean_pass = abs(float(np.mean(raw)) - mu) <= 4.0 * se

    ks = ks_distance(normalized, reference)
    ks_pass = ks < config.ks_threshold
    reference_mean = float(np.mean(reference))
    reference_variance = float(np.var(reference, ddof=1))

    emp_var = float(np.var(normalized, ddof=1)) if normalized.size > 1 else 0.0
    law_var = law.variance
    if law_var > 0:
        variance_pass = abs(emp_var - law_var) <= config.variance_band * law_var
    else:
        variance_pass = emp_var <= 1e-12

    return ExperimentResult(
        config=config,
        law=law,
        mean_count_value=mu,
        raw_mean=float(np.mean(raw)),
        raw_std=raw_std,
        empirical_mean=float(np.mean(normalized)),
        empirical_variance=emp_var,
        reference_mean=reference_mean,
        reference_variance=reference_variance,
        ks=ks,
        records=records,
        mean_pass=mean_pass,
        ks_pass=ks_pass,
        variance_pass=variance_pass,
    )
