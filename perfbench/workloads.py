"""The benchmark workloads: inputs made from the seed, one timed unit of
work through the public API of graphonlab, and the outputs that are checked.

A unit's outputs are `{"ops": {key: fields}, "summaries": {key: fields},
"result_json_bytes": int}`. Each op key is one operation (a replicate, or a
constant set at one (pattern, kernel, m)); summaries hold the per-experiment
limit-law, moment and KS fields, which are checked but are not operations.
"""

from __future__ import annotations

import ast
import contextlib
import io
import math
import re
import sys
from pathlib import Path

# master_seed of configs/two_star_two_block.json.
BASE_SEED = 20240817
N = 150
KERNEL = {"kind": "two_block", "p": 0.5}

# The acceptance config, copied so that later edits to configs/ do not move
# the workload. Replicate counts and master seeds are filled in per workload.
CONFIG = {
    "schema_version": 1,
    "kernel": KERNEL,
    "n": N,
    "reference_draws": 100_000,
    "regularity_tol": 1e-10,
    "ks_threshold": 0.08,
    "variance_band": 0.25,
}

# |Aut H| for every pattern used here, for the bound raw_count <= (n)_v/|Aut H|
# that needs no stored reference.
AUTOMORPHISMS = {"k2": 2, "star2": 2, "k3": 6, "path3": 2, "star3": 6, "c4": 8, "k4": 24}

# Counts per pattern for the panel. path3, star3 and c4 cost 100-190 ms per
# count at n=150, k4 65-100 ms, k3 and star2 about 5 ms; these sizes give
# the four dense patterns similar shares of the unit, and keep a 2-worker
# unit near 10 s so that several fit in one run. star2 is the acceptance
# config's pattern; a serial 2000-replicate star2 workload was dropped
# because on a shared 2-vCPU host its runs spread by 21-31%.
PANEL = (("k3", 200), ("path3", 24), ("star3", 24), ("c4", 24), ("k4", 36), ("star2", 400))

# Exact constants: patterns by their CLI names (cycle4 is the c4 above).
CONSTANT_PATTERNS = ("k2", "star2", "k3", "path3", "star3", "cycle4")
CONSTANT_KEYS = ("t", "tau2", "sigma2", "d_wh", "regular", "spec_minus")


def build_pattern(gl, name: str):
    """The pattern `name`: kN, starN, pathN, or c4/cycle4."""
    kind, size = re.fullmatch(r"(k|star|path|c|cycle)(\d+)", name).groups()
    build = {"k": gl.LabeledGraph.complete, "star": gl.LabeledGraph.star,
             "path": gl.LabeledGraph.path, "c": gl.LabeledGraph.cycle,
             "cycle": gl.LabeledGraph.cycle}[kind]
    return build(int(size))


def law_fields(law) -> dict:
    return {
        "kind": law.kind,
        "scale_exponent": law.scale_exponent,
        "tau2": law.tau2,
        "sigma2": law.sigma2,
        "lambdas": list(law.lambdas),
    }


class MonteCarlo:
    """`run_experiment` (and the result write `graphonlab simulate` does) on
    the two-block kernel for each (pattern, replicates) in `plan`."""

    def __init__(self, gl, seed: int, plan):
        self.gl = gl
        self.plan = plan
        self.configs = []
        for index, (name, replicates) in enumerate(plan):
            data = dict(CONFIG, pattern=build_pattern(gl, name).to_json_dict(),
                        replicates=replicates, master_seed=BASE_SEED + 10 * seed + index)
            self.configs.append((name, gl.ExperimentConfig.from_json_dict(data)))
        self.ops_per_unit = sum(r for _, r in plan)

    def run_unit(self, out_dir: Path) -> dict:
        ops, summaries, json_bytes = {}, {}, 0
        for name, config in self.configs:
            try:
                result = self.gl.run_experiment(config)
                result.write(out_dir / name)
            except Exception as exc:  # an experiment that raises fails all its replicates
                print(f"error: {name}: {exc!r}", file=sys.stderr)
                summaries[name] = {"error": repr(exc)}
                continue
            for i, record in enumerate(result.records):
                ops[f"{name}#{i}"] = [record.seed, record.raw_count]
            summaries[name] = {
                "law": law_fields(result.law),
                "mean_count": result.mean_count_value,
                "raw_mean": result.raw_mean,
                "raw_std": result.raw_std,
                "empirical_mean": result.empirical_mean,
                "empirical_variance": result.empirical_variance,
                "reference_mean": result.reference_mean,
                "reference_variance": result.reference_variance,
                "ks": result.ks,
                "verdict": {
                    "mean_pass": result.mean_pass,
                    "ks_pass": result.ks_pass,
                    "variance_pass": result.variance_pass,
                    "passed": result.passed,
                },
            }
            json_bytes += (out_dir / name / "result.json").stat().st_size
        return {"ops": ops, "summaries": summaries, "result_json_bytes": json_bytes}

    def expected_ops(self) -> list[str]:
        return [f"{name}#{i}" for name, r in self.plan for i in range(r)]

    def held_out_failures(self, outputs: dict) -> list[str]:
        """Checks that need no stored reference: every count is at most
        (n)_v / |Aut H|."""
        bad = []
        for key, (_, raw_count) in outputs["ops"].items():
            name = key.split("#")[0]
            pattern = build_pattern(self.gl, name)
            bound = math.perm(N, pattern.vertex_count) // AUTOMORPHISMS[name]
            if not 0 <= raw_count <= bound:
                bad.append(f"{key}: raw_count {raw_count} outside [0, {bound}]")
        return bad

    def recount_failures(self, outputs: dict) -> list[str]:
        """Serial recount of a fixed subset of replicates (first, middle,
        last of each pattern), which must equal the counts of the run."""
        gl = self.gl
        W = gl.as_step_graphon(gl.KernelSpec.from_json_dict(KERNEL))
        bad = []
        for name, replicates in self.plan:
            H = build_pattern(gl, name)
            for i in sorted({0, replicates // 2, replicates - 1}):
                key = f"{name}#{i}"
                if key not in outputs["ops"]:
                    continue
                seed, raw_count = outputs["ops"][key]
                recount = gl.count_copies(H, gl.sample_graph(W, N, seed))
                if recount != raw_count:
                    bad.append(f"{key}: pooled count {raw_count}, serial recount {recount}")
        return bad


class ExactConstants:
    """The `constants` subcommand on the product kernel at m=256 (refined at
    512) and for k4 at m=4 (refined at 8), plus `limit_law` on the two-block
    kernel discretized to m=256. No sampling, no counting; seed-free."""

    def __init__(self, gl):
        from graphonlab import cli

        self.gl = gl
        self.cli = cli
        self.two_block = gl.discretize(gl.KernelSpec.from_json_dict(KERNEL), 256)
        self.patterns = {name: build_pattern(gl, name) for name in CONSTANT_PATTERNS}
        self.calls = [(p, "256") for p in CONSTANT_PATTERNS] + [("k4", "4")]
        self.ops_per_unit = len(self.expected_ops())

    def expected_ops(self) -> list[str]:
        keys = []
        for pattern, m in self.calls:
            keys += [f"constants/{pattern}/product/{m}", f"constants/{pattern}/product/{2 * int(m)}"]
        keys += [f"limit_law/{p}/two_block:0.5/256" for p in CONSTANT_PATTERNS]
        return keys

    def run_unit(self, out_dir: Path) -> dict:
        ops = {}
        for pattern, m in self.calls:
            buf = io.StringIO()
            try:  # a call that raises or exits nonzero fails its constant sets
                with contextlib.redirect_stdout(buf):
                    code = self.cli.main(["constants", "--pattern", pattern,
                                          "--kernel", "product", "--m", m])
            except Exception as exc:
                print(f"error: constants {pattern} m={m}: {exc!r}", file=sys.stderr)
                continue
            if code == 0:
                ops.update(parse_constants(buf.getvalue(), f"constants/{pattern}/product", int(m)))
        for name, H in self.patterns.items():
            try:
                law = self.gl.limit_law(H, self.two_block)
            except Exception as exc:
                print(f"error: limit_law {name}: {exc!r}", file=sys.stderr)
                continue
            ops[f"limit_law/{name}/two_block:0.5/256"] = law_fields(law)
        return {"ops": ops, "summaries": {}, "result_json_bytes": 0}

    def held_out_failures(self, outputs: dict) -> list[str]:
        return []  # seed-free: always checked against the references


def parse_constants(text: str, prefix: str, m: int) -> dict:
    """Constant sets printed by `graphonlab constants`, keyed by
    prefix/m; the refined block (after `refined_m = ...`) goes under 2m."""
    sets: dict = {}
    current = {}
    sets[f"{prefix}/{m}"] = current
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            continue
        if key == "refined_m":
            current = {}
            sets[f"{prefix}/{int(value)}"] = current
            continue
        key = key.removeprefix("refined_")
        if key == "regular":
            current[key] = value == "true"
        elif key == "spec_minus":
            current[key] = ast.literal_eval(value) if value.startswith("[") else None
        elif key in CONSTANT_KEYS:
            current[key] = float(value)
    return sets


# Worker processes each workload uses when untraced; traced runs are serial
# because spans cannot be collected from pool workers.
WORKERS = {"mc_dense_panel_2w": 2, "exact_constants": 1}


def make(gl, name: str, seed: int):
    """The workload `name` with its inputs made from `seed`."""
    if name == "mc_dense_panel_2w":
        return MonteCarlo(gl, seed, PANEL)
    if name == "exact_constants":
        return ExactConstants(gl)
    raise ValueError(f"unknown workload {name!r}")

