"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record_refs.py

Runs one serial unit of every workload for each of SEEDS and writes
perfbench/refs/<workload>.json: the seed-free outputs (exact constants, and
each Monte Carlo pattern's limit law and mean count) and, per seed, every
replicate's (seed, raw_count) with the limit-law, moment and KS fields.
Record at the commit whose outputs are the references, never to make a
failing run pass.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

os.environ.update(GRAPHONLAB_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import worker  # noqa: E402  (after the thread settings, before numpy loads)
import workloads  # noqa: E402

# The seeds whose outputs are stored; any other seed is a held-out seed.
SEEDS = (0, 1, 2)


def main() -> int:
    gl = worker.import_graphonlab()
    out_dir = worker.HERE / ".work" / f"record-{os.getpid()}"
    worker.REFS.mkdir(exist_ok=True)
    try:
        for name in workloads.WORKERS:
            refs = {"seed_free": {"ops": {}, "summaries": {}}, "seeds": {}}
            for seed in SEEDS:
                outputs = workloads.make(gl, name, seed).run_unit(out_dir)
                if name == "exact_constants":  # seed-free: one set serves every seed
                    refs["seed_free"]["ops"] = outputs["ops"]
                    break
                refs["seeds"][str(seed)] = {"ops": outputs["ops"], "summaries": outputs["summaries"]}
                refs["seed_free"]["summaries"] = {
                    pattern: {"law": s["law"], "mean_count": s["mean_count"]}
                    for pattern, s in outputs["summaries"].items()
                }
                print(f"{name} seed {seed}: recorded", file=sys.stderr)
            path = worker.REFS / f"{name}.json"
            path.write_text(json.dumps(refs, sort_keys=True, separators=(",", ":")) + "\n",
                            encoding="utf-8")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
