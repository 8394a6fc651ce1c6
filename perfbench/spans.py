"""Spans around the public functions of each graphonlab module, and the
per-module metrics computed from them.

The tracer replaces a function at every module attribute that holds it
(`graphonlab.simulate.sample_graph`, `graphonlab.sample_graph`, ...), so
calls made through those names, inside the package too, open a span. Spans
stay in memory; nothing in the package changes, and leaving the `with`
block restores the original functions.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import time
from collections import defaultdict

LAYERS = ("graphon", "sampler", "graphs", "density", "spectral", "limits", "simulate", "cli")

# Functions wrapped per layer: the ones the per-module metrics name, plus
# the joins whose results give the distinct-join share.
TRACED = {
    "graphon": ("discretize",),
    "sampler": ("sample_graph",),
    "graphs": ("count_copies", "automorphism_count",
               "vertex_join", "weak_edge_join", "strong_edge_join"),
    "density": ("hom_density", "conditional_density", "regularity_defect",
                "two_point_graphon", "mean_count"),
    "spectral": ("spectrum", "spec_minus"),
    "limits": ("limit_law", "tau_squared", "sigma_squared", "sample_limit"),
    "simulate": ("run_experiment", "replicate_seed", "ks_distance", "ExperimentResult.write"),
    "cli": ("main",),
}

JOINS = ("graphs.vertex_join", "graphs.weak_edge_join", "graphs.strong_edge_join")
JOIN_PARENTS = ("limits.tau_squared", "limits.sigma_squared")
COUNTED_PATTERNS = ("star2", "k3", "path3", "star3", "c4", "k4")

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    """Context manager that records one span per call of a traced function."""

    def __init__(self, pattern_names: dict):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._info = {
            "sampler.sample_graph": lambda args, G: G.edge_count,
            "graphs.count_copies": lambda args, G: pattern_names.get(args[0]),
            **{join: (lambda args, F: F) for join in JOINS},
        }

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = self._info.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module("graphonlab")]
        modules += [importlib.import_module(f"graphonlab.{layer}") for layer in LAYERS]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"graphonlab.{layer}")
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                original = getattr(owner, attr, None)
                if original is None:  # a later version may drop a function
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                holders = [(owner, attr)] + [
                    (module, key) for module in modules for key, value in vars(module).items()
                    if value is original and module is not owner
                ]
                for holder, key in holders:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()


def profile(spans: list[list]) -> dict:
    """Per-function calls, inclusive and self seconds, durations and infos;
    per-layer self seconds; and the distinct-join tally of one traced unit."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    functions = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "ms": [], "info": []})
    layers = dict.fromkeys(LAYERS, 0.0)
    joins = defaultdict(list)
    for i, (name, start, end, parent, info) in enumerate(spans):
        f = functions[name]
        f["calls"] += 1
        f["s"] += end - start
        f["self_s"] += end - start - covered[i]
        f["ms"].append(1e3 * (end - start))
        f["info"].append(info)
        layers[name.split(".")[0]] += end - start - covered[i]
        if name in JOINS and parent >= 0 and spans[parent][NAME] in JOIN_PARENTS:
            joins[parent].append(canonical_form(info))
    return {
        "functions": functions,
        "layers": layers,
        "joins": sum(len(keys) for keys in joins.values()),
        "distinct_joins": sum(len(set(keys)) for keys in joins.values()),
    }


@functools.lru_cache(maxsize=None)
def _canonical(vertex_count: int, items: tuple) -> tuple:
    degree = [0] * (vertex_count + 1)
    for (a, b), mult in items:
        degree[a] += mult
        degree[b] += mult
    groups = defaultdict(list)
    for v in range(1, vertex_count + 1):
        groups[degree[v]].append(v)
    classes = [groups[d] for d in sorted(groups)]
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in classes)):
        label = {v: i for i, v in enumerate(itertools.chain(*parts))}
        key = tuple(sorted((min(label[a], label[b]), max(label[a], label[b]), mult)
                           for (a, b), mult in items))
        if best is None or key < best:
            best = key
    return best


def canonical_form(graph) -> tuple:
    """Isomorphism class of a (multi)graph: the least edge list over the
    relabellings that order the vertices by degree."""
    edges = graph.edges
    if isinstance(edges, frozenset):  # simple graph
        items = tuple(sorted((e, 1) for e in edges))
    else:  # multigraph: ((a, b), multiplicity) pairs
        items = tuple(sorted(edges))
    return (graph.vertex_count, _canonical(graph.vertex_count, items))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at
    least ten samples beyond it; zeros when there are ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return 0.0, 0.0, n
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n, n


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(profiles: list[dict], traced_walls: list[float],
                  untraced_walls: list[float], result_json_bytes: int) -> dict:
    """Per-module metrics, each as (value, unit): times are medians over the
    traced units, counts are per unit, percentiles pool every traced unit."""

    def fn(name):
        return [p["functions"].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "ms": [], "info": []}) for p in profiles]

    def seconds(name, field="s"):
        return statistics.median(f[field] for f in fn(name)), "s"

    def calls(name):
        return fn(name)[0]["calls"], "count"

    def durations(name, label=None):
        return [ms for f in fn(name) for ms, info in zip(f["ms"], f["info"])
                if label is None or info == label]

    out = {}

    def timing(prefix, name, label=None, suffix=""):
        samples = durations(name, label)
        value, pct, n = tail(samples)
        out[f"{prefix}_ms_p50{suffix}"] = (median_or_zero(samples), "ms")
        out[f"{prefix}_ms_tail{suffix}"] = (value, "ms")
        out[f"{prefix}_ms_tail_pct{suffix}"] = (pct, "%")
        out[f"{prefix}_ms_tail_n{suffix}"] = (n, "count")

    out["graphon.discretize_s"] = seconds("graphon.discretize")

    out["sampler.sample_graph_s"] = seconds("sampler.sample_graph")
    out["sampler.sample_graph_calls"] = calls("sampler.sample_graph")
    timing("sampler.sample_graph", "sampler.sample_graph")
    out["sampler.edges_sampled"] = (sum(fn("sampler.sample_graph")[0]["info"]), "count")

    out["graphs.count_copies_s"] = seconds("graphs.count_copies")
    out["graphs.count_copies_calls"] = calls("graphs.count_copies")
    for pattern in COUNTED_PATTERNS:
        timing("graphs.count_copies", "graphs.count_copies", pattern, f".{pattern}")
    out["graphs.automorphism_count_calls"] = calls("graphs.automorphism_count")
    out["graphs.automorphism_count_s"] = seconds("graphs.automorphism_count")
    out["graphs.joins_built"] = (sum(calls(j)[0] for j in JOINS), "count")

    for name in ("hom_density", "conditional_density"):
        out[f"density.{name}_calls"] = calls(f"density.{name}")
        out[f"density.{name}_s"] = seconds(f"density.{name}")
    for name in ("regularity_defect", "two_point_graphon", "mean_count"):
        out[f"density.{name}_s"] = seconds(f"density.{name}")

    out["spectral.spectrum_calls"] = calls("spectral.spectrum")
    out["spectral.spectrum_s"] = seconds("spectral.spectrum")
    out["spectral.spec_minus_s"] = seconds("spectral.spec_minus")

    for name in ("limit_law", "tau_squared", "sigma_squared", "sample_limit"):
        out[f"limits.{name}_s"] = seconds(f"limits.{name}")
    joins = profiles[0]["joins"]
    out["limits.distinct_join_share"] = (
        profiles[0]["distinct_joins"] / joins if joins else 0.0, "ratio")

    out["simulate.run_experiment_self_s"] = seconds("simulate.run_experiment", "self_s")
    out["simulate.replicate_seed_s"] = seconds("simulate.replicate_seed")
    out["simulate.ks_distance_s"] = seconds("simulate.ks_distance")
    out["simulate.result_write_s"] = seconds("simulate.write")
    out["simulate.result_json_bytes"] = (result_json_bytes, "B")

    out["cli.constants_self_s"] = seconds("cli.main", "self_s")

    for layer in LAYERS:
        out[f"{layer}.self_s"] = (statistics.median(p["layers"][layer] for p in profiles), "s")
    out["trace.traced_wall_s"] = (statistics.median(traced_walls), "s")
    out["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(untraced_walls), "s")
    return out


def check_self_times(profiles: list[dict], traced_walls: list[float]) -> None:
    """Per-module self times of a traced unit add up to at most its wall."""
    for p, wall in zip(profiles, traced_walls):
        total = sum(p["layers"].values())
        if total > wall * (1 + 1e-9):
            raise RuntimeError(f"module self times add up to {total} s, above the traced wall {wall} s")
