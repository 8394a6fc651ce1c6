"""Command-line front end.

Subcommands: density, regularity, constants, spectrum, simulate, selftest.
Exit codes: 0 success, 1 failed acceptance check, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .density import (
    DegenerateGraphonError,
    REGULARITY_TOL,
    _defect,
    _density_and_one_point_sum,
    hom_density,
    mean_count,
    regularity_defect,
    two_point_graphon,
)
from .graphon import (
    DEFAULT_DISCRETIZATION,
    KIND_PRODUCT,
    KernelSpec,
    StepGraphon,
    as_step_graphon,
    discretize,
)
from .graphs import LabeledGraph, automorphism_count, count_copies
from .limits import _tau_squared_of, sigma_squared, tau_squared
from .sampler import sample_graph
from .simulate import ExperimentConfig, run_experiment
from .spectral import _degree_value, dwh, spec_minus, spectrum

_BUILTIN_PATTERN = re.compile(r"^(k|star|path|cycle)(\d+)$")


def _load_pattern(ref: str) -> LabeledGraph:
    """Pattern from a JSON file path, or a builtin name: kN (complete),
    starN (N leaves), pathN (N edges), cycleN."""
    path = Path(ref)
    if path.exists():
        return LabeledGraph.from_json_dict(json.loads(path.read_text(encoding="utf-8")))
    m = _BUILTIN_PATTERN.match(ref.lower())
    if not m:
        raise ValueError(f"pattern {ref!r} is neither a file nor a builtin name")
    kind, size = m.group(1), int(m.group(2))
    if kind == "k":
        return LabeledGraph.complete(size)
    if kind == "star":
        return LabeledGraph.star(size)
    if kind == "path":
        return LabeledGraph.path(size)
    return LabeledGraph.cycle(size)


def _load_kernel(ref: str) -> KernelSpec:
    """Kernel from 'constant:p', 'product', 'two_block:p', or 'custom:FILE'."""
    if ref == "product":
        return KernelSpec.product()
    kind, sep, arg = ref.partition(":")
    if not sep:
        raise ValueError(f"kernel {ref!r} needs a parameter, e.g. constant:0.3")
    if kind == "constant":
        return KernelSpec.constant(float(arg))
    if kind == "two_block":
        return KernelSpec.two_block_diagonal(float(arg))
    if kind == "custom":
        data = json.loads(Path(arg).read_text(encoding="utf-8"))
        if "kind" in data:
            return KernelSpec.from_json_dict(data)
        return KernelSpec.custom(data["pi"], data["B"])
    raise ValueError(f"unknown kernel kind {kind!r}")


def _needs_refinement(spec: KernelSpec) -> bool:
    # Only analytic kernels are discretized; step kernels are exact.
    return spec.kind == KIND_PRODUCT


def _cmd_density(args) -> int:
    H = _load_pattern(args.pattern)
    W = as_step_graphon(_load_kernel(args.kernel), args.m)
    print(repr(hom_density(H, W)))
    return 0


def _cmd_regularity(args) -> int:
    H = _load_pattern(args.pattern)
    spec = _load_kernel(args.kernel)
    defect = regularity_defect(H, as_step_graphon(spec, args.m))
    print(f"m = {args.m}")
    print(f"defect = {defect!r}")
    print(f"regular = {str(defect <= args.tol).lower()}")
    if _needs_refinement(spec):
        refined = regularity_defect(H, discretize(spec, 2 * args.m))
        print(f"refined_m = {2 * args.m}")
        print(f"refined_defect = {refined!r}")
    return 0


def _constants_lines(H: LabeledGraph, W: StepGraphon, tol: float, prefix: str = "") -> list[str]:
    """The constants block of one (H, W), every value computed before any is
    printed; t(H, W) and the one-point sum S are computed once."""
    t, S = _density_and_one_point_sum(H, W)
    regular = _defect(H, t, S) <= tol
    d_wh = _degree_value(H, t)
    tau2 = _tau_squared_of(H, W, S)
    sigma2 = sigma_squared(H, W)
    if regular:
        lambdas = spec_minus(spectrum(two_point_graphon(H, W)), d_wh)
        reduced = repr(lambdas.tolist())
    else:
        reduced = "n/a (kernel is not pattern-regular; d_wh advisory only)"
    return [
        f"{prefix}t = {t!r}",
        f"{prefix}tau2 = {tau2!r}",
        f"{prefix}sigma2 = {sigma2!r}",
        f"{prefix}d_wh = {d_wh!r}",
        f"{prefix}regular = {str(regular).lower()}",
        f"{prefix}spec_minus = {reduced}",
    ]


def _cmd_constants(args) -> int:
    H = _load_pattern(args.pattern)
    spec = _load_kernel(args.kernel)
    lines = _constants_lines(H, as_step_graphon(spec, args.m), args.tol)
    if _needs_refinement(spec):
        lines.append(f"refined_m = {2 * args.m}")
        lines += _constants_lines(H, discretize(spec, 2 * args.m), args.tol, prefix="refined_")
    print("\n".join(lines))
    return 0


def _cmd_spectrum(args) -> int:
    W = as_step_graphon(_load_kernel(args.kernel), args.m)
    if args.pattern is not None:
        W = two_point_graphon(_load_pattern(args.pattern), W)
    print(json.dumps(spectrum(W).to_json_dict()))
    return 0


def _cmd_simulate(args) -> int:
    config = ExperimentConfig.from_json_dict(
        json.loads(Path(args.config).read_text(encoding="utf-8"))
    )
    result = run_experiment(config)
    result_path, csv_path = result.write(args.out)
    print(f"law = {result.law.kind}")
    print(f"ks = {result.ks!r}")
    print(f"empirical_variance = {result.empirical_variance!r}")
    print(f"passed = {str(result.passed).lower()}")
    print(f"wrote {result_path} and {csv_path}")
    return 0 if result.passed else 1


def _selftest_checks():
    """Closed-form oracle suite; every expected value is hand-derived."""
    k2 = LabeledGraph.complete(2)
    k3 = LabeledGraph.complete(3)
    star2 = LabeledGraph.star(2)
    c4 = LabeledGraph.cycle(4)
    path4 = LabeledGraph.path(4)

    def close(x, y, tol=1e-12):
        return abs(x - y) <= tol

    def two_point_two_block(p):
        W = as_step_graphon(KernelSpec.two_block_diagonal(p))
        M = two_point_graphon(star2, W).values
        target = 3.0 * p * p / 4.0
        return close(M[0, 0], target) and close(M[1, 1], target) and M[0, 1] == 0.0

    def sigma_two_block(p):
        W = as_step_graphon(KernelSpec.two_block_diagonal(p))
        return close(sigma_squared(star2, W), p**3 * (1 - p) / 4.0)

    def spectrum_two_block():
        p = 0.5
        W = as_step_graphon(KernelSpec.two_block_diagonal(p))
        spec = spectrum(two_point_graphon(star2, W))
        lam = np.sort(spec.eigenvalues)
        target = 3.0 * p * p / 8.0
        if lam.size != 2 or not np.allclose(lam, target, atol=1e-10):
            return False
        kept = spec_minus(spec, dwh(star2, W))
        return kept.size == 1 and close(float(kept[0]), target, 1e-10)

    def defects_zero():
        const = as_step_graphon(KernelSpec.constant(0.4))
        wtilde = as_step_graphon(KernelSpec.two_block_diagonal(0.5))
        checks = [regularity_defect(H, const) <= 1e-10 for H in (k2, star2, k3)]
        checks.append(regularity_defect(star2, wtilde) <= 1e-10)
        return all(checks)

    def product_not_regular():
        W = discretize(KernelSpec.product(), 256)
        return regularity_defect(star2, W) > 1e-4

    def tau_product(H):
        # in xy the one-point conditional at a is t (d_a+1) x^(d_a) with
        # t = prod_u 1/(d_u+1), so int t_a t_b = t^2 (d_a+1)(d_b+1)/(d_a+d_b+1)
        deg, v = H.degrees(), H.vertex_count
        t = Fraction(1, math.prod(d + 1 for d in deg))
        joins = sum(t * t * (a + 1) * (b + 1) / Fraction(a + b + 1) for a in deg for b in deg)
        target = float((joins - v * v * t * t) / automorphism_count(H) ** 2)
        return close(tau_squared(H, discretize(KernelSpec.product(), 256)), target, 1e-3 * target)

    def sigma_constant(H, p):
        # every edge term is p^(2e-1)(1-p): 2 e^2 p^(2e-1) (1-p) / |Aut H|^2
        e = H.edge_count
        target = 2 * e * e * p ** (2 * e - 1) * (1 - p) / automorphism_count(H) ** 2
        return close(sigma_squared(H, as_step_graphon(KernelSpec.constant(p))), target)

    def density_examples():
        ok = close(hom_density(k2, as_step_graphon(KernelSpec.constant(0.3))), 0.3)
        wtilde = as_step_graphon(KernelSpec.two_block_diagonal(0.6))
        ok = ok and close(hom_density(star2, wtilde), 0.36 / 4.0)
        prod = discretize(KernelSpec.product(), 128)
        return ok and close(hom_density(star2, prod), 1.0 / 12.0, 1e-5)

    def mean_examples():
        ok = close(mean_count(k2, as_step_graphon(KernelSpec.constant(0.7)), 3), 3 * 0.7)
        ok = ok and close(mean_count(k3, as_step_graphon(KernelSpec.constant(0.5)), 4), 4 * 0.5**3)
        return ok

    def automorphisms():
        return (
            automorphism_count(k3) == 6
            and automorphism_count(star2) == 2
            and automorphism_count(path4) == 2
        )

    def complete_sampling():
        W = as_step_graphon(KernelSpec.constant(1.0))
        G = sample_graph(W, 6, seed=11)
        return count_copies(k3, G) == 20  # C(6,3)

    def complete_graph_counts(n):
        # c4 takes the Moebius sum over four quotients, k4 the pinning branch
        G = LabeledGraph.complete(n)
        expected = {
            LabeledGraph.cycle(4): 3 * math.comb(n, 4),
            LabeledGraph.complete(4): math.comb(n, 4),
            LabeledGraph.star(3): n * math.comb(n - 1, 3),
            LabeledGraph.path(3): math.factorial(n) // (2 * math.factorial(n - 4)),
        }
        return all(count_copies(H, G) == count for H, count in expected.items())

    return [
        ("two_point kernel on the two-block graphon (p=0.3)", lambda: two_point_two_block(0.3)),
        ("two_point kernel on the two-block graphon (p=0.9)", lambda: two_point_two_block(0.9)),
        ("sigma2 on the two-block graphon (p=0.5 -> 1/64)", lambda: sigma_two_block(0.5)),
        ("sigma2 on the two-block graphon (p=0.3)", lambda: sigma_two_block(0.3)),
        ("spectrum and degree removal on the two-block graphon", spectrum_two_block),
        ("zero defects for constant and two-block kernels", defects_zero),
        ("product kernel is not 2-star regular", product_not_regular),
        ("tau2 for 2-stars in the product kernel (m=256)", lambda: tau_product(star2)),
        ("sigma2 for triangles in the constant kernel (p=0.2)", lambda: sigma_constant(k3, 0.2)),
        ("sigma2 for triangles in the constant kernel (p=0.5)", lambda: sigma_constant(k3, 0.5)),
        ("sigma2 for 4-cycles in the constant kernel (p=0.4)", lambda: sigma_constant(c4, 0.4)),
        ("tau2 for 4-edge paths in the product kernel (m=256)", lambda: tau_product(path4)),
        ("density spot checks", density_examples),
        ("mean count spot checks", mean_examples),
        ("automorphism counts", automorphisms),
        ("all-ones kernel samples the complete graph", complete_sampling),
        ("c4, k4, star3 and path3 counts in K_6", lambda: complete_graph_counts(6)),
        ("c4, k4, star3 and path3 counts in K_9", lambda: complete_graph_counts(9)),
    ]


def _cmd_selftest(_args) -> int:
    checks = _selftest_checks()
    failures = 0
    for name, check in checks:
        try:
            ok = bool(check())
        except Exception as exc:  # a crash is a failure, not a usage error
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        if ok:
            print(f"ok - {name}")
        else:
            failures += 1
            print(f"FAIL - {name}")
    print(f"{'PASS' if failures == 0 else 'FAIL'}: {len(checks) - failures} ok, {failures} failed")
    return 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphonlab",
        description="Subgraph-count statistics and limit laws for W-random graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kernel_opts(p, pattern_required=True):
        if pattern_required:
            p.add_argument("--pattern", required=True, help="pattern JSON file or builtin name")
        p.add_argument("--kernel", required=True, help="constant:p | product | two_block:p | custom:FILE")
        p.add_argument("--m", type=int, default=DEFAULT_DISCRETIZATION,
                       help="cells used to discretize analytic kernels")

    p = sub.add_parser("density", help="print t(pattern, kernel)")
    add_kernel_opts(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("regularity", help="print the regularity defect and verdict")
    add_kernel_opts(p)
    p.add_argument("--tol", type=float, default=REGULARITY_TOL)
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("constants", help="print tau2, sigma2, d_wh and the reduced spectrum")
    add_kernel_opts(p)
    p.add_argument("--tol", type=float, default=REGULARITY_TOL)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("spectrum", help="print the spectrum JSON of the kernel (or of the"
                                        " two-point conditional kernel when --pattern is given)")
    p.add_argument("--pattern", help="optional pattern JSON file or builtin name")
    p.add_argument("--kernel", required=True)
    p.add_argument("--m", type=int, default=DEFAULT_DISCRETIZATION)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("simulate", help="run a Monte Carlo experiment from a JSON config")
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.add_argument("--out", required=True, help="output directory for result.json / replicates.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("selftest", help="run the closed-form oracle suite")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0.0 <= getattr(args, "tol", 0.0) < math.inf:  # NaN fails this too
            raise ValueError(f"--tol must be finite and >= 0, got {args.tol!r}")
        return args.func(args)
    except DegenerateGraphonError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
