"""Command-line front end.

Subcommands: density, regularity, constants, spectrum, simulate, selftest.
Exit codes: 0 success, 1 failed acceptance check, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .density import hom_density, mean_count, two_point_graphon
from .graphon import (
    DEFAULT_DISCRETIZATION,
    KernelSpec,
    StepGraphon,
    as_step_graphon,
    discretize,
)
from .graphs import LabeledGraph, count_copies
from .limits import (
    REGULARITY_TOL,
    DegenerateGraphonError,
    _check_tolerance,
    first_order,
    limit_law,
    sigma_squared,
)
from .sampler import sample_adjacency
from .simulate import ExperimentConfig, run_experiment
from .spectral import spec_minus, spectrum

_BUILTIN_PATTERN = re.compile(r"^(k|star|path|cycle)(\d+)$")


def _builtin_pattern(name: str) -> LabeledGraph:
    """kN (complete), starN (N leaves), pathN (N edges) or cycleN."""
    m = _BUILTIN_PATTERN.match(name.lower())
    if not m:
        raise ValueError(f"pattern {name!r} is neither a file nor a builtin name")
    build = {"k": LabeledGraph.complete, "star": LabeledGraph.star, "path": LabeledGraph.path}
    return build.get(m.group(1), LabeledGraph.cycle)(int(m.group(2)))


def _load_pattern(ref: str) -> LabeledGraph:
    """Pattern from a JSON file path, or a builtin name."""
    path = Path(ref)
    if path.is_file():  # Path("") and Path(".") are the working directory
        return LabeledGraph.from_json_dict(json.loads(path.read_text(encoding="utf-8")))
    return _builtin_pattern(ref)


def _load_kernel(ref: str) -> KernelSpec:
    """Kernel from 'KIND' or 'KIND:ARG' (constant:p, product, two_block:p,
    custom:FILE): an ARG that reads as a number is the kind's one value, any
    other names a JSON file holding the kernel's other keys. A file naming
    another kind is refused."""
    kind, sep, arg = ref.partition(":")
    if not sep:
        return KernelSpec(kind)
    if not arg:  # Path("") would be the working directory
        raise ValueError(f"--kernel {ref!r}: the ARG after ':' is empty")
    try:
        value = float(arg)
    except ValueError:
        data = json.loads(Path(arg).read_text(encoding="utf-8"))
        if isinstance(data, dict) and data.setdefault("kind", kind) != kind:
            raise ValueError(f"kernel file {arg} names kind {data['kind']!r}, not {kind!r}")
        return KernelSpec.from_json_dict(data)
    return KernelSpec(kind, (value,))


def _cmd_density(args) -> int:
    H = _load_pattern(args.pattern)
    W = as_step_graphon(_load_kernel(args.kernel), args.m)
    print(repr(hom_density(H, W)))
    return 0


def _cmd_regularity(args) -> int:
    H = _load_pattern(args.pattern)
    spec = _load_kernel(args.kernel)
    defect = first_order(H, as_step_graphon(spec, args.m)).defect
    lines = [f"m = {args.m}", f"defect = {defect!r}", f"regular = {str(defect <= args.tol).lower()}"]
    if spec.step_graphon() is None:  # only analytic kernels are discretized
        refined = first_order(H, discretize(spec, 2 * args.m)).defect
        lines += [f"refined_m = {2 * args.m}", f"refined_defect = {refined!r}"]
    print("\n".join(lines))
    return 0


def _constants_lines(H: LabeledGraph, W: StepGraphon, tol: float, prefix: str = "") -> list[str]:
    """The constants block of one (H, W), every value computed before any is
    printed."""
    t, defect, tau2, d_wh = first_order(H, W)
    regular = defect <= tol
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
    if spec.step_graphon() is None:
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


class _ClosedForm(NamedTuple):
    """A closed-form row: `compute()` runs the package and must equal `expected`
    within `tol` (scalar or per element), shape included; a bool is 0 or 1."""

    name: str
    compute: Callable[[], object]
    expected: object
    tol: object = 0.0

    def holds(self) -> bool:
        value, expected = (np.asarray(x, dtype=float) for x in (self.compute(), self.expected))
        return value.shape == expected.shape and bool(np.all(np.abs(value - expected) <= self.tol))


def _product_moment(k: int, m: int | None) -> Fraction:
    """Mean of x^k over the midpoints of m uniform cells (over [0, 1] if m is
    None). Cell averages of xy are products of midpoints, so in a density of
    xy each vertex of degree d contributes the moment of order d."""
    if m is None:
        return Fraction(1, k + 1)
    return Fraction(sum((2 * i + 1) ** k for i in range(m)), m * (2 * m) ** k)


def _product_density(H: LabeledGraph, m: int | None) -> Fraction:
    return math.prod(_product_moment(d, m) for d in H.degrees())


def _product_tau(H: LabeledGraph, aut: int, m: int | None) -> Fraction:
    """tau2 of H in xy: the one-point conditional at a is t x^(d_a) / M_(d_a),
    so int t_a t_b = t^2 M_(d_a + d_b) / (M_(d_a) M_(d_b))."""
    d, v, t = H.degrees(), H.vertex_count, _product_density(H, m)
    M = [_product_moment(k, m) for k in range(2 * max(d) + 1)]
    return t * t * (sum(M[a + b] / (M[a] * M[b]) for a in d for b in d) - v * v) / aut**2


def _closed_forms() -> list[_ClosedForm]:
    """The closed-form table that `selftest` and the acceptance test run; every
    expected value is hand-derived, and a row computes nothing until checked."""
    auts = {"k2": 2, "k3": 6, "k4": 24, "star2": 2, "star3": 6, "star4": 24, "path3": 2,
            "path4": 2, "path5": 2, "cycle4": 8, "cycle5": 10, "cycle6": 12}
    graphs = {name: _builtin_pattern(name) for name in auts}

    def row(quantity, name, ref, compute, expected, tol=0.0) -> _ClosedForm:
        spec, _, m = ref.partition(", m=")  # "product, m=64": discretized to 64 cells
        H, kernel, m = graphs[name], _load_kernel(spec), int(m or DEFAULT_DISCRETIZATION)
        return _ClosedForm(f"{quantity} of {name} on {ref}",
                           lambda: compute(H, as_step_graphon(kernel, m)), expected, tol)

    def mixture(H, W):
        law = limit_law(H, W)
        return (law.sigma2, *law.lambdas, law.variance)

    def regular(name: str, kind: str, p: float, t: float, sigma2: float) -> list[_ClosedForm]:
        # H is regular on the k blocks of constant:p (k = 1) and two_block:p
        # (k = 2): the defect and tau2 vanish, W_H is k d_wh on the diagonal
        # and exactly 0 off it, d_wh = v(v-1)/(2|Aut|) t, and k - 1 of its k
        # eigenvalues d_wh are chi-square weights. At p = 1/2 sigma2 is exact.
        k, v, aut = (2 if kind == "two_block" else 1), graphs[name].vertex_count, auts[name]
        d_wh, mean = v * (v - 1) / (2 * aut) * t, math.factorial(v + 1) / aut * t
        lams = [d_wh] * (k - 1)
        return [row(quantity, name, f"{kind}:{p}", *check) for quantity, *check in [
            ("t", hom_density, t, 1e-15),
            ("sigma2", sigma_squared, sigma2, 0.0 if p == 0.5 else 1e-14 * sigma2),
            ("d_wh", lambda H, W: first_order(H, W).d_wh, d_wh, 1e-15),
            ("two-point kernel", lambda H, W: two_point_graphon(H, W).values,
             k * d_wh * np.eye(k), 1e-15 * np.eye(k)),
            ("spectrum of the two-point kernel",
             lambda H, W: spectrum(two_point_graphon(H, W)).eigenvalues, [d_wh] * k, 1e-15),
            ("limit law", mixture, [sigma2, *lams, sigma2 + 2 * sum(x * x for x in lams)], 1e-15),
            (f"mean count at n={v + 1}", lambda H, W: mean_count(H, W, v + 1), mean, 1e-14 * mean),
            ("defect and tau2", lambda H, W: first_order(H, W)[1:3], [0, 0], [1e-12, 0]),
        ]]

    def constant(name: str, p: float) -> list[_ClosedForm]:
        # t = p^e; each of the e^2 ordered edge pairs adds p^(2e-1) (1-p) to
        # sigma2 |Aut|^2 / 2
        e, aut = graphs[name].edge_count, auts[name]
        return regular(name, "constant", p, p**e, 2 * e * e * p ** (2 * e - 1) * (1 - p) / aut**2)

    def product(quantity, name, m, compute, exact: Fraction) -> _ClosedForm:
        return row(quantity, name, f"product, m={m}", compute, float(exact), 1e-12 * float(exact))

    def product_tau(name: str) -> _ClosedForm:
        # exact at both m, and nearer the m -> inf value at m = 512 than at 256
        H, aut = graphs[name], auts[name]
        at256, at512, limit = (float(_product_tau(H, aut, m)) for m in (256, 512, None))

        def compute():
            a, b = (first_order(H, discretize(KernelSpec.product(), m)).tau2 for m in (256, 512))
            return a, b, abs(b - limit) < abs(a - limit)

        return _ClosedForm(f"tau2 of {name} on product, m=256 and 512", compute,
                           [at256, at512, True], [1e-12 * at256, 1e-12 * at512, 0])

    star2 = graphs["star2"]
    return [
        _ClosedForm("automorphism counts",
                    lambda: [H.counting_plan.automorphisms for H in graphs.values()],
                    list(auts.values())),
        # on two_block:p the 2-star has degree p/2 on each block: t = p^2/4,
        # so d_wh = 3p^2/8 and W_H = diag(3p^2/4); and sigma2 = p^3 (1-p) / 4
        *(r for p in (0.3, 0.5, 0.9)
          for r in regular("star2", "two_block", p, p * p / 4, p**3 * (1 - p) / 4)),
        *(r for case in [("k2", 0.3), ("star2", 0.3), ("k3", 0.2), ("k3", 0.5), ("cycle4", 0.4),
                         ("path5", 0.3), ("path5", 0.7), ("cycle6", 0.3), ("cycle6", 0.7)]
          for r in constant(*case)),
        # the self-joins of the 2-star: the 4-star, four centre-leaf joins and
        # four leaf-leaf paths, each vertex of degree d adding the moment 1/(d+1)
        _ClosedForm("tau2 of star2 in xy is 31/4320", lambda: _product_tau(star2, 2, None),
                    Fraction(31, 4320)),
        *(product_tau(name) for name in ("star2", "path4", "star4", "cycle5")),
        product("limit law", "star2", 64, lambda H, W: limit_law(H, W).tau2,
                _product_tau(star2, 2, 64)),
        product("t", "star2", 256, hom_density, _product_density(star2, 256)),
        product("t", "k4", 64, hom_density, _product_density(graphs["k4"], 64)),
        row("regularity defect above 1e-4", "star2", "product, m=256",
            lambda H, W: first_order(H, W).defect > 1e-4, True),
        row("copies in a sample", "k3", "constant:1",
            lambda H, W: count_copies(H, sample_adjacency(W, 6, seed=11)), math.comb(6, 3)),
        # cycle4 takes the Moebius sum over four quotients, k4 the pinning branch
        _ClosedForm("cycle4, k4, star3 and path3 counts in K_6 and K_9",
                    lambda: [count_copies(graphs[x], LabeledGraph.complete(n))
                             for n in (6, 9) for x in ("cycle4", "k4", "star3", "path3")],
                    [c for n in (6, 9) for c in (3 * math.comb(n, 4), math.comb(n, 4),
                                                 n * math.comb(n - 1, 3), math.perm(n, 4) // 2)]),
    ]


def _cmd_selftest(_args) -> int:
    rows, failures = _closed_forms(), 0
    for row in rows:
        try:
            ok, note = row.holds(), ""
        except Exception as exc:  # a crash is a failure, not a usage error
            ok, note = False, f" ({type(exc).__name__}: {exc})"
        failures += not ok
        print(f"{'ok' if ok else 'FAIL'} - {row.name}{note}")
    print(f"{'PASS' if failures == 0 else 'FAIL'}: {len(rows) - failures} ok, {failures} failed")
    return 0 if failures == 0 else 1


def _cells(text: str) -> int:
    """The --m value: a positive number of cells."""
    try:
        m = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}") from None
    if m < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return m


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphonlab",
        description="Subgraph-count statistics and limit laws for W-random graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kernel_opts(p):
        p.add_argument("--pattern", required=True, help="pattern JSON file or builtin name")
        p.add_argument("--kernel", required=True, help="constant:p | product | two_block:p | custom:FILE")
        p.add_argument("--m", type=_cells, default=DEFAULT_DISCRETIZATION,
                       help="cells used to discretize analytic kernels")

    tol_help = "largest regularity defect, relative to t, still called regular"
    p = sub.add_parser("density", help="print t(pattern, kernel)")
    add_kernel_opts(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("regularity",
                       help="print the regularity defect, relative to t, and the verdict")
    add_kernel_opts(p)
    p.add_argument("--tol", type=float, default=REGULARITY_TOL, help=tol_help)
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("constants", help="print tau2, sigma2, d_wh and the reduced spectrum")
    add_kernel_opts(p)
    p.add_argument("--tol", type=float, default=REGULARITY_TOL, help=tol_help)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("spectrum", help="print the spectrum JSON of the kernel (or of the"
                                        " two-point conditional kernel when --pattern is given)")
    p.add_argument("--pattern", help="optional pattern JSON file or builtin name")
    p.add_argument("--kernel", required=True)
    p.add_argument("--m", type=_cells, default=DEFAULT_DISCRETIZATION)
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
        _check_tolerance(getattr(args, "tol", 0.0), "--tol")
        return args.func(args)
    except DegenerateGraphonError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
