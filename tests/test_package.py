"""Package surface: the public names, the join machinery that lives only
in the test oracles, and the one contraction engine."""

import importlib
import inspect
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
from conftest import ZOO

import graphonlab
from graphonlab import (
    DegenerateGraphonError,
    KernelSpec,
    LabeledGraph,
    StepGraphon,
    as_step_graphon,
    cli,
    conditional_density,
    count_copies,
    discretize,
    first_order,
    hom_density,
    limit_law,
    spec_minus,
    spectrum,
)
from graphonlab.spectral import Spectrum

PUBLIC_NAMES = [
    "DegenerateGraphonError",
    "ExperimentConfig",
    "KernelSpec",
    "LabeledGraph",
    "LimitLaw",
    "REGULARITY_TOL",
    "StepGraphon",
    "as_step_graphon",
    "conditional_density",
    "count_copies",
    "discretize",
    "first_order",
    "hom_density",
    "ks_distance",
    "limit_law",
    "mean_count",
    "run_experiment",
    "sample_graph",
    "sample_limit",
    "sigma_squared",
    "spec_minus",
    "spectrum",
    "two_point_graphon",
]


def test_public_names_are_pinned():
    # a new public name has to be added here on purpose
    assert sorted(graphonlab.__all__) == PUBLIC_NAMES
    assert all(hasattr(graphonlab, name) for name in PUBLIC_NAMES)


def test_no_module_holds_join_machinery():
    # every module of the package, loaded, plus any other loaded under its name
    for info in pkgutil.iter_modules(graphonlab.__path__):
        importlib.import_module(f"graphonlab.{info.name}")
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "graphonlab"]
    for module in modules:
        # nor a twin of limits.first_order, the one home of t, defect, tau2 and
        # d_wh, nor of count_copies or the counting plan's |Aut H|, nor a
        # second front end to the elimination engine, nor test-only API
        for name in ("vertex_join", "weak_edge_join", "strong_edge_join", "MultiGraph",
                     "_one_point_sum", "_density_and_one_point_sum", "_defect",
                     "_tau_squared_of", "_degree_value", "is_regular", "_first_order",
                     "regularity_defect", "tau_squared", "dwh",
                     "count_injective_homomorphisms", "_count_chunk", "automorphism_count",
                     "_cell_average_step", "_eliminate"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for name in ("has_edge", "empty", "sorted_edges"):
        assert not hasattr(LabeledGraph, name), f"LabeledGraph.{name}"
    for name in ("degree", "block_index"):
        assert not hasattr(StepGraphon, name), f"StepGraphon.{name}"
    assert not hasattr(DegenerateGraphonError("pattern has no edges"), "reason")
    for name in ("max_residual", "apply", "__len__"):
        assert not hasattr(Spectrum, name), f"Spectrum.{name}"


def test_sampler_only_samples():
    from graphonlab import density, limits, sampler, simulate

    above = {module.__name__ for module in (density, limits, simulate)}
    for name, value in vars(sampler).items():
        home = value.__name__ if inspect.ismodule(value) else getattr(value, "__module__", None)
        assert home not in above, f"graphonlab.sampler.{name} comes from {home}"


def test_no_module_enumerates_permutations():
    # |Aut H| is counted by the elimination engine in H.counting_plan, not by
    # trying the v! vertex permutations
    for info in pkgutil.iter_modules(graphonlab.__path__):
        source = inspect.getsource(importlib.import_module(f"graphonlab.{info.name}"))
        assert "permutations" not in source, info.name


def test_kernel_kinds_are_known_only_to_graphon():
    # the kinds table in graphon is the one place that lists them; everything
    # else asks a KernelSpec for its step form
    for info in pkgutil.iter_modules(graphonlab.__path__):
        if info.name != "graphon":
            source = inspect.getsource(importlib.import_module(f"graphonlab.{info.name}"))
            assert "KIND_" not in source and "spec.kind" not in source, info.name


def test_size_and_tolerance_refusals_are_raised_in_one_place_each():
    # graphs holds the host-size and pattern-size bounds and limits the
    # tolerance check; count_copies, the densities, the config and the CLI
    # call them
    sources = [inspect.getsource(importlib.import_module(f"graphonlab.{info.name}"))
               for info in pkgutil.iter_modules(graphonlab.__path__)]
    for refusal in ("reaches 2^53", "must be finite and >= 0", "pattern limited to"):
        assert sum(source.count(refusal) for source in sources) == 1, refusal


def test_package_never_calls_einsum(monkeypatch, capsys):
    # numpy.einsum refuses only while package code runs; the test oracles
    # use it afterwards
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.einsum called from package code")

    star2 = LabeledGraph.star(2)
    product = discretize(KernelSpec.product(), 16)
    two_block = as_step_graphon(KernelSpec.two_block_diagonal(0.5))
    upper = np.triu(np.random.default_rng(5).random((12, 12)) < 0.5, 1)
    host = (upper | upper.T).astype(float)
    with monkeypatch.context() as patched:
        patched.setattr(np, "einsum", refuse)
        patched.setattr(np, "einsum_path", refuse)
        for H in ZOO.values():
            hom_density(H, product)
            conditional_density(H, (2, 1), product)
            count_copies(H, host)
        kinds = [limit_law(star2, product).kind, limit_law(star2, two_block).kind]
        code = cli.main(["constants", "--pattern", "k4", "--kernel", "product", "--m", "8"])
    assert kinds == ["gaussian", "mixture"]
    assert code == 0
    assert "refined_t = " in capsys.readouterr().out
    assert np.einsum is not refuse


def test_only_the_regularity_tolerance_is_a_parameter():
    # truncation, degree matching and the pattern size bound are module
    # constants; regularity_tol is set by configs
    assert list(inspect.signature(limit_law).parameters) == ["H", "W", "regularity_tol"]
    assert list(inspect.signature(first_order).parameters) == ["H", "W"]
    assert list(inspect.signature(spectrum).parameters) == ["kernel"]
    assert list(inspect.signature(spec_minus).parameters) == ["spec", "degree_value"]


def test_plain_pytest_finds_the_sources():
    root = Path(__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "tests/test_package.py"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_readme_python_blocks_run():
    # the library tour runs as printed, its blocks in order in one namespace
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_readme_commands_run(tmp_path):
    # each command of the "Command line" block exits 0 as printed; simulate
    # reads the smoke config in place of exp.json and writes into tmp_path
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```\n(.*?)^```$", readme,
                      flags=re.MULTILINE | re.DOTALL)
    commands = [shlex.split(line)[1:] for line in block.group(1).splitlines()
                if line.startswith("graphonlab ")]
    assert [argv[0] for argv in commands] == [
        "density", "regularity", "constants", "spectrum", "simulate", "selftest"]
    paths = {"exp.json": str(root / "configs" / "quick_smoke.json"), "results/": str(tmp_path)}
    for argv in commands:
        assert cli.main([paths.get(arg, arg) for arg in argv]) == 0, argv
    assert (tmp_path / "result.json").is_file()
