"""Package surface: the public names, the join machinery that lives only
in the test oracles, and the one contraction engine."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
from conftest import ZOO

import graphonlab
from graphonlab import (
    KernelSpec,
    LabeledGraph,
    as_step_graphon,
    automorphism_count,
    cli,
    conditional_density,
    count_copies,
    discretize,
    hom_density,
    limit_law,
    spec_minus,
    spectrum,
)

PUBLIC_NAMES = [
    "DEFAULT_DISCRETIZATION",
    "DegenerateGraphonError",
    "ExperimentConfig",
    "ExperimentResult",
    "KernelSpec",
    "LabeledGraph",
    "LimitLaw",
    "REGULARITY_TOL",
    "SampleRecord",
    "Spectrum",
    "StepGraphon",
    "as_step_graphon",
    "automorphism_count",
    "conditional_density",
    "count_copies",
    "count_injective_homomorphisms",
    "discretize",
    "dwh",
    "hom_density",
    "ks_distance",
    "limit_law",
    "mean_count",
    "regularity_defect",
    "run_experiment",
    "sample_graph",
    "sample_limit",
    "sigma_squared",
    "spec_minus",
    "spectrum",
    "tau_squared",
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
        # nor a twin of limits._first_order, the one home of t, defect, tau2 and d_wh
        for name in ("vertex_join", "weak_edge_join", "strong_edge_join", "MultiGraph",
                     "_one_point_sum", "_density_and_one_point_sum", "_defect",
                     "_tau_squared_of", "_degree_value", "is_regular"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_sampler_only_samples():
    from graphonlab import density, limits, sampler, simulate

    above = {module.__name__ for module in (density, limits, simulate)}
    for name, value in vars(sampler).items():
        home = value.__name__ if inspect.ismodule(value) else getattr(value, "__module__", None)
        assert home not in above, f"graphonlab.sampler.{name} comes from {home}"


def test_automorphisms_are_enumerated_only_for_the_counting_plan():
    # everything else reads |Aut H| from H.counting_plan; cli's selftest
    # checks the enumeration itself
    for info in pkgutil.iter_modules(graphonlab.__path__):
        if info.name not in ("graphs", "cli"):
            source = inspect.getsource(importlib.import_module(f"graphonlab.{info.name}"))
            assert "automorphism_count" not in source, info.name


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
    assert list(inspect.signature(spectrum).parameters) == ["kernel"]
    assert list(inspect.signature(spec_minus).parameters) == ["spec", "degree_value"]
    assert list(inspect.signature(automorphism_count).parameters) == ["H"]


def test_plain_pytest_finds_the_sources():
    root = Path(__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "tests/test_package.py"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
