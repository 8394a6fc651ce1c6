"""Package surface: the public names, the join machinery that lives only
in the test oracles, and the one contraction engine."""

import importlib
import pkgutil
import sys

import numpy as np
from conftest import ZOO

import graphonlab
from graphonlab import (
    KernelSpec,
    LabeledGraph,
    as_step_graphon,
    cli,
    conditional_density,
    count_copies,
    discretize,
    hom_density,
    limit_law,
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
    "is_regular",
    "ks_distance",
    "limit_law",
    "mean_count",
    "normalized_statistic",
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
        for name in ("vertex_join", "weak_edge_join", "strong_edge_join", "MultiGraph"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


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
