"""Package surface: the public names, and the join machinery that lives
only in the test oracles."""

import importlib
import pkgutil
import sys

import graphonlab

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
