"""Subgraph-count fluctuations in W-random graphs.

Exact homomorphism densities and spectra on step graphons, the limit-law
constants for centered subgraph counts, a reproducible sampler, and a Monte
Carlo verification harness.
"""

from .density import conditional_density, hom_density, mean_count, two_point_graphon
from .graphon import (
    DEFAULT_DISCRETIZATION,
    KernelSpec,
    StepGraphon,
    as_step_graphon,
    discretize,
)
from .graphs import (
    LabeledGraph,
    automorphism_count,
    count_copies,
    count_injective_homomorphisms,
)
from .limits import (
    REGULARITY_TOL,
    DegenerateGraphonError,
    LimitLaw,
    dwh,
    limit_law,
    regularity_defect,
    sample_limit,
    sigma_squared,
    tau_squared,
)
from .sampler import sample_graph
from .simulate import (
    ExperimentConfig,
    ExperimentResult,
    SampleRecord,
    ks_distance,
    run_experiment,
)
from .spectral import Spectrum, spec_minus, spectrum

__version__ = "0.1.0"

__all__ = [
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
