"""Subgraph-count fluctuations in W-random graphs.

Exact homomorphism densities and spectra on step graphons, the limit-law
constants for centered subgraph counts, a reproducible sampler, and a Monte
Carlo verification harness.
"""

from .density import conditional_density, hom_density, mean_count, two_point_graphon
from .graphon import KernelSpec, StepGraphon, as_step_graphon, discretize
from .graphs import LabeledGraph, count_copies
from .limits import (
    REGULARITY_TOL,
    DegenerateGraphonError,
    LimitLaw,
    first_order,
    limit_law,
    sample_limit,
    sigma_squared,
)
from .sampler import sample_graph
from .simulate import ExperimentConfig, ks_distance, run_experiment
from .spectral import spec_minus, spectrum

__version__ = "0.1.0"

__all__ = [
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
