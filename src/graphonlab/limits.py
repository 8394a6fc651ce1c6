"""Limit laws for centered subgraph counts.

Two branches: when the kernel is not pattern-regular the count, centered and
scaled by n^(v - 1/2), is asymptotically Gaussian with variance tau2; when it
is regular the scale is n^(v - 1) and the limit is sigma * Z plus an
independent weighted sum of centered chi-square variables whose weights are
the nonzero eigenvalues of the two-point conditional kernel with one copy of
its degree eigenvalue removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .density import REGULARITY_TOL, hom_density, regularity_defect, two_point_graphon
from .graphon import StepGraphon
from .graphs import (
    PATTERN_VERTEX_BOUND,
    LabeledGraph,
    automorphism_count,
    strong_edge_join,
    vertex_join,
    weak_edge_join,
)
from .spectral import DEGREE_MATCH_TOL, EIGENVALUE_TRUNCATION_TOL, dwh, spec_minus, spectrum

GAUSSIAN = "gaussian"
MIXTURE = "mixture"

# Variance formulas are nonnegative; rounding this far below zero is clamped,
# anything worse is treated as a bug.
VARIANCE_CLAMP_TOL = 1e-10

# Normal draws per step of a chi-square term in sample_limit.
_DRAW_CHUNK = 4096


@dataclass(frozen=True)
class LimitLaw:
    """Either Gaussian(tau2) at exponent v - 1/2 or a Gaussian-plus-chi-square
    mixture (sigma2, lambdas) at exponent v - 1."""

    kind: str
    scale_exponent: float
    tau2: float | None = None
    sigma2: float | None = None
    lambdas: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind == GAUSSIAN:
            if self.tau2 is None or self.tau2 < 0:
                raise ValueError("gaussian law needs tau2 >= 0")
            if self.sigma2 is not None or self.lambdas:
                raise ValueError("gaussian law carries no mixture parameters")
        elif self.kind == MIXTURE:
            if self.sigma2 is None or self.sigma2 < 0:
                raise ValueError("mixture law needs sigma2 >= 0")
            if self.tau2 is not None:
                raise ValueError("mixture law carries no tau2")
        else:
            raise ValueError(f"unknown law kind {self.kind!r}")

    @classmethod
    def gaussian(cls, tau2: float, vertex_count: int) -> "LimitLaw":
        return cls(GAUSSIAN, vertex_count - 0.5, tau2=tau2)

    @classmethod
    def mixture(cls, sigma2: float, lambdas, vertex_count: int) -> "LimitLaw":
        return cls(MIXTURE, vertex_count - 1.0, sigma2=sigma2, lambdas=tuple(lambdas))

    @property
    def variance(self) -> float:
        """Variance of the limiting distribution; a centered chi-square with
        weight lambda contributes 2 lambda^2."""
        if self.kind == GAUSSIAN:
            return float(self.tau2)
        return float(self.sigma2) + 2.0 * float(sum(l * l for l in self.lambdas))

    def to_json_dict(self) -> dict:
        if self.kind == GAUSSIAN:
            return {"kind": self.kind, "tau2": self.tau2, "scale_exponent": self.scale_exponent}
        return {
            "kind": self.kind,
            "sigma2": self.sigma2,
            "lambdas": list(self.lambdas),
            "scale_exponent": self.scale_exponent,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LimitLaw":
        if data["kind"] == GAUSSIAN:
            return cls(GAUSSIAN, float(data["scale_exponent"]), tau2=float(data["tau2"]))
        return cls(
            MIXTURE,
            float(data["scale_exponent"]),
            sigma2=float(data["sigma2"]),
            lambdas=tuple(float(x) for x in data["lambdas"]),
        )


def _clamp_variance(raw: float, name: str) -> float:
    if raw < 0.0:
        if raw < -VARIANCE_CLAMP_TOL:
            raise RuntimeError(f"{name} computed as {raw!r}; genuinely negative, likely a bug")
        return 0.0
    return raw


def tau_squared(H: LabeledGraph, W: StepGraphon) -> float:
    """Gaussian-branch variance: over all ordered vertex pairs (a, b), the
    density of H glued to itself at a ~ b, minus v^2 t(H,W)^2, divided by
    |Aut(H)|^2."""
    v = H.vertex_count
    if 2 * v - 1 > PATTERN_VERTEX_BOUND:
        raise ValueError(
            f"vertex join of the pattern with itself has {2 * v - 1} vertices, "
            f"above the {PATTERN_VERTEX_BOUND}-vertex bound"
        )
    aut = automorphism_count(H)
    t = hom_density(H, W)
    total = 0.0
    for a in range(1, v + 1):
        for b in range(1, v + 1):
            total += hom_density(vertex_join(H, a, H, b), W)
    return _clamp_variance((total - v * v * t * t) / (aut * aut), "tau_squared")


def sigma_squared(H: LabeledGraph, W: StepGraphon) -> float:
    """Mixture-branch Gaussian variance: 2/|Aut(H)|^2 times the sum over
    ordered pairs of edges of (weak-join density minus strong-join density).

    Each term integrates W(1-W) against a nonnegative factor, so every term
    is individually nonnegative.
    """
    v = H.vertex_count
    if 2 * v - 2 > PATTERN_VERTEX_BOUND:
        raise ValueError(
            f"edge join of the pattern with itself has {2 * v - 2} vertices, "
            f"above the {PATTERN_VERTEX_BOUND}-vertex bound"
        )
    aut = automorphism_count(H)
    edges = H.sorted_edges()
    if not edges:
        raise ValueError("pattern has no edges")
    total = 0.0
    for e in edges:
        for f in edges:
            total += hom_density(weak_edge_join(H, e, H, f), W)
            total -= hom_density(strong_edge_join(H, e, H, f), W)
    return _clamp_variance(2.0 * total / (aut * aut), "sigma_squared")


def limit_law(
    H: LabeledGraph,
    W: StepGraphon,
    regularity_tol: float = REGULARITY_TOL,
    eigenvalue_tol: float = EIGENVALUE_TRUNCATION_TOL,
    degree_match_tol: float = DEGREE_MATCH_TOL,
) -> LimitLaw:
    """Decide the branch from the regularity defect and assemble the law.

    Raises DegenerateGraphonError (through the defect computation) for the
    all-ones kernel and for H-free kernels.
    """
    defect = regularity_defect(H, W)
    v = H.vertex_count
    if defect > regularity_tol:
        return LimitLaw.gaussian(tau_squared(H, W), v)
    spec = spectrum(two_point_graphon(H, W), truncation_tol=eigenvalue_tol)
    lambdas = spec_minus(spec, dwh(H, W), tol=degree_match_tol)
    return LimitLaw.mixture(sigma_squared(H, W), lambdas.tolist(), v)


def sample_limit(law: LimitLaw, seed: int, count: int) -> np.ndarray:
    """i.i.d. draws from the limit law, deterministic given the seed.

    Mixture draws are sigma*Z + sum_lambda lambda*(Z_lambda^2 - 1) with all
    normals independent; the Philox stream is consumed in a fixed order.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    draws = rng.standard_normal(count)
    draws *= np.sqrt(law.tau2 if law.kind == GAUSSIAN else law.sigma2)
    for lam in law.lambdas:
        # lam * (z * z - 1.0) in place, one chunk of the stream at a time
        for i in range(0, count, _DRAW_CHUNK):
            z = rng.standard_normal(min(_DRAW_CHUNK, count - i))
            z *= z
            z -= 1.0
            z *= lam
            draws[i : i + z.size] += z
    return draws
