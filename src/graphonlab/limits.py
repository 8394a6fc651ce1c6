"""Limit laws for centered subgraph counts.

Two branches: when the kernel is not pattern-regular the count, centered and
scaled by n^(v - 1/2), is asymptotically Gaussian with variance tau2; when it
is regular the scale is n^(v - 1) and the limit is sigma * Z plus an
independent weighted sum of centered chi-square variables whose weights are
the nonzero eigenvalues of the two-point conditional kernel with one copy of
its degree eigenvalue removed.

Both variances come from Hoeffding projections of the count as a
generalized U-statistic (Janson and Nowicki, PTRF 1991), so they need only
conditional densities of H itself, with no pattern glued to itself:

    tau2   = int (S - v t(H,W))^2 / |Aut H|^2,          S = sum_a t_a
    sigma2 = 2 int W(1-W) S2^2 / |Aut H|^2,   S2 = sum_(a,b) t_{H-ab}

over the vertices a and the sorted edges (a, b) of H, with t_{H-ab} the
two-point conditional density of H minus that edge, a at x and b at y.
S is the first Hoeffding projection of the count: W is H-regular exactly
when it is constant, and first_order derives t(H,W), the regularity
defect, tau2 and the degree d_wh of the two-point kernel from (t, S).

Every tolerance is relative, so the branch and the spectrum do not depend
on how sparse W is: replacing W by rho W multiplies t, S, the two-point
kernel and its eigenvalues by rho^e(H), and the defect is taken relative
to t, eigenvalue truncation relative to the largest |eigenvalue| and the
degree match relative to d_wh.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .density import conditional_density, hom_density, two_point_graphon
from .graphon import StepGraphon, _integer
from .graphs import LabeledGraph
from .spectral import spec_minus, spectrum

GAUSSIAN = "gaussian"
MIXTURE = "mixture"

# A step computation is declared regular when the defect, relative to t, is
# at most this.
REGULARITY_TOL = 1e-10


class DegenerateGraphonError(ValueError):
    """The pair (H, W) pins the subgraph count almost surely: W is the
    all-ones kernel, H has no edges, or H has zero density in W."""


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
        # NaN fails each comparison below, so it is refused with inf
        if self.kind == GAUSSIAN:
            if self.tau2 is None or not 0.0 <= self.tau2 < math.inf:
                raise ValueError(f"gaussian law needs a finite tau2 >= 0, got {self.tau2!r}")
            if self.sigma2 is not None or self.lambdas:
                raise ValueError("gaussian law carries no mixture parameters")
        elif self.kind == MIXTURE:
            if self.sigma2 is None or not 0.0 <= self.sigma2 < math.inf:
                raise ValueError(f"mixture law needs a finite sigma2 >= 0, got {self.sigma2!r}")
            if not all(-math.inf < lam < math.inf for lam in self.lambdas):
                raise ValueError(f"mixture law needs finite lambdas, got {self.lambdas!r}")
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


def _refuse(H: LabeledGraph, W: StepGraphon, t: float | None = None) -> None:
    """The refusals of every limit constant (see first_order); given t, or a
    sum that is 0 exactly when t(H, W) is, only that of an H-free kernel."""
    if t is not None:
        if t == 0.0:
            raise DegenerateGraphonError("pattern has zero density in the kernel; count is a.s. 0")
    elif not W.is_probability_kernel:
        raise ValueError("limit constants are defined for kernels with values in [0,1]")
    elif np.all(W.values == 1.0):
        raise DegenerateGraphonError("kernel is identically 1; count is a.s. constant")
    elif not H.edges:
        raise DegenerateGraphonError("pattern has no edges; count is a.s. C(n, v)")


def _check_tolerance(tol, what: str) -> None:
    """Refuses a regularity tolerance `what` that is not a finite number >= 0:
    NaN or inf sends every kernel to the mixture branch, -1 to the Gaussian,
    and a bool is no tolerance at all."""
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not 0.0 <= tol < math.inf):  # NaN fails this too
        raise ValueError(f"{what} must be finite and >= 0, got {tol!r}")


class FirstOrder(NamedTuple):
    t: float
    defect: float
    tau2: float
    d_wh: float


def first_order(H: LabeledGraph, W: StepGraphon) -> FirstOrder:
    """t(H, W), the regularity defect, tau2 and d_wh of one (H, W), all from
    t and the one-point sum S = sum_a t_a, summed in vertex order.

    Zero defect, the sup-norm distance between S / v and t relative to t,
    switches the law to the mixture branch. tau2 is the variance of S over
    |Aut H|^2: exactly 0 when S is constant. d_wh = v (v-1) / (2 |Aut H|) t
    is the degree of the two-point kernel when W is H-regular, advisory
    otherwise.
    Raises ValueError for kernels with values outside [0,1], and
    DegenerateGraphonError for the all-ones kernel, edgeless patterns and
    H-free kernels.
    """
    _refuse(H, W)
    t = hom_density(H, W)
    _refuse(H, W, t)
    v, aut = H.vertex_count, H.counting_plan.automorphisms
    S = sum(conditional_density(H, (a,), W) for a in range(1, v + 1))
    defect = float(np.max(np.abs(S / v - t))) / t
    centered = S - float(W.block_weights @ S)
    tau2 = float(W.block_weights @ centered**2) / (aut * aut)
    return FirstOrder(t, defect, tau2, v * (v - 1) / (2 * aut) * t)


def sigma_squared(H: LabeledGraph, W: StepGraphon) -> float:
    """Mixture-branch Gaussian variance 2/|Aut(H)|^2 * pi^T [W(1-W) S2^2] pi,
    S2 the sum over sorted edges (a, b) of the two-point conditional density
    of H - ab, a on rows. Expanding S2^2 gives the weak- minus strong-join
    densities of H glued to itself along ordered edge pairs (a ~ c, b ~ d).
    Refuses what first_order refuses, with the same error, an H-free kernel
    after the e contractions. On the others every summand is >= 0, so the
    sum is too.
    """
    _refuse(H, W)
    aut = H.counting_plan.automorphisms
    S2 = sum(conditional_density(LabeledGraph(H.vertex_count, set(H.edges) - {e}), e, W)
             for e in H.edges)
    # each edge's W t_{H-e} integrates to t, so pi^T (W S2) pi = e t; no term
    # is negative and pi > 0, so the unweighted sum of W S2 is 0 exactly when t is
    _refuse(H, W, float(np.vdot(W.values, S2)))
    # W (1 - W) S2^2 in place, rounded as W * (1 - W) * S2**2 rounds it
    weighted = 1.0 - W.values
    weighted *= W.values
    S2 *= S2
    weighted *= S2
    total = float(W.block_weights @ weighted @ W.block_weights)
    return 2.0 * total / (aut * aut)


def limit_law(H: LabeledGraph, W: StepGraphon, regularity_tol: float = REGULARITY_TOL) -> LimitLaw:
    """Decide the branch from the regularity defect and assemble the law;
    a regularity_tol that is NaN, infinite or negative is refused."""
    _check_tolerance(regularity_tol, "regularity_tol")
    _, defect, tau2, d_wh = first_order(H, W)
    v = H.vertex_count
    if defect > regularity_tol:
        return LimitLaw.gaussian(tau2, v)
    lambdas = spec_minus(spectrum(two_point_graphon(H, W)), d_wh)
    return LimitLaw.mixture(sigma_squared(H, W), lambdas.tolist(), v)


def sample_limit(law: LimitLaw, seed: int, count: int) -> np.ndarray:
    """i.i.d. draws from the limit law, deterministic given the seed.

    Mixture draws are sigma*Z + sum_lambda lambda*(Z_lambda^2 - 1) with all
    normals independent; the Philox stream is consumed in a fixed order.
    """
    if _integer(count, "count") < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    draws = rng.standard_normal(count)
    draws *= np.sqrt(law.tau2 if law.kind == GAUSSIAN else law.sigma2)
    for lam in law.lambdas:
        # lam * (z * z - 1.0) in place, so z is the only temporary
        z = rng.standard_normal(count)
        z *= z
        z -= 1.0
        z *= lam
        draws += z
    return draws
