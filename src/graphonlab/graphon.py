"""Step graphons and parametric kernels.

A step graphon is a block partition of [0,1] (weights pi summing to 1)
together with a symmetric block-value matrix B. Blocks are left-closed,
and the last block is closed at 1. The same container also holds derived
symmetric kernels whose values may leave [0,1].
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# Uniform cells used when an analytic kernel has to become a step graphon.
DEFAULT_DISCRETIZATION = 256

KIND_CONSTANT = "constant"
KIND_PRODUCT = "product"
KIND_TWO_BLOCK = "two_block"
KIND_CUSTOM = "custom"

# The keys besides "kind" of each kernel kind's JSON form.
_KERNEL_KEYS = {KIND_CONSTANT: ("p",), KIND_PRODUCT: (), KIND_TWO_BLOCK: ("p",),
                KIND_CUSTOM: ("pi", "B")}


def _json_int(value, what: str) -> int:
    """An integer read from JSON; a bool, a string or a non-integral number
    is refused, not converted."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _json_real(value, what: str) -> float:
    """A finite number read from JSON; a bool or a string is refused, not
    converted."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):  # NaN fails this too
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True, eq=False)
class StepGraphon:
    """Piecewise-constant symmetric kernel on [0,1]^2."""

    block_weights: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        pi = np.array(self.block_weights, dtype=float)
        B = np.array(self.values, dtype=float)
        if pi.ndim != 1 or pi.size == 0:
            raise ValueError("block_weights must be a non-empty vector")
        # NaN passes the sign and sum checks below, and inf can be symmetric
        if not (np.all(np.isfinite(pi)) and np.all(np.isfinite(B))):
            raise ValueError("block weights and values must be finite")
        if np.any(pi <= 0):
            raise ValueError("block weights must be positive")
        if abs(float(pi.sum()) - 1.0) > 1e-12:
            raise ValueError("block weights must sum to 1 within 1e-12")
        if B.shape != (pi.size, pi.size):
            raise ValueError("values must be a k x k matrix matching block_weights")
        if not np.array_equal(B, B.T):
            raise ValueError("values matrix must be exactly symmetric")
        pi.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "block_weights", pi)
        object.__setattr__(self, "values", B)

    @property
    def block_count(self) -> int:
        return self.block_weights.size

    @property
    def is_probability_kernel(self) -> bool:
        """True when every value lies in [0,1] (a genuine graphon)."""
        return bool(np.all(self.values >= 0.0) and np.all(self.values <= 1.0))

    def block_index(self, x) -> np.ndarray | int:
        """Block containing each coordinate; the last block is closed at 1."""
        arr = np.asarray(x, dtype=float)
        if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails both comparisons
            raise ValueError("coordinates must be finite and lie in [0,1]")
        inner = np.cumsum(self.block_weights)[:-1]
        idx = np.searchsorted(inner, arr, side="right")
        return idx if arr.ndim else int(idx)

    def degree(self) -> np.ndarray:
        """Block-constant degree function: d_i = sum_j pi_j B_ij."""
        return self.values @ self.block_weights


@dataclass(frozen=True)
class KernelSpec:
    """Tagged description of a kernel: constant p, the product kernel
    W(x,y) = xy, the two-block diagonal graphon, or an explicit grid."""

    kind: str
    p: float | None = None
    block_weights: tuple[float, ...] | None = None
    values: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind in (KIND_CONSTANT, KIND_TWO_BLOCK):
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise ValueError(f"{self.kind} kernel needs a parameter p in [0,1]")
        elif self.kind == KIND_PRODUCT:
            if self.p is not None:
                raise ValueError("product kernel takes no parameter")
        elif self.kind == KIND_CUSTOM:
            if self.block_weights is None or self.values is None:
                raise ValueError("custom kernel needs block weights and values")
            # Constructor below validates the actual grid.
            StepGraphon(np.asarray(self.block_weights), np.asarray(self.values))
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    @classmethod
    def constant(cls, p: float) -> "KernelSpec":
        return cls(KIND_CONSTANT, p=p)

    @classmethod
    def product(cls) -> "KernelSpec":
        return cls(KIND_PRODUCT)

    @classmethod
    def two_block_diagonal(cls, p: float) -> "KernelSpec":
        """Value p on [0,1/2]^2 and [1/2,1]^2, zero elsewhere."""
        return cls(KIND_TWO_BLOCK, p=p)

    @classmethod
    def custom(cls, block_weights: Sequence[float], values) -> "KernelSpec":
        vals = tuple(tuple(float(x) for x in row) for row in values)
        return cls(KIND_CUSTOM, block_weights=tuple(float(w) for w in block_weights), values=vals)

    def to_json_dict(self) -> dict:
        if self.kind == KIND_PRODUCT:
            return {"kind": self.kind}
        if self.kind == KIND_CUSTOM:
            return {
                "kind": self.kind,
                "pi": list(self.block_weights),
                "B": [list(row) for row in self.values],
            }
        return {"kind": self.kind, "p": self.p}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "KernelSpec":
        """The kernel of a JSON object holding its kind and exactly the keys of
        that kind; a custom kernel's "pi" is a list and its "B" a list of rows."""
        kind = data.get("kind") if isinstance(data, Mapping) else None
        keys = _KERNEL_KEYS.get(kind) if isinstance(kind, str) else None
        if keys is None or {"kind", *keys} != set(data):
            known = "; ".join(f"{k}: {', '.join(ks) or 'none'}" for k, ks in _KERNEL_KEYS.items())
            raise ValueError(f'a kernel is an object with a "kind" and its keys ({known}), '
                             f"got {data!r}")
        if kind == KIND_PRODUCT:
            return cls.product()
        if kind == KIND_CUSTOM:
            pi, B = data["pi"], data["B"]
            if not (isinstance(pi, list) and isinstance(B, list)
                    and all(isinstance(row, list) for row in B)):
                raise ValueError(f'a custom kernel needs lists "pi" and "B", got {data!r}')
            return cls.custom([_json_real(w, "pi entry") for w in pi],
                              [[_json_real(x, "B entry") for x in row] for row in B])
        return cls(kind, p=_json_real(data["p"], f"{kind} kernel p"))


def _cell_average_step(breaks: np.ndarray, B: np.ndarray, m: int) -> np.ndarray:
    """Exact averages of a step kernel (breakpoints `breaks`) over the uniform
    m x m cell grid."""
    edges = np.linspace(0.0, 1.0, m + 1)
    lo = np.maximum.outer(edges[:-1], breaks[:-1])
    hi = np.minimum.outer(edges[1:], breaks[1:])
    overlap = np.clip(hi - lo, 0.0, None)  # m x k
    avg = (overlap @ B @ overlap.T) * (m * m)
    return (avg + avg.T) / 2.0  # matmul rounding can break exact symmetry


def discretize(spec: KernelSpec, m: int) -> StepGraphon:
    """Step graphon on m uniform blocks whose values are the exact cell
    averages of the kernel.

    For the product kernel the cell average of xy equals the product of the
    cell midpoints, so edge densities are preserved exactly.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    pi = np.full(m, 1.0 / m)
    if spec.kind == KIND_CONSTANT:
        B = np.full((m, m), float(spec.p))
    elif spec.kind == KIND_PRODUCT:
        mid = (np.arange(m) + 0.5) / m
        B = np.outer(mid, mid)
    else:  # two_block and custom: the blocks of the exact step kernel
        W = as_step_graphon(spec)
        breaks = np.concatenate(([0.0], np.cumsum(W.block_weights)))
        breaks[-1] = 1.0
        B = _cell_average_step(breaks, W.values, m)
    return StepGraphon(pi, B)


def as_step_graphon(spec: KernelSpec, m: int = DEFAULT_DISCRETIZATION) -> StepGraphon:
    """Exact step representation when the kernel already is a step function;
    otherwise the m-block discretization."""
    if spec.kind == KIND_CONSTANT:
        return StepGraphon(np.array([1.0]), np.array([[float(spec.p)]]))
    if spec.kind == KIND_TWO_BLOCK:
        return StepGraphon(
            np.array([0.5, 0.5]), np.array([[spec.p, 0.0], [0.0, spec.p]], dtype=float)
        )
    if spec.kind == KIND_CUSTOM:
        return StepGraphon(np.asarray(spec.block_weights), np.asarray(spec.values))
    return discretize(spec, m)
