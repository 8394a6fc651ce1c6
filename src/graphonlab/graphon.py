"""Step graphons and the kernels named by kind.

A step graphon is a block partition of [0,1] (weights pi summing to 1)
together with a symmetric block-value matrix B. Blocks are left-closed,
and the last block is closed at 1; derived kernels may leave [0,1].
A `KernelSpec` is a kind and the values of its keys. Only the table
`_KINDS` lists the kinds: each kind's JSON keys, and its exact step form,
or None for the analytic kind, which is discretized on m uniform cells.
A step kind on m cells averages its blocks by each cell's share of them.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

# Uniform cells used when an analytic kernel has to become a step graphon.
DEFAULT_DISCRETIZATION = 256

# kind: (JSON keys besides "kind", their values -> (block weights, block values) or None)
_KINDS = {
    "constant": (("p",), lambda p: ([1.0], [[p]])),
    "product": ((), None),
    "two_block": (("p",), lambda p: ([0.5, 0.5], [[p, 0.0], [0.0, p]])),
    "custom": (("pi", "B"), lambda pi, B: (pi, B)),
}


def _integer(value, what: str) -> int:
    """An integer, numpy's too, as an int; a bool, a float or a string is refused."""
    if type(value) is int or not isinstance(value, bool) and isinstance(value, numbers.Integral):
        return int(value)  # an int is checked first: the ABC check costs about 0.7 us
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _json_int(value, what: str) -> int:
    """An integer read from JSON, where an integral number such as 2.0 is one."""
    return _integer(int(value) if isinstance(value, float) and value.is_integer() else value, what)


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

    @cached_property
    def is_probability_kernel(self) -> bool:
        """True when every value lies in [0,1] (a genuine graphon); worked
        out once, since the values are read-only."""
        return bool(np.all(self.values >= 0.0) and np.all(self.values <= 1.0))

    @cached_property
    def _inner_ends(self) -> np.ndarray:
        """Read-only running sums of the block weights at which every block
        but the last ends: block i holds the coordinates x with
        _inner_ends[i - 1] <= x < _inner_ends[i]."""
        ends = np.cumsum(self.block_weights)[:-1]
        ends.setflags(write=False)
        return ends

    def __reduce__(self):
        """A pickled graphon is its two arrays: the copy validates them again,
        so they are read-only there too, and it keeps no products."""
        return type(self), (self.block_weights, self.values)

    @cached_property
    def _two_steps(self) -> dict:
        """Read-only products (L * pi) @ R of kept factors L and R, keyed by
        (_kept(L), _kept(R)); see _two_step."""
        return {}

    def _kept(self, M: np.ndarray) -> tuple | None:
        """(id(K), transposed) when M is a kept array K, this graphon's values
        or a product kept in _two_steps, or the full transpose of one; None
        for any other array. The graphon holds every kept array, so an id
        names one array for the graphon's life."""
        K = M.base  # a transpose's base is the array it transposes
        transposed = (isinstance(K, np.ndarray) and M.shape == K.shape[::-1]
                      and M.strides == K.strides[::-1])
        if not transposed:
            K = M
        if K is self.values or any(P is K for P in self._two_steps.values()):
            return id(K), transposed
        return None

    def _two_step(self, left: np.ndarray, right: np.ndarray) -> np.ndarray | None:
        """(left * pi) @ right when `left` and `right` are both kept factors
        (see _kept): built once per key and kept with the graphon, read-only;
        None when either factor is not kept. Each product is built as a
        contraction would build it, on the same operands in the same layout,
        so BLAS sums it in the same order; products that are equal bit for
        bit share one array."""
        key = self._kept(left), self._kept(right)
        if None in key:
            return None
        if key not in self._two_steps:
            P = (left * self.block_weights) @ right
            bits = P.view(np.int64)  # so that 0.0 and -0.0 differ
            built = self._two_steps.values()
            P = next((Q for Q in built if np.array_equal(Q.view(np.int64), bits)), P)
            P.setflags(write=False)
            self._two_steps[key] = P
        return self._two_steps[key]


@dataclass(frozen=True)
class KernelSpec:
    """A kernel named by its kind and the values of that kind's keys, in the
    order `_KINDS` lists them: constant p, the product kernel W(x,y) = xy,
    the two-block diagonal graphon, or an explicit grid ("pi", "B")."""

    kind: str
    params: tuple = ()

    def __post_init__(self) -> None:
        entry = _KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if (entry is None or not isinstance(self.params, (list, tuple))
                or len(self.params) != len(entry[0])):
            raise _kernel_error(self)
        what = [f"{self.kind} kernel {key}" for key in entry[0]]
        object.__setattr__(self, "params", tuple(map(_reals, self.params, what)))
        try:  # builds, and so validates, the step form, kept outside eq, hash and repr
            W = None if entry[1] is None else StepGraphon(*entry[1](*self.params))
        except ValueError as err:
            raise ValueError(f"{self.kind} kernel {', '.join(entry[0])}: {err}") from err
        if W is not None and not W.is_probability_kernel:
            raise ValueError(f"{self.kind} kernel values must lie in [0,1], got {self.params!r}")
        object.__setattr__(self, "_step", W)

    @classmethod
    def constant(cls, p: float) -> "KernelSpec":
        return cls("constant", (p,))

    @classmethod
    def product(cls) -> "KernelSpec":
        return cls("product")

    @classmethod
    def two_block_diagonal(cls, p: float) -> "KernelSpec":
        """Value p on [0,1/2]^2 and [1/2,1]^2, zero elsewhere."""
        return cls("two_block", (p,))

    @classmethod
    def custom(cls, block_weights: Sequence[float], values) -> "KernelSpec":
        return cls("custom", (tuple(block_weights), tuple(map(tuple, values))))

    def step_graphon(self) -> StepGraphon | None:
        """The kernel's exact step form, or None for an analytic kernel; one
        graphon per spec, so the products it keeps live as long as the spec."""
        return self._step

    def to_json_dict(self) -> dict:
        def plain(value):  # tuples become JSON lists
            return [plain(x) for x in value] if isinstance(value, tuple) else value

        return {"kind": self.kind, **dict(zip(_KINDS[self.kind][0], map(plain, self.params)))}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "KernelSpec":
        """The kernel of a JSON object holding its kind and exactly the keys of
        that kind; a value is a number or a list of values (a custom kernel's
        "pi" is a list and its "B" a list of rows)."""
        kind = data.get("kind") if isinstance(data, Mapping) else None
        if not isinstance(kind, str):
            raise _kernel_error(data)
        given = [key for key in data if key != "kind"]
        keys = _KINDS[kind][0] if kind in _KINDS else given
        if set(keys) != set(given):
            if len(keys) == len(given):
                raise _kernel_error(data)
            keys = given  # the constructor refuses the wrong number of values
        return cls(kind, tuple(data[key] for key in keys))


def _reals(value, what: str):
    """A finite number as a float, or a rectangular nesting of lists or tuples
    of them as nested tuples; anything else is refused."""
    if not isinstance(value, (list, tuple)):
        return _json_real(value, what)
    items = tuple(_reals(x, what) for x in value)
    if len({len(x) if isinstance(x, tuple) else None for x in items}) > 1:
        raise ValueError(f"{what} must be rectangular, got {value!r}")
    return items


def _kernel_error(got) -> ValueError:
    """The refusal of a kernel that is not a known kind with exactly its keys."""
    known = "; ".join(f"{kind}: {', '.join(keys) or 'none'}" for kind, (keys, _) in _KINDS.items())
    return ValueError(f'a kernel is an object with a "kind" and its keys ({known}), got {got!r}')


@lru_cache(maxsize=4, typed=True)
def discretize(spec: KernelSpec, m: int) -> StepGraphon:
    """Step graphon on m uniform blocks whose values are the cell averages of
    the kernel. For a step kernel a cell lying inside one block gets exactly
    that block's value, and no value leaves the range of the block values;
    for the analytic kernel xy they are the products of the cell midpoints,
    which keep edge densities exact. An m that is not an integer, such as
    4.0, True or "4", is refused; the cache is typed, so a grid kept for 4
    never answers 4.0. A spec that is not a KernelSpec is refused too, but
    an unhashable one fails in the cache's key before this body runs.

    The graphon is shared and immutable: the last four grids asked for (the
    m and 2m of the last two `constants` or `regularity` calls) are kept, so
    a repeated call returns the same graphon, with every product it has
    already kept (B diag(pi) B, B diag(pi) B diag(pi) B and the like; see
    StepGraphon._two_step). The bound covers two calls: calls that cycle
    through more than four grids evict the one asked for least recently and
    rebuild it. The kept grids and their products stay in memory after the
    call returns, up to four grids of m^2 float64 values each;
    `discretize.cache_clear()` frees them, once no caller holds the grid.
    A step kernel's own graphon, the one `as_step_graphon` returns, and the
    products kept on it live as long as its spec."""
    if not isinstance(spec, KernelSpec):
        raise ValueError(f"spec must be a KernelSpec, got {spec!r}")
    if _integer(m, "m") < 1:
        raise ValueError("m must be a positive integer")
    W = spec.step_graphon()
    if W is None:
        mid = (np.arange(m) + 0.5) / m
        B = np.outer(mid, mid)
    else:
        edges, ends = np.linspace(0.0, 1.0, m + 1), np.cumsum(W.block_weights)
        ends[-1] = 1.0
        overlap = np.minimum.outer(edges[1:], ends) - np.maximum.outer(edges[:-1], [0.0, *ends[:-1]])
        overlap = overlap.clip(0.0)
        share = overlap / overlap.sum(axis=1, keepdims=True)  # m x k, rows sum to 1
        avg = share @ W.values @ share.T
        # rounding can break exact symmetry, and leave B's range where a cell meets two blocks
        B = ((avg + avg.T) / 2.0).clip(W.values.min(), W.values.max())
    return StepGraphon(np.full(m, 1.0 / m), B)


def as_step_graphon(spec: KernelSpec, m: int = DEFAULT_DISCRETIZATION) -> StepGraphon:
    """Exact step representation when the kernel already is a step function;
    otherwise the m-block discretization."""
    return spec.step_graphon() or discretize(spec, m)
