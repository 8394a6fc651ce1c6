"""W-random graph sampling and the normalized count statistic."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import mean_count
from .graphon import StepGraphon
from .graphs import LabeledGraph, count_copies
from .limits import LimitLaw


@dataclass(frozen=True)
class SampleRecord:
    """One Monte Carlo replicate: the raw copy count and its normalization."""

    seed: int
    raw_count: int
    normalized: float


def sample_adjacency(W: StepGraphon, n: int, seed: int) -> np.ndarray:
    """Symmetric float64 0/1 adjacency matrix of a W-random graph on n
    vertices: latent uniforms U_i pick blocks, edge (i, j) is present when
    an independent uniform falls below the block value.

    The Philox stream is consumed as the n latent uniforms followed by the
    n(n-1)/2 edge uniforms in row-major (i < j) order, so identical
    (W, n, seed) yields an identical graph. The strict comparison makes the
    all-ones kernel produce the complete graph and the zero kernel the empty
    graph deterministically.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not W.is_probability_kernel:
        raise ValueError("sampling requires a kernel with values in [0,1]")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    latent = rng.random(n)
    blocks = np.asarray(W.block_index(latent))
    upper = ~np.tri(n, dtype=bool)  # j > i; boolean indexing is row-major
    A = np.zeros((n, n))
    A[upper] = rng.random(n * (n - 1) // 2) < W.values.take(blocks, 0).take(blocks, 1)[upper]
    A += A.T
    return A


def sample_graph(W: StepGraphon, n: int, seed: int) -> LabeledGraph:
    """The graph of sample_adjacency(W, n, seed) as a LabeledGraph."""
    rows, cols = np.nonzero(np.triu(sample_adjacency(W, n, seed)))
    return LabeledGraph.from_edges(n, zip((rows + 1).tolist(), (cols + 1).tolist()))


def _record(H: LabeledGraph, n: int, seed: int, raw: int, mu: float, law: LimitLaw) -> SampleRecord:
    """The replicate of a raw copy count of H on n vertices: centered at
    mu and scaled by n^scale_exponent. A count above the complete graph's,
    (n)_v / |Aut H|, is a counting bug and raises."""
    if raw > math.perm(n, H.vertex_count) // H.counting_plan.automorphisms:
        raise RuntimeError("copy count exceeds the complete-graph bound; counting bug")
    normalized = (raw - mu) / float(n) ** law.scale_exponent
    return SampleRecord(seed=seed, raw_count=raw, normalized=normalized)


def normalized_statistic(
    H: LabeledGraph, W: StepGraphon, G: LabeledGraph, law: LimitLaw, seed: int = 0
) -> SampleRecord:
    """Centered and scaled copy count of H in G:
    (count - mean_count(H, W, n)) / n^scale_exponent with the exponent taken
    from the limit law."""
    n = G.vertex_count
    if n < H.vertex_count:
        raise ValueError(f"host graph needs at least {H.vertex_count} vertices")
    return _record(H, n, seed, count_copies(H, G), mean_count(H, W, n), law)
