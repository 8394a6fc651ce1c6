"""W-random graph sampling."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .graphon import StepGraphon
from .graphs import LabeledGraph


def sample_adjacency(W: StepGraphon, n: int, seed: int) -> np.ndarray:
    """Symmetric float64 0/1 adjacency matrix of a W-random graph on n
    vertices: latent uniforms U_i pick blocks, edge (i, j) is present when
    an independent uniform falls below the block value.

    The Philox stream is consumed as the n latent uniforms followed by the
    n(n-1)/2 edge uniforms in row-major (i < j) order, so identical
    (W, n, seed) yields an identical graph. The strict comparison makes the
    all-ones kernel produce the complete graph and the zero kernel the empty
    graph deterministically. Each call returns a fresh C-contiguous array.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not W.is_probability_kernel:
        raise ValueError("sampling requires a kernel with values in [0,1]")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    # W.block_index, without range-checking the uniforms just drawn
    blocks = np.searchsorted(W._inner_ends, rng.random(n), side="right")
    upper = _upper_triangle(n)
    hit = np.zeros((n, n), dtype=bool)
    hit[upper] = rng.random(n * (n - 1) // 2) < W.values.take(blocks, 0).take(blocks, 1)[upper]
    return (hit | hit.T).astype(np.float64)  # the one pass in float64


@lru_cache(maxsize=1)
def _upper_triangle(n: int) -> np.ndarray:
    """Read-only n x n mask of the pairs j > i, which boolean indexing
    visits in row-major order; kept for the last n, the n of every
    replicate of a run."""
    upper = ~np.tri(n, dtype=bool)
    upper.setflags(write=False)
    return upper


def sample_graph(W: StepGraphon, n: int, seed: int) -> LabeledGraph:
    """The graph of sample_adjacency(W, n, seed) as a LabeledGraph."""
    rows, cols = np.nonzero(np.triu(sample_adjacency(W, n, seed)))
    return LabeledGraph.from_edges(n, zip((rows + 1).tolist(), (cols + 1).tolist()))

