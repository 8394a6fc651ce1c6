"""The exact law of the copy count X_n on a 0/1 two-block kernel (a blow-up
of a graph on two vertices, loops allowed), by enumerating block counts.

On such a kernel the sampled graph is fixed once the block counts are
drawn: with N_1 ~ Binomial(n, 1/2) vertices in block 1 and N_2 = n - N_1 in
block 2, two distinct vertices are adjacent exactly when B is 1 on their
blocks. The injective homomorphisms H -> G that send the vertices of H to
blocks by a map phi: V(H) -> {1, 2} number (N_1)_{c_1} (N_2)_{c_2}, c_i the
size of phi's preimage of i, when phi sends every edge of H to a 1 of B, and
0 otherwise. So X_n is a polynomial in N_1, and its law has at most n + 1
atoms. Everything here is exact integer and `Fraction` arithmetic, and
|Aut H| comes from enumerating copies, not from the package."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from counting_oracles import automorphisms_by_copies

from graphonlab import LabeledGraph, StepGraphon


def _block_maps(H: LabeledGraph, B) -> dict[int, int]:
    """How many block maps phi: V(H) -> {1, 2} send every edge of H to a 1
    of B, by the number of vertices phi sends to block 1."""
    maps = dict.fromkeys(range(H.vertex_count + 1), 0)
    for phi in itertools.product((0, 1), repeat=H.vertex_count):
        if all(B[phi[a - 1]][phi[b - 1]] == 1 for a, b in H.edges):
            maps[phi.count(0)] += 1
    return maps


def counts_by_block_size(H: LabeledGraph, W: StepGraphon, n: int) -> list[int]:
    """X_n when N_1 = 0, 1, ..., n of the n vertices fall in block 1."""
    maps, v = _block_maps(H, _zero_one_values(W)), H.vertex_count
    automorphisms = automorphisms_by_copies(H)
    counts = []
    for first in range(n + 1):
        inj = sum(k * math.perm(first, c) * math.perm(n - first, v - c) for c, k in maps.items())
        copies, rest = divmod(inj, automorphisms)
        assert rest == 0, "the injective homomorphisms come in orbits of |Aut H|"
        counts.append(copies)
    return counts


def exact_law(H: LabeledGraph, W: StepGraphon, n: int) -> dict[int, Fraction]:
    """The law of X_n(H, W): each count it takes, in increasing order, with
    its probability. W has two blocks of weight 1/2 and 0/1 values."""
    law: dict[int, Fraction] = {}
    for first, count in enumerate(counts_by_block_size(H, W, n)):
        law[count] = law.get(count, Fraction(0)) + Fraction(math.comb(n, first), 2**n)
    return dict(sorted(law.items()))


def _zero_one_values(W: StepGraphon) -> list[list[int]]:
    """W's values as 0/1 integers; any other kernel is refused."""
    if W.block_weights.tolist() != [0.5, 0.5]:
        raise ValueError(f"need two blocks of weight 1/2, got {W.block_weights.tolist()}")
    if not set(W.values.ravel().tolist()) <= {0.0, 1.0}:
        raise ValueError("need a kernel with values in {0, 1}")
    return W.values.astype(int).tolist()
