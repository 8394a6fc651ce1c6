"""Reference implementations that the package's counting and sampling are
checked against: exhaustive enumeration of copies, a bitmask backtracker
for injective homomorphisms, the block of a coordinate and the edge-list
W-random graph sampler. All work on a different representation and by a
different method than the package, so agreement is evidence."""

from __future__ import annotations

import itertools
import math

import numpy as np

from graphonlab import LabeledGraph, StepGraphon

Edge = tuple[int, int]


def copy_edge_sets(H: LabeledGraph, vertices) -> list[frozenset[Edge]]:
    """The distinct edge sets on `vertices` (|V(H)| distinct labels) that are
    copies of H, in sorted order; there are |V(H)|!/|Aut(H)| of them."""
    copies = {
        frozenset(tuple(sorted((perm[a - 1], perm[b - 1]))) for a, b in H.edges)
        for perm in itertools.permutations(vertices)
    }
    return sorted(copies, key=sorted)


def automorphisms_by_copies(H: LabeledGraph) -> int:
    """|Aut H| as v! over the number of copies of H on its own v vertices."""
    v = H.vertex_count
    return math.factorial(v) // len(copy_edge_sets(H, range(1, v + 1)))


def exhaustive_copy_count(H: LabeledGraph, G: LabeledGraph) -> int:
    """Enumerate every |V(H)|-subset of V(G) and every copy of H on it, and
    check edge containment."""
    host = set(G.edges)
    return sum(
        copy <= host
        for subset in itertools.combinations(range(1, G.vertex_count + 1), H.vertex_count)
        for copy in copy_edge_sets(H, subset)
    )


def _pattern_order(H: LabeledGraph) -> list[int]:
    """Vertex order for backtracking: max degree first, then greedily the
    vertex with the most already-placed neighbors."""
    deg = H.degrees()
    nbrs: dict[int, set[int]] = {u: set() for u in range(1, H.vertex_count + 1)}
    for a, b in H.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    order: list[int] = []
    placed: set[int] = set()
    remaining = set(range(1, H.vertex_count + 1))
    while remaining:
        u = max(remaining, key=lambda w: (len(nbrs[w] & placed), deg[w - 1], -w))
        order.append(u)
        placed.add(u)
        remaining.remove(u)
    return order


def backtrack_injective_homomorphisms(H: LabeledGraph, G: LabeledGraph) -> int:
    """Injective maps V(H) -> V(G) sending every edge of H to an edge of G.

    Backtracking over a bitmask adjacency with degree pruning; the final
    pattern vertex is counted by popcount instead of iterated.
    """
    if H.vertex_count > G.vertex_count:
        raise ValueError("pattern has more vertices than the host graph")
    n = G.vertex_count
    adj = [0] * (n + 1)
    for a, b in G.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    gdeg = [m.bit_count() for m in adj]
    order = _pattern_order(H)
    pos = {u: i for i, u in enumerate(order)}
    hdeg = H.degrees()

    all_hosts = ((1 << (n + 1)) - 1) & ~1  # bits 1..n
    allowed = []
    for u in order:
        mask = 0
        need = hdeg[u - 1]
        for w in range(1, n + 1):
            if gdeg[w] >= need:
                mask |= 1 << w
        allowed.append(mask & all_hosts)

    # Each pattern edge constrains its later endpoint in the order.
    parents: list[list[int]] = [[] for _ in order]
    for a, b in H.edges:
        i, j = pos[a], pos[b]
        if i > j:
            i, j = j, i
        parents[j].append(i)

    assigned = [0] * len(order)
    last = len(order) - 1

    def rec(i: int, used: int) -> int:
        cand = allowed[i] & ~used
        for j in parents[i]:
            cand &= adj[assigned[j]]
        if i == last:
            return cand.bit_count()
        total = 0
        m = cand
        while m:
            bit = m & -m
            assigned[i] = bit.bit_length() - 1
            total += rec(i + 1, used | bit)
            m ^= bit
        return total

    return rec(0, 0)


def block_index(W: StepGraphon, x) -> np.ndarray | int:
    """Block of W holding each coordinate in [0,1]: blocks are left-closed,
    end at the running sums of the weights, and the last is closed at 1.
    Worked out from the weights, not from the block ends the sampler reads."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails both comparisons
        raise ValueError("coordinates must be finite and lie in [0,1]")
    idx = np.searchsorted(np.cumsum(W.block_weights)[:-1], arr, side="right")
    return idx if arr.ndim else int(idx)


def edge_list_sample_graph(W: StepGraphon, n: int, seed: int) -> LabeledGraph:
    """W-random graph built from the list of kept (i, j) pairs, on the same
    Philox stream: n latent uniforms, then n(n-1)/2 edge uniforms in
    row-major (i < j) order, each compared strictly against the block
    value."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    latent = rng.random(n)
    blocks = np.asarray(block_index(W, latent))
    iu, ju = np.triu_indices(n, k=1)
    y = rng.random(iu.size)
    probs = W.values[blocks[iu], blocks[ju]]
    keep = y < probs
    edges = zip((iu[keep] + 1).tolist(), (ju[keep] + 1).tolist())
    return LabeledGraph.from_edges(n, edges)
