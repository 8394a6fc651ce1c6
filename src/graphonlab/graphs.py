"""Finite labeled graphs and copy counting.

Vertices are labeled 1..n throughout. Edges are unordered pairs stored as
(a, b) with a < b. Graphs are immutable and safe to share across workers.

Copies are counted in the homomorphism basis on a 0/1 adjacency matrix:
injective homomorphisms are a Moebius sum of homomorphism counts of the
loopless quotients of the pattern (Lovasz, Large Networks and Graph
Limits, 5.2), and each homomorphism count sums out pattern vertices one at
a time. |Aut H| is the number of injective homomorphisms of H into itself,
counted by the same sum on H's own adjacency matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

from .graphon import _json_int

Edge = tuple[int, int]

# Counting plans, copy counting and density computations refuse patterns
# above this size.
PATTERN_VERTEX_BOUND = 8
# Copy counting refuses hosts with n^|V(H)| at or above this: float64 holds
# every integer below 2^53 exactly, and every homomorphism count of a
# quotient of H is at most n^|V(H)|.
EXACT_COUNT_BOUND = 2**53


def _sorted_edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class LabeledGraph:
    """Simple graph on the vertex set {1, ..., vertex_count}."""

    vertex_count: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be a positive integer")
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (1 <= a < b <= self.vertex_count):
                raise ValueError(f"edge ({a},{b}) out of range or not sorted")

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "LabeledGraph":
        """Build a graph, normalizing edge orientation and dropping duplicates."""
        return cls(vertex_count, frozenset(_sorted_edge(a, b) for a, b in edges))

    @classmethod
    def complete(cls, r: int) -> "LabeledGraph":
        return cls.from_edges(r, itertools.combinations(range(1, r + 1), 2))

    @classmethod
    def star(cls, leaf_count: int) -> "LabeledGraph":
        """Star with center 1 and leaves 2..leaf_count+1."""
        return cls.from_edges(leaf_count + 1, ((1, j) for j in range(2, leaf_count + 2)))

    @classmethod
    def path(cls, edge_count: int) -> "LabeledGraph":
        """Path 1-2-...-(edge_count+1)."""
        return cls.from_edges(edge_count + 1, ((i, i + 1) for i in range(1, edge_count + 1)))

    @classmethod
    def cycle(cls, length: int) -> "LabeledGraph":
        if length < 3:
            raise ValueError("cycle needs at least 3 vertices")
        edges = [(i, i + 1) for i in range(1, length)] + [(1, length)]
        return cls.from_edges(length, edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for a, b in self.edges:
            deg[a - 1] += 1
            deg[b - 1] += 1
        return tuple(deg)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def to_json_dict(self) -> dict:
        return {"n": self.vertex_count, "edges": [list(e) for e in self.sorted_edges()]}

    @cached_property
    def counting_plan(self) -> "CountingPlan":
        """Quotient terms and |Aut| for counting copies of this pattern;
        built on first use and kept with the graph."""
        return _counting_plan(self)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LabeledGraph":
        """The graph of {"n": N, "edges": [[a, b], ...]}; any other shape is refused."""
        if not (isinstance(data, Mapping) and set(data) == {"n", "edges"}
                and isinstance(data["edges"], list)
                and all(isinstance(e, list) and len(e) == 2 for e in data["edges"])):
            raise ValueError(f'a pattern is {{"n": N, "edges": [[a, b], ...]}}, got {data!r}')
        ends = ((_json_int(a, "edge end"), _json_int(b, "edge end")) for a, b in data["edges"])
        return cls.from_edges(_json_int(data["n"], "pattern n"), ends)


def _set_partitions(v: int) -> Iterator[tuple[int, ...]]:
    """Set partitions of {1..v} as restricted growth strings: entry i is the
    block of vertex i+1, blocks numbered in order of first appearance."""
    labels = [0] * v

    def rec(i: int, blocks: int) -> Iterator[tuple[int, ...]]:
        if i == v:
            yield tuple(labels)
            return
        for b in range(blocks + 1):
            labels[i] = b
            yield from rec(i + 1, max(blocks, b + 1))

    return rec(1, 1)


@dataclass(frozen=True)
class CountingPlan:
    """inj(H, G) = sum of coefficient * hom(quotient, G) over the loopless
    quotients H/P, P a set partition of V(H), with the Moebius coefficient
    mu(P) = prod over blocks B of (-1)^(|B|-1) (|B|-1)!. Quotients with the
    same edge set are merged and zero coefficients dropped. automorphisms is
    |Aut H| = inj(H, H), the same sum on H's own adjacency matrix, exact
    because every homomorphism count is at most 8^8 < 2^53."""

    terms: tuple[tuple[int, LabeledGraph], ...]
    automorphisms: int


def _counting_plan(H: LabeledGraph) -> CountingPlan:
    v = H.vertex_count
    if v > PATTERN_VERTEX_BOUND:  # before any of the Bell(v) partitions is built
        raise ValueError(f"pattern limited to {PATTERN_VERTEX_BOUND} vertices, got {v}")
    coefficients: dict[LabeledGraph, int] = {}
    for labels in _set_partitions(v):
        if any(labels[a - 1] == labels[b - 1] for a, b in H.edges):
            continue
        blocks = max(labels) + 1
        mu = 1
        for block in range(blocks):
            size = labels.count(block)
            mu *= (-1) ** (size - 1) * math.factorial(size - 1)
        quotient = LabeledGraph.from_edges(
            blocks, ((labels[a - 1] + 1, labels[b - 1] + 1) for a, b in H.edges)
        )
        coefficients[quotient] = coefficients.get(quotient, 0) + mu
    terms = tuple((c, F) for F, c in coefficients.items() if c != 0)
    A = _adjacency(H)
    return CountingPlan(terms, sum(c * _hom(F, A) for c, F in terms))


def _rows(pair: dict, a: int, b: int) -> np.ndarray:
    """Remove the pairwise factor between a and b from `pair` and return it
    with a's index on the rows."""
    M = pair.pop(_sorted_edge(a, b))
    return M if a < b else M.T


def _eliminate(unary: dict, pair: dict, size: int, marks: tuple[int, ...] = (), W=None):
    """Sum over maps of the unmarked pattern vertices into `size` host
    vertices (or blocks) of the product of the unary factors (None: all
    ones) and the pairwise factors, keyed (a, b) with a < b and rows indexed
    by a. Each marked vertex needs a unary array and is kept as one axis of
    the result, in mark order; with no marks the result is a float64 scalar.

    Vertices of degree 0, 1 and 2 are summed out by a sum, a matrix-vector
    product and a matrix product; when every remaining unmarked vertex has
    degree >= 3, the one of largest degree is pinned to each host vertex in
    turn. Counting on a 0/1 matrix, every intermediate entry is an integer
    of at most n^|V(H)|, which float64 holds exactly under EXACT_COUNT_BOUND.

    W is the step graphon whose values and block weights the factors are
    drawn from, if any: a vertex of degree 2 with W's block weights between
    two of W's own value matrices takes W's cached product B diag(pi) B.
    """
    unary = dict(unary)
    pair = dict(pair)
    total = 1.0
    while len(unary) > len(marks):
        nbrs: dict[int, list[int]] = {u: [] for u in unary}
        for a, b in pair:
            nbrs[a].append(b)
            nbrs[b].append(a)
        free = [w for w in unary if w not in marks] if marks else unary
        u = min(free, key=lambda w: len(nbrs[w]))
        degree = len(nbrs[u])
        if degree >= 3:
            return total * _pin(unary, pair, nbrs, size, marks, W)
        f = unary.pop(u)
        if degree == 0:
            total *= size if f is None else f.sum()
        elif degree == 1:
            (w,) = nbrs[u]
            M = _rows(pair, w, u)
            message = M.sum(axis=1) if f is None else M @ f
            unary[w] = message if unary[w] is None else unary[w] * message
        else:
            w, x = nbrs[u]
            left, right = _rows(pair, w, u), _rows(pair, u, x)
            shared = W is not None and f is W.block_weights and all(
                M is W.values or M.base is W.values for M in (left, right))
            P = W._two_step(left, right) if shared else (left if f is None else left * f) @ right
            if w > x:
                P = P.T
            k = _sorted_edge(w, x)
            if k in pair:
                if shared:  # read-only: scale a copy, laid out as P is
                    P = P.copy(order="K")
                P *= pair[k]  # P is a fresh product, so no other factor changes
            pair[k] = P
    for u in marks:  # only marks remain: place each factor on its axes
        total = total * unary[u].reshape([size if w == u else 1 for w in marks])
    for (a, b), M in pair.items():  # total already has every axis
        M = M if marks.index(a) < marks.index(b) else M.T
        total *= M.reshape([size if w in (a, b) else 1 for w in marks])
    return total


def _pin(unary: dict, pair: dict, nbrs: dict, size: int, marks: tuple[int, ...], W):
    """Sum of _eliminate over every host vertex for the unmarked vertex of
    largest degree. With no marks, when that vertex is adjacent to every
    other remaining vertex, each of them lies in its neighbourhood and the
    host shrinks to it."""
    p = max((w for w in unary if w not in marks), key=lambda w: len(nbrs[w]))
    f = unary.pop(p)
    rows = {w: _rows(pair, p, w) for w in nbrs[p]}
    support = None
    if not marks and len(rows) == len(unary):
        distinct_rows = {id(R): R for R in rows.values()}.values()
        support = np.logical_or.reduce([R != 0 for R in distinct_rows])
        distinct = {id(M): M for M in pair.values()}
    total = np.zeros((size,) * len(marks))
    for a in range(size):
        if f is not None and f[a] == 0:
            continue
        sub_pair, sub_size, keep = pair, size, slice(None)
        if support is not None:
            nbhd = np.flatnonzero(support[a])
            if nbhd.size == 0:
                continue
            if nbhd.size < size:  # a cut keeping every vertex would only copy
                cuts = {i: M[nbhd][:, nbhd] for i, M in distinct.items()}
                sub_pair = {k: cuts[id(M)] for k, M in pair.items()}
                sub_size, keep = nbhd.size, nbhd
        sub_unary = dict(unary)
        for w, R in rows.items():
            sub_unary[w] = R[a, keep] if unary[w] is None else unary[w][keep] * R[a, keep]
        h = _eliminate(sub_unary, sub_pair, sub_size, marks, W)
        # not +=, which with no marks would add in place to a slow 0-d array
        total = total + (h if f is None else f[a] * h)
    return total


def _hom(F: LabeledGraph, A: np.ndarray) -> int:
    """Homomorphisms from F into the host with 0/1 adjacency matrix A."""
    return round(float(_eliminate(dict.fromkeys(range(1, F.vertex_count + 1)),
                                  dict.fromkeys(F.edges, A), A.shape[0])))


def _adjacency(G: LabeledGraph | np.ndarray) -> np.ndarray:
    """Symmetric float64 0/1 adjacency matrix of G; an array is checked and
    passed through."""
    if isinstance(G, LabeledGraph):
        A = np.zeros((G.vertex_count, G.vertex_count))
        if G.edges:
            a, b = (np.array(side) - 1 for side in zip(*G.edges))
            A[a, b] = A[b, a] = 1.0
        return A
    A = np.asarray(G, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError("adjacency matrix must be square and non-empty")
    if not (np.all((A == 0.0) | (A == 1.0)) and np.array_equal(A, A.T) and not A.diagonal().any()):
        raise ValueError("adjacency matrix must be symmetric 0/1 with a zero diagonal")
    return A


def count_copies(H: LabeledGraph, G: LabeledGraph | np.ndarray) -> int:
    """Number of subgraphs of G isomorphic to H: the injective homomorphisms
    V(H) -> V(G), a Moebius sum of homomorphism counts over the quotients of
    H, divided by the automorphism count.

    G is a LabeledGraph or its 0/1 adjacency matrix. The size bounds are
    checked before any counting starts.
    """
    A = _adjacency(G)
    n, v = A.shape[0], H.vertex_count
    plan = H.counting_plan  # refuses patterns above PATTERN_VERTEX_BOUND
    if v > n:
        raise ValueError("pattern has more vertices than the host graph")
    if n**v >= EXACT_COUNT_BOUND:
        raise ValueError(
            f"host size {n} to the power {v} reaches 2^53: float64 homomorphism "
            "counts would no longer be exact"
        )
    inj = sum(c * _hom(F, A) for c, F in plan.terms)
    if inj % plan.automorphisms != 0:
        raise RuntimeError("injective homomorphism count not divisible by |Aut|")
    return inj // plan.automorphisms
