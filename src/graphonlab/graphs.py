"""Finite labeled graphs and copy counting.

Vertices are labeled 1..n throughout. A graph keeps its edges as one
sorted tuple of distinct pairs (a, b) with a < b, so equal graphs list
their edges alike and every contraction, JSON dump and edge sum follows
that one order. Graphs are immutable and safe to share across workers.

Copies are counted in the homomorphism basis on a 0/1 adjacency matrix:
injective homomorphisms are a Moebius sum of homomorphism counts of the
loopless quotients of the pattern (Lovasz, Large Networks and Graph
Limits, 5.2), and each homomorphism count sums out pattern vertices one at
a time. |Aut H| is the number of injective homomorphisms of H into itself,
counted by the same sum on H's own adjacency matrix.

The elimination is planned from the pattern alone (_plan) and run on the
arrays (_run). _plan is memoized: each shape, and each pin's sub-elimination,
is planned once and its plan shared, so counting a sample plans nothing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .graphon import _integer, _json_int

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
    """Simple graph on the vertex set {1, ..., vertex_count}. The edges may
    be given as any iterable of pairs (a, b) with a < b, each at most once;
    they are kept as a sorted tuple."""

    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex_count", _integer(self.vertex_count, "vertex_count"))
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be a positive integer")
        edges = tuple(sorted((_integer(a, "edge end"), _integer(b, "edge end"))
                             for a, b in self.edges))
        for i, (a, b) in enumerate(edges):
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (1 <= a < b <= self.vertex_count):
                raise ValueError(f"edge ({a},{b}) out of range or not sorted")
            if i and edges[i - 1] == (a, b):
                raise ValueError(f"edge ({a},{b}) repeated")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "LabeledGraph":
        """Build a graph, normalizing edge orientation and dropping duplicates."""
        return cls(vertex_count, {_sorted_edge(a, b) for a, b in edges})

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

    def to_json_dict(self) -> dict:
        return {"n": self.vertex_count, "edges": [list(e) for e in self.edges]}

    @cached_property
    def counting_plan(self) -> "CountingPlan":
        """Quotient terms and |Aut| for counting copies of this pattern;
        built on first use and kept with the graph."""
        return _counting_plan(self)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LabeledGraph":
        """The graph of {"n": N, "edges": [[a, b], ...]}, each edge listed once
        in either orientation; any other shape, or a repeated edge, is refused."""
        if not (isinstance(data, Mapping) and set(data) == {"n", "edges"}
                and isinstance(data["edges"], list)
                and all(isinstance(e, list) and len(e) == 2 for e in data["edges"])):
            raise ValueError(f'a pattern is {{"n": N, "edges": [[a, b], ...]}}, got {data!r}')
        ends = (_sorted_edge(_json_int(a, "edge end"), _json_int(b, "edge end"))
                for a, b in data["edges"])
        return cls(_json_int(data["n"], "pattern n"), ends)


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
    same edge set are merged and zero coefficients dropped. Each term is
    (coefficient, quotient); the quotients' elimination plans are kept by
    _plan. automorphisms is |Aut H| = inj(H, H), the same sum on H's own
    adjacency matrix, exact because every homomorphism count is at most
    8^8 < 2^53."""

    terms: tuple[tuple[int, LabeledGraph], ...]
    automorphisms: int


def _check_pattern_size(v: int) -> None:
    """Refuses a pattern on more than PATTERN_VERTEX_BOUND vertices."""
    if v > PATTERN_VERTEX_BOUND:
        raise ValueError(f"pattern limited to {PATTERN_VERTEX_BOUND} vertices, got {v}")


def _counting_plan(H: LabeledGraph) -> CountingPlan:
    v = H.vertex_count
    _check_pattern_size(v)  # before any of the Bell(v) partitions is built
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


class _Plan(NamedTuple):
    """The steps of one vertex elimination, worked out from the keys alone.
    Vertices and edges are named by slot, their position in the unary and
    pair lists; an edge that a merge adds takes the next free slot, up to
    edge_slots. marks holds the marked vertices' slots, in mark order, and
    axes, for each pairwise factor left between marks, its slot and the
    mark positions of its rows and of its columns."""

    steps: tuple
    edge_slots: int
    marks: tuple[int, ...]
    axes: tuple[tuple[int, int, int], ...]


@cache
def _plan(vertices: tuple, edges: tuple, marks: tuple[int, ...]) -> _Plan:
    """How to sum out the unmarked vertices among `vertices` (in unary order)
    over pairwise factors on `edges` ((a, b) with a < b, in pair order).
    The one place a plan is built or kept: memoized on these arguments, so
    every contraction of one shape shares its plan, which _run only reads.

    The unmarked vertex of least degree goes first, the earliest in unary
    order on a tie. Degree 0 is a sum ("sum"), degree 1 a matrix-vector
    product into the neighbour ("message") and degree 2 a matrix product
    into a factor between the two neighbours ("merge"), multiplied into
    the factor already there, if any. When every unmarked vertex has degree
    >= 3, the earliest of largest degree is pinned ("pin"), and the vertices
    and edges left get a plan of their own, with slots of their own.
    """
    slot = {u: i for i, u in enumerate(vertices)}
    live = {e: i for i, e in enumerate(edges)}  # edge -> slot, in pair order
    unary, added, steps = list(vertices), len(edges), []

    def take(a: int, b: int) -> tuple[int, bool]:
        """Remove edge ab: its slot, and whether its factor is transposed to
        put a's index on the rows."""
        return live.pop(_sorted_edge(a, b)), a > b

    while len(unary) > len(marks):
        nbrs: dict[int, list[int]] = {u: [] for u in unary}
        for a, b in live:
            nbrs[a].append(b)
            nbrs[b].append(a)
        free = [w for w in unary if w not in marks]
        u = min(free, key=lambda w: len(nbrs[w]))
        degree = len(nbrs[u])
        if degree >= 3:
            p = max(free, key=lambda w: len(nbrs[w]))
            unary.remove(p)
            rows = tuple((unary.index(w), *take(p, w)) for w in nbrs[p])
            cut = not marks and len(rows) == len(unary)
            sub = _plan(tuple(unary), tuple(live), marks)
            steps.append(("pin", slot[p], rows, cut, tuple(slot[w] for w in unary),
                          tuple(live.values()), sub))
            return _Plan(tuple(steps), added, tuple(slot[w] for w in marks), ())
        unary.remove(u)
        if degree == 0:
            steps.append(("sum", slot[u]))
        elif degree == 1:
            (w,) = nbrs[u]
            steps.append(("message", slot[u], *take(w, u), slot[w]))
        else:
            w, x = nbrs[u]
            left, right = take(w, u), take(u, x)
            k = _sorted_edge(w, x)
            merge = k in live
            if not merge:
                live[k], added = added, added + 1
            steps.append(("merge", slot[u], *left, *right, w > x, live[k], merge))
    axes = tuple((e, marks.index(a), marks.index(b)) for (a, b), e in live.items())
    return _Plan(tuple(steps), added, tuple(slot[w] for w in marks), axes)


def _run(plan: _Plan, unary: list, pair: list, size: int, W=None):
    """Carry out `plan` on `size` host vertices (or blocks): unary[i] is the
    factor of vertex slot i (None: all ones) and is used up, pair[e] the
    factor of edge slot e, rows indexed by its smaller end. Each marked
    vertex needs a unary array and is kept as one axis of the result, in
    mark order; with no marks the result is a float64 scalar.

    The checks that depend on the numbers are made here: a merge of a
    vertex carrying W's block weights between two factors W keeps (its
    values, a product it keeps, or the transpose of either) takes W's kept
    product, so B diag(pi) B, B diag(pi) B diag(pi) B and the like are
    each built once per graphon.
    """
    pair = pair + [None] * (plan.edge_slots - len(pair))
    total = 1.0
    for step in plan.steps:
        kind, f = step[0], unary[step[1]]
        if kind == "sum":
            total *= size if f is None else f.sum()
        elif kind == "message":
            _, _, e, flip, w = step
            M, pair[e] = pair[e], None
            M = M.T if flip else M
            message = M.sum(axis=1) if f is None else M @ f
            unary[w] = message if unary[w] is None else unary[w] * message
        elif kind == "merge":
            _, _, e_left, flip_left, e_right, flip_right, flip, k, merge = step
            left, right = pair[e_left], pair[e_right]
            pair[e_left] = pair[e_right] = None
            left, right = left.T if flip_left else left, right.T if flip_right else right
            P = W._two_step(left, right) if W is not None and f is W.block_weights else None
            shared = P is not None
            if not shared:
                P = (left if f is None else left * f) @ right
            if flip:
                P = P.T
            if merge:
                if shared:  # read-only: scale a copy, laid out as P is
                    P = P.copy(order="K")
                P *= pair[k]  # P is a fresh product, so no other factor changes
            pair[k] = P
        else:
            return total * _pin(step, f, unary, pair, size, W)
    axes = len(plan.marks)
    for i, u in enumerate(plan.marks):  # only marks remain: place each factor on its axes
        shape = [1] * axes
        shape[i] = size
        total = total * unary[u].reshape(shape)
    for e, i, j in plan.axes:  # total already has every axis
        shape = [1] * axes
        shape[i] = shape[j] = size
        total *= (pair[e] if i < j else pair[e].T).reshape(shape)
    return total


def _pin(step: tuple, f, unary: list, pair: list, size: int, W):
    """Sum over every host vertex a of the pin step's sub-plan, run with the
    pinned vertex's rows at a on its neighbours and weighted by f[a]. With
    no marks, when the pinned vertex is adjacent to every other remaining
    vertex, each of them lies in a's neighbourhood and the host shrinks to
    it. Each distinct row matrix is gathered, and each distinct pairwise
    matrix cut, once per host vertex."""
    _, _, rows, cut, vertex_slots, edge_slots, sub = step
    sub_unary = [unary[i] for i in vertex_slots]
    sub_pair = [pair[e] for e in edge_slots]
    row_mats, which_row = _distinct([pair[e].T if flip else pair[e] for _, e, flip in rows])
    rows = [(j, r) for (j, _, _), r in zip(rows, which_row)]
    if cut:  # host vertex a's neighbourhood is nbhds[ends[a]:ends[a + 1]]
        support = np.logical_or.reduce([R != 0 for R in row_mats])
        ends = [0, *np.cumsum(np.count_nonzero(support, axis=1)).tolist()]
        nbhds = support.nonzero()[1]
        mats, which = _distinct(sub_pair)
    total = np.zeros((size,) * len(sub.marks))
    for a in range(size):
        if f is not None and f[a] == 0:
            continue
        a_pair, a_size, keep = sub_pair, size, slice(None)
        if cut:
            lo, hi = ends[a], ends[a + 1]
            if lo == hi:
                continue
            if hi - lo < size:  # a cut keeping every vertex would only copy
                keep = nbhds[lo:hi]
                cuts = [M[keep][:, keep] for M in mats]
                a_pair, a_size = [cuts[i] for i in which], hi - lo
        gathered = [R[a, keep] for R in row_mats]
        a_unary = sub_unary.copy()
        for j, r in rows:
            a_unary[j] = gathered[r] if sub_unary[j] is None else sub_unary[j][keep] * gathered[r]
        h = _run(sub, a_unary, a_pair, a_size, W)
        # not +=, which with no marks would add in place to a slow 0-d array
        total = total + (h if f is None else f[a] * h)
    return total


def _distinct(arrays: list) -> tuple[list, list[int]]:
    """The distinct arrays of `arrays`, by identity, and the index of each
    entry of `arrays` among them."""
    index: dict[int, tuple[int, np.ndarray]] = {}
    for M in arrays:
        index.setdefault(id(M), (len(index), M))
    return [M for _, M in index.values()], [index[id(M)][0] for M in arrays]


def _hom(F: LabeledGraph, A: np.ndarray) -> int:
    """Homomorphisms from F into the host with 0/1 adjacency matrix A: no
    unary factors and A on every edge, exact under EXACT_COUNT_BOUND."""
    plan = _plan(tuple(range(1, F.vertex_count + 1)), F.edges, ())
    return round(float(_run(plan, [None] * F.vertex_count, [A] * F.edge_count, A.shape[0])))


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

    G is a LabeledGraph or its 0/1 adjacency matrix. The host and the size
    bounds are checked before any counting starts.
    """
    A = _adjacency(G)
    H.counting_plan  # refuses patterns above PATTERN_VERTEX_BOUND
    _check_host_size(A.shape[0], H.vertex_count)
    return _copies(H, A)


def _check_host_size(n: int, v: int) -> None:
    """Refuses a host on n vertices for a pattern on v: v > n, or n^v at or
    above EXACT_COUNT_BOUND, where float64 counts stop being exact."""
    if v > n:
        raise ValueError(f"pattern has {v} vertices, more than the host size n = {n}")
    if n**v >= EXACT_COUNT_BOUND:
        raise ValueError(
            f"host size n = {n} to the power {v} reaches 2^53: float64 copy counts "
            "would no longer be exact"
        )


def _copies(H: LabeledGraph, A: np.ndarray) -> int:
    """count_copies(H, A) without its checks: A must be a symmetric float64
    0/1 matrix with a zero diagonal, on n >= |V(H)| vertices with
    n^|V(H)| < EXACT_COUNT_BOUND. count_copies checks this for any host;
    the harness calls this only on the arrays it sampled itself, whose
    config enforces the size bounds."""
    counting = H.counting_plan
    inj = sum(c * _hom(F, A) for c, F in counting.terms)
    if inj % counting.automorphisms != 0:
        raise RuntimeError("injective homomorphism count not divisible by |Aut|")
    return inj // counting.automorphisms
