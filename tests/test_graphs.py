"""Graphs module: copy counting and the counting plan's |Aut H|; the
copy-set and join oracles of the tests."""

import functools
import itertools
import math

import numpy as np
import pytest
from conftest import ZOO, empty_graph
from counting_oracles import (
    automorphisms_by_copies,
    backtrack_injective_homomorphisms,
    copy_edge_sets,
    exhaustive_copy_count,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from limit_oracles import einsum_density, strong_edge_join, vertex_join, weak_edge_join

from graphonlab import graphs
from graphonlab import (
    ExperimentConfig,
    KernelSpec,
    LabeledGraph,
    as_step_graphon,
    conditional_density,
    count_copies,
    discretize,
    hom_density,
    limit_law,
    mean_count,
    run_experiment,
)

K2 = LabeledGraph.complete(2)
K3 = LabeledGraph.complete(3)
K4 = LabeledGraph.complete(4)
STAR2 = LabeledGraph.star(2)
PATH4 = LabeledGraph.path(4)


def random_graph(rng: np.random.Generator, n: int, p: float) -> LabeledGraph:
    edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < p]
    return LabeledGraph.from_edges(n, edges)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            LabeledGraph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LabeledGraph.from_edges(3, [(1, 4)])

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            LabeledGraph(0, frozenset())

    @pytest.mark.parametrize("n,edges", [
        (3, [(1.0, 2.0), (1, 3)]), (2.5, [(1, 2)]), (True, []), (3, [(True, 2)]), ("3", []),
        (3, [("1", 2)]),
    ], ids=["float-ends", "float-n", "bool-n", "bool-end", "string-n", "string-end"])
    def test_refuses_what_is_not_an_integer(self, n, edges):
        # refused, not converted: a float edge end would pass here and fail
        # later as an IndexError in count_copies
        with pytest.raises(ValueError, match="must be an integer"):
            LabeledGraph(n, edges)

    def test_numpy_integers_become_ints(self):
        g = LabeledGraph(np.int64(3), [(np.int32(1), np.int64(2))])
        assert g == LabeledGraph(3, [(1, 2)])
        assert {type(x) for x in (g.vertex_count, *g.edges[0])} == {int}

    def test_from_edges_normalizes_orientation_and_duplicates(self):
        g = LabeledGraph.from_edges(3, [(2, 1), (1, 2), (3, 1)])
        assert g.edges == ((1, 2), (1, 3))

    def test_edges_are_one_sorted_tuple_whatever_the_order_given(self):
        g = LabeledGraph(4, [(3, 4), (1, 2), (2, 4)])
        assert g.edges == ((1, 2), (2, 4), (3, 4))
        assert LabeledGraph(4, iter(g.edges[::-1])).edges == g.edges
        json_edges = {"n": 4, "edges": [[4, 3], [2, 1], [2, 4]]}
        assert LabeledGraph.from_json_dict(json_edges).edges == g.edges
        with pytest.raises(ValueError, match=r"edge \(1,2\) repeated"):
            LabeledGraph(3, [(1, 2), (2, 3), (1, 2)])
        with pytest.raises(ValueError, match="not sorted"):
            LabeledGraph(3, [(2, 1)])

    def test_json_round_trip(self):
        g = LabeledGraph.from_edges(4, [(1, 2), (2, 3), (1, 4)])
        assert LabeledGraph.from_json_dict(g.to_json_dict()) == g

    @pytest.mark.parametrize("data", [
        {"n": 3.9, "edges": [[1, 2.7]]}, {"n": 3.9, "edges": []}, {"n": 3, "edges": [[1, 2.7]]},
        {"n": True, "edges": []}, {"n": "3", "edges": []}, {"n": 3, "edges": [], "name": "x"},
        {"n": 3, "edges": [1]}, {"n": 3, "edges": [[1, 2, 3]]}, [1, 2],
        {"n": 3, "edges": [[1, 2], [2, 1]]}, {"n": 3, "edges": [[1, 2], [1, 2]]},
    ])
    def test_json_refuses_what_it_would_change_or_ignore(self, data):
        with pytest.raises(ValueError):
            LabeledGraph.from_json_dict(data)


class TestAutomorphisms:
    # |Aut H| = inj(H, H), the counting plan's Moebius sum on H's own
    # adjacency matrix
    def test_triangle(self):
        assert K3.counting_plan.automorphisms == 6

    def test_two_star(self):
        assert STAR2.counting_plan.automorphisms == 2

    def test_path_with_four_edges(self):
        assert PATH4.counting_plan.automorphisms == 2

    def test_no_edges_gives_full_symmetric_group(self):
        assert empty_graph(4).counting_plan.automorphisms == 24

    @pytest.mark.parametrize("H,aut", [
        (LabeledGraph.complete(8), 40320), (empty_graph(8), 40320),
        (LabeledGraph.star(7), 5040), (LabeledGraph.path(7), 2),
    ], ids=["k8", "empty8", "star7", "path7"])
    def test_exact_at_the_vertex_bound(self, H, aut):
        # homomorphism counts up to 8^8 < 2^53, alternating Moebius signs
        assert H.counting_plan.automorphisms == aut

    def test_every_five_vertex_graph_matches_its_copy_orbit(self):
        pairs = list(itertools.combinations(range(1, 6), 2))
        for mask in range(1 << len(pairs)):
            H = LabeledGraph.from_edges(5, [e for i, e in enumerate(pairs) if mask >> i & 1])
            assert H.counting_plan.automorphisms == automorphisms_by_copies(H), H

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_zoo_matches_its_copy_orbit(self, name):
        assert ZOO[name].counting_plan.automorphisms == automorphisms_by_copies(ZOO[name])

    def test_brute_force_bound(self, monkeypatch):
        # PATTERN_VERTEX_BOUND, the one size limit of every pattern function,
        # is checked before the plan enumerates the Bell(v) set partitions
        # (115975 at 10 vertices) or counts a homomorphism
        def refuse(*args):
            raise AssertionError("counting plan built for a refused pattern")

        assert LabeledGraph.cycle(8).counting_plan.automorphisms == 16
        W = as_step_graphon(KernelSpec.constant(0.5))
        with monkeypatch.context() as patched:
            patched.setattr(graphs, "_set_partitions", refuse)
            patched.setattr(graphs, "_hom", refuse)
            for call in (lambda: LabeledGraph.cycle(9).counting_plan,
                         lambda: empty_graph(11).counting_plan,
                         lambda: count_copies(LabeledGraph.cycle(9), empty_graph(12)),
                         lambda: mean_count(LabeledGraph.cycle(10), W, 20)):
                with pytest.raises(ValueError, match="limited to 8 vertices"):
                    call()


class TestCopySet:
    def test_two_star_has_three_copies(self):
        assert copy_edge_sets(STAR2, (1, 2, 3)) == [
            frozenset({(1, 2), (1, 3)}),
            frozenset({(1, 2), (2, 3)}),
            frozenset({(1, 3), (2, 3)}),
        ]

    def test_triangle_has_one_copy(self):
        assert copy_edge_sets(K3, (1, 2, 3)) == [frozenset(K3.edges)]

    def test_edge_has_one_copy(self):
        assert copy_edge_sets(K2, (4, 2)) == [frozenset({(2, 4)})]

    @pytest.mark.parametrize(
        "H",
        [K2, STAR2, K3, K4, LabeledGraph.path(2), LabeledGraph.path(3), LabeledGraph.cycle(4)],
    )
    def test_count_times_automorphisms_is_factorial(self, H):
        v, aut = H.vertex_count, H.counting_plan.automorphisms
        assert len(copy_edge_sets(H, range(1, v + 1))) * aut == math.factorial(v)


def degree_profile(g: LabeledGraph) -> list[int]:
    return sorted(g.degrees())


class TestJoins:
    def test_vertex_join_of_star_centers_is_four_star(self):
        joined = vertex_join(STAR2, 1, STAR2, 1)
        assert joined.vertex_count == 5
        assert degree_profile(joined) == [1, 1, 1, 1, 4]

    def test_vertex_join_of_star_leaves_is_path(self):
        joined = vertex_join(STAR2, 2, STAR2, 3)
        assert joined.vertex_count == 5
        assert degree_profile(joined) == degree_profile(PATH4)
        assert joined.counting_plan.automorphisms == PATH4.counting_plan.automorphisms

    def test_vertex_join_of_edges_is_two_path(self):
        assert vertex_join(K2, 1, K2, 1) == LabeledGraph.star(2)

    def test_vertex_join_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            vertex_join(K2, 3, K2, 1)

    def test_weak_join_of_two_stars_is_three_star(self):
        joined = weak_edge_join(STAR2, (1, 2), STAR2, (1, 2))
        assert joined == LabeledGraph.star(3)

    def test_weak_join_of_triangles_is_diamond(self):
        joined = weak_edge_join(K3, (1, 2), K3, (1, 2))
        assert joined.vertex_count == 4
        assert joined.edge_count == 5

    def test_weak_join_of_edges_is_edge(self):
        assert weak_edge_join(K2, (1, 2), K2, (1, 2)) == K2

    def test_weak_join_rejects_non_edge(self):
        with pytest.raises(ValueError):
            weak_edge_join(STAR2, (2, 3), STAR2, (1, 2))

    def test_strong_join_of_two_stars_doubles_shared_edge(self):
        vertex_count, multiplicity = strong_edge_join(STAR2, (1, 2), STAR2, (1, 2))
        assert vertex_count == 4
        assert multiplicity[(1, 2)] == 2
        assert sum(multiplicity.values()) == 4
        assert LabeledGraph(vertex_count, frozenset(multiplicity)) == LabeledGraph.star(3)

    def test_strong_join_of_edges_is_double_edge(self):
        assert strong_edge_join(K2, (1, 2), K2, (1, 2)) == (2, {(1, 2): 2})

    def test_strong_join_of_triangles_total_multiplicity(self):
        vertex_count, multiplicity = strong_edge_join(K3, (1, 2), K3, (1, 2))
        assert vertex_count == 4
        assert sum(multiplicity.values()) == 6

    @pytest.mark.parametrize("H1,H2", [(STAR2, K3), (K3, PATH4), (STAR2, PATH4)])
    def test_vertex_join_symmetric_up_to_isomorphism(self, H1, H2):
        left = vertex_join(H1, 1, H2, 1)
        right = vertex_join(H2, 1, H1, 1)
        assert degree_profile(left) == degree_profile(right)
        assert left.counting_plan.automorphisms == right.counting_plan.automorphisms

    @pytest.mark.parametrize("H1,H2", [(STAR2, K3), (K3, PATH4), (STAR2, PATH4)])
    def test_edge_joins_symmetric_up_to_isomorphism(self, H1, H2):
        e1 = min(H1.edges)
        e2 = min(H2.edges)
        left = weak_edge_join(H1, e1, H2, e2)
        right = weak_edge_join(H2, e2, H1, e1)
        assert degree_profile(left) == degree_profile(right)
        assert left.counting_plan.automorphisms == right.counting_plan.automorphisms

    @pytest.mark.parametrize("H1,H2", [(STAR2, STAR2), (K3, K3), (STAR2, K3), (K3, PATH4)])
    def test_weak_join_is_clamped_strong_join(self, H1, H2):
        for e1 in H1.edges:
            for e2 in H2.edges:
                weak = weak_edge_join(H1, e1, H2, e2)
                vertex_count, multiplicity = strong_edge_join(H1, e1, H2, e2)
                assert LabeledGraph(vertex_count, frozenset(multiplicity)) == weak
                assert sum(multiplicity.values()) == weak.edge_count + 1


class TestCountCopies:
    def test_triangles_in_k4(self):
        assert count_copies(K3, K4) == 4

    def test_two_stars_in_triangle(self):
        assert count_copies(STAR2, K3) == 3

    def test_two_star_degree_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            G = random_graph(rng, 10, 0.45)
            expected = sum(d * (d - 1) // 2 for d in G.degrees())
            assert count_copies(STAR2, G) == expected

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            G = random_graph(rng, 8, 0.5)
            for H in (K2, STAR2, K3, PATH4):
                assert count_copies(H, G) == exhaustive_copy_count(H, G)

    def test_disconnected_pattern(self):
        two_edges = LabeledGraph.from_edges(4, [(1, 2), (3, 4)])
        rng = np.random.default_rng(13)
        G = random_graph(rng, 9, 0.4)
        assert count_copies(two_edges, G) == exhaustive_copy_count(two_edges, G)

    def test_pattern_larger_than_host(self):
        with pytest.raises(ValueError):
            count_copies(K4, K3)

    def test_pattern_size_bound(self):
        with pytest.raises(ValueError):
            count_copies(empty_graph(9), empty_graph(12))

    def test_single_vertex_pattern(self):
        assert count_copies(empty_graph(1), K4) == 4

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_zoo_matches_exhaustive_enumeration(self, name):
        H = ZOO[name]
        rng = np.random.default_rng(sorted(ZOO).index(name))
        for _ in range(3):
            G = random_graph(rng, int(rng.integers(6, 11)), float(rng.uniform(0.3, 0.8)))
            assert count_copies(H, G) == exhaustive_copy_count(H, G)

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_matches_backtracker(self, name):
        H = ZOO[name]
        rng = np.random.default_rng(100 + sorted(ZOO).index(name))
        for _ in range(3):
            G = random_graph(rng, int(rng.integers(20, 41)), float(rng.uniform(0.2, 0.7)))
            expected = backtrack_injective_homomorphisms(H, G)
            assert count_copies(H, G) * automorphisms_by_copies(H) == expected

    @pytest.mark.parametrize("name", ["k4", "k5", "wheel4", "k4_pendant"])
    def test_pinned_patterns_on_edge_case_hosts(self, name):
        # the host shrinks to a pinned vertex's neighbourhood, which is empty
        # at an isolated vertex and is everything else in K_n
        H, n = ZOO[name], 9
        v, aut = H.vertex_count, H.counting_plan.automorphisms
        assert count_copies(H, np.zeros((n, n))) * aut == 0
        assert count_copies(H, LabeledGraph.complete(n)) * aut == math.perm(n, v)
        # two disjoint cliques: every copy of the connected H lies in one of them
        a, b = 6, 8
        cliques = LabeledGraph.from_edges(a + b, [
            *itertools.combinations(range(1, a + 1), 2),
            *itertools.combinations(range(a + 1, a + b + 1), 2),
        ])
        expected = math.perm(a, v) + math.perm(b, v)
        assert count_copies(H, cliques) * aut == expected
        # random graphs with isolated vertices spread among the others
        rng = np.random.default_rng(sorted(ZOO).index(name))
        for _ in range(3):
            G = random_graph(rng, 24, 0.6)
            isolated = set(rng.choice(np.arange(1, 25), 6, replace=False).tolist())
            G = LabeledGraph.from_edges(24, [e for e in G.edges if not isolated & set(e)])
            expected = backtrack_injective_homomorphisms(H, G)
            assert count_copies(H, G) * automorphisms_by_copies(H) == expected

    def test_adjacency_array_host(self):
        rng = np.random.default_rng(5)
        G = random_graph(rng, 12, 0.5)
        A = np.zeros((12, 12))
        for a, b in G.edges:
            A[a - 1, b - 1] = A[b - 1, a - 1] = 1
        for H in (K3, ZOO["c4"], ZOO["k4"]):
            assert count_copies(H, A) == count_copies(H, G)
            assert count_copies(H, A.astype(bool)) == count_copies(H, G)

    def test_rejects_malformed_adjacency(self):
        A = np.ones((4, 4)) - np.eye(4)
        for bad in (A[:3], A + np.eye(4), 0.5 * A, np.triu(A)):
            with pytest.raises(ValueError):
                count_copies(K3, bad)

    def test_exactness_bound(self, monkeypatch):
        # 98^8 < 2^53 <= 99^8; an edgeless pattern keeps the count cheap.
        H = empty_graph(8)
        assert 98**8 < graphs.EXACT_COUNT_BOUND <= 99**8
        aut = H.counting_plan.automorphisms
        assert count_copies(H, empty_graph(98)) * aut == math.perm(98, 8)

        def refuse(*args):
            raise AssertionError("counting started above the exactness bound")

        monkeypatch.setattr(graphs, "_hom", refuse)
        with pytest.raises(ValueError, match=r"^host size n = 99 to the power 8 reaches 2\^53: "
                                             r"float64 copy counts would no longer be exact$"):
            count_copies(H, np.zeros((99, 99)))

    def test_automorphisms_counted_once_per_pattern(self, monkeypatch):
        # counts, the mean, the limit law (mixture branch: W_H and sigma2 too)
        # and a whole experiment read |Aut H| from the pattern's one plan,
        # which is built once
        calls = []
        original = graphs._counting_plan
        monkeypatch.setattr(graphs, "_counting_plan", lambda H: calls.append(H) or original(H))
        monkeypatch.delenv("GRAPHONLAB_THREADS", raising=False)
        H = LabeledGraph.cycle(4)
        rng = np.random.default_rng(3)
        for _ in range(5):
            count_copies(H, random_graph(rng, 9, 0.5))
        kernel = KernelSpec.two_block_diagonal(0.5)
        W = as_step_graphon(kernel)
        mean_count(H, W, 9)
        assert limit_law(H, W).kind == "mixture"
        run_experiment(ExperimentConfig(pattern=H, kernel=kernel, n=9, replicates=3,
                                        master_seed=0, reference_draws=1_000))
        assert calls == [H]



def with_extra_vertex(G: LabeledGraph, universal: bool) -> LabeledGraph:
    """G plus a vertex n+1 adjacent to every vertex of G, or to none."""
    n = G.vertex_count
    return LabeledGraph.from_edges(n + 1, [*G.edges, *((v, n + 1) for v in range(1, n + 1) if universal)])


class TestEliminationPlan:
    def planner_calls(self, monkeypatch) -> list:
        """The key (vertices, edges, marks) of every plan built from here on:
        the planner starts again from an empty cache and records each build."""
        calls = []
        build = graphs._plan.__wrapped__
        monkeypatch.setattr(graphs, "_plan",
                            functools.cache(lambda *key: calls.append(key) or build(*key)))
        return calls

    def test_counts_plan_nothing_once_the_pattern_is_planned(self):
        H = LabeledGraph.complete(4)
        assert all(len(term) == 2 for term in H.counting_plan.terms)
        misses = graphs._plan.cache_info().misses
        rng = np.random.default_rng(17)
        for _ in range(5):
            G = random_graph(rng, 14, 0.6)
            assert count_copies(H, G) * 24 == backtrack_injective_homomorphisms(H, G)
        assert graphs._plan.cache_info().misses == misses

    def test_shared_plans_stay_as_built(self, monkeypatch, fresh_grids):
        # every contraction of one shape runs the one cached plan, so after
        # counts and densities each cached plan must still be the plan a
        # fresh build gives, and a warm cache must give the bits of a cold one
        keys = self.planner_calls(monkeypatch)
        W = discretize(KernelSpec.product(), 8)
        rng = np.random.default_rng(23)
        hosts = [random_graph(rng, 11, 0.6) for _ in range(2)]
        patterns = [K4, LabeledGraph.complete(5), LabeledGraph.cycle(5)]

        def results() -> list:
            out = []
            for H in patterns:
                out += [count_copies(H, G) for G in hosts]
                out += [hom_density(H, W), conditional_density(H, (1,), W),
                        conditional_density(H, (2, 1), W)]
            return out

        cold = results()  # the recording planner starts from an empty cache
        built = len(keys)
        warm = results()
        assert len(keys) == built > 0
        assert all(np.array_equal(a, b) for a, b in zip(cold, warm, strict=True))
        cached = [graphs._plan(*key) for key in keys]
        assert len(keys) == built
        build = graphs._plan.__wrapped__
        monkeypatch.setattr(graphs, "_plan", build)  # a pin's sub-plan is built afresh too
        for key, plan in zip(keys, cached):
            hash(plan)  # tuples all the way down: nothing in a plan can be altered
            assert plan == build(*key), key

    @pytest.mark.parametrize("name,planned", [
        ("k4", [4, 3]), ("k5", [5, 4, 3]), ("wheel4", [5, 4]), ("k4_pendant", [5, 3]),
    ])
    @pytest.mark.parametrize("m", [4, 16])
    def test_each_pin_plans_its_sub_elimination_once(self, name, planned, m, monkeypatch):
        # a density plans its elimination and the sub-elimination of each pin
        # once, whatever the number of blocks the pinned vertex runs over
        W = discretize(KernelSpec.product(), m)
        calls = self.planner_calls(monkeypatch)
        runs = []
        original = graphs._run
        monkeypatch.setattr(graphs, "_run", lambda *args: runs.append(args[3]) or original(*args))
        t = hom_density(ZOO[name], W)
        assert [len(vertices) for vertices, _, _ in calls] == planned
        assert len(runs) == sum(m**depth for depth in range(len(planned)))
        assert t == pytest.approx(einsum_density(ZOO[name], W), rel=1e-12)

    @pytest.mark.parametrize("name", ["k4", "k5", "wheel4", "diamond", "k4_pendant", "k4_subdivided"])
    @pytest.mark.parametrize("universal", [False, True], ids=["isolated", "universal"])
    def test_counts_on_hosts_with_an_isolated_or_a_universal_vertex(self, name, universal,
                                                                     monkeypatch):
        # at an isolated vertex a pin's neighbourhood is empty (or, after a
        # pendant, its weight is 0); next to a universal vertex, a pinned row
        # merged from two edges (k4_subdivided) is nonzero everywhere, so the
        # cut keeps every host vertex and the pinned runs are uncut
        H = ZOO[name]
        sizes = []
        original = graphs._run
        monkeypatch.setattr(graphs, "_run", lambda *args: sizes.append(args[3]) or original(*args))
        rng = np.random.default_rng(40 + sorted(ZOO).index(name))
        for n in (9, 16):
            G = with_extra_vertex(random_graph(rng, n, 0.5), universal)
            expected = backtrack_injective_homomorphisms(H, G)
            assert count_copies(H, G) * automorphisms_by_copies(H) == expected
            if name == "k4_subdivided" and universal:
                assert sizes.count(n + 1) > n + len(H.counting_plan.terms)
            sizes.clear()


def test_falling_factorial():
    # an edgeless pattern maps injectively in (n)_v = n (n-1) ... (n-v+1) ways
    for v, n, expected in ((3, 10, 720), (1, 5, 5)):
        H = empty_graph(v)
        assert count_copies(H, empty_graph(n)) * H.counting_plan.automorphisms == expected
    assert count_copies(empty_graph(3), empty_graph(10)) == math.comb(10, 3)


# randomly shaped small patterns for the property checks below
@st.composite
def small_graphs(draw, max_vertices=5):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return LabeledGraph.from_edges(n, edges)


@settings(max_examples=60, deadline=None)
@given(H=small_graphs())
def test_property_copy_set_orbit_size(H):
    v, aut = H.vertex_count, H.counting_plan.automorphisms
    assert len(copy_edge_sets(H, range(1, v + 1))) * aut == math.factorial(v)


@settings(max_examples=40, deadline=None)
@given(H=small_graphs(max_vertices=4), seed=st.integers(min_value=0, max_value=10_000))
def test_property_counting_matches_enumeration(H, seed):
    G = random_graph(np.random.default_rng(seed), 7, 0.5)
    assert count_copies(H, G) == exhaustive_copy_count(H, G)


@settings(max_examples=40, deadline=None)
@given(H=small_graphs(max_vertices=4), a=st.integers(1, 4), b=st.integers(1, 4))
def test_property_vertex_join_size(H, a, b):
    a = min(a, H.vertex_count)
    b = min(b, H.vertex_count)
    joined = vertex_join(H, a, H, b)
    assert joined.vertex_count == 2 * H.vertex_count - 1
    # gluing can overlay edges only at the shared vertex, so the total is
    # exactly the two edge sets laid side by side
    assert joined.edge_count == 2 * H.edge_count
