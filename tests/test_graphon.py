"""Graphon module: step kernels, evaluation, degrees, discretization."""

import gc
import math
import pickle
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from conftest import EDGE_AND_TRIANGLE, ZOO, degree
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonlab import (
    KernelSpec,
    LabeledGraph,
    StepGraphon,
    as_step_graphon,
    discretize,
    first_order,
    limit_law,
    sigma_squared,
    two_point_graphon,
)
from graphonlab.cli import main
from graphonlab.sampler import sample_adjacency


def evaluate(W: StepGraphon, x: float, y: float) -> float:
    """Pointwise value of W at (x, y)."""
    return W.values[W.block_index(x), W.block_index(y)]


class TestStepGraphon:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            StepGraphon(np.array([0.5, 0.4]), np.zeros((2, 2)))

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            StepGraphon(np.array([1.0, 0.0]), np.zeros((2, 2)))

    def test_values_must_be_symmetric(self):
        with pytest.raises(ValueError):
            StepGraphon(np.array([0.5, 0.5]), np.array([[0.1, 0.2], [0.3, 0.4]]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            StepGraphon(np.array([0.5, 0.5]), np.zeros((3, 3)))

    def test_probability_flag(self):
        assert as_step_graphon(KernelSpec.constant(0.3)).is_probability_kernel
        derived = StepGraphon(np.array([1.0]), np.array([[1.5]]))
        assert not derived.is_probability_kernel

    def test_two_step_products_are_the_one_read_only_cache(self, fresh_grids):
        # densities share every product (L * pi) @ R of two kept factors: the
        # values, a kept product, or the transpose of either, keyed by what
        # each factor is and built as a contraction builds it; besides them
        # the graphon keeps only its probability flag and its block ends
        W = discretize(KernelSpec.product(), 16)
        for H in (LabeledGraph.cycle(4), LabeledGraph.path(3), LabeledGraph.star(3)):
            first_order(H, W), sigma_squared(H, W), two_point_graphon(H, W)
        W.block_index(0.5)
        assert set(vars(W)) == {"block_weights", "values", "_two_steps",
                                "is_probability_kernel", "_inner_ends"}
        assert not W._inner_ends.flags.writeable

        def factor(name, transposed: bool) -> np.ndarray:
            K = W.values if name is None else W._two_steps[name]
            return K.T if transposed else K

        # cycle4's two-point densities multiply B pi B by B again
        assert any(name is not None for key in W._two_steps for name, _ in key)
        for (left, right), P in W._two_steps.items():
            built = (factor(*left) * W.block_weights) @ factor(*right)
            assert P.tobytes() == built.tobytes()
            assert not P.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                P *= 2.0

    @pytest.mark.parametrize("pi,B", [
        ([math.nan, 1.0], [[0.5, 0.5], [0.5, 0.5]]),
        ([0.5, 0.5], [[0.5, math.inf], [math.inf, 0.5]]),
        ([1.0], [[-math.inf]]),
    ], ids=["nan-weight", "inf-value", "minus-inf-value"])
    def test_rejects_non_finite_input(self, pi, B):
        with pytest.raises(ValueError, match="finite"):
            StepGraphon(np.array(pi), np.array(B))


# Every pattern of the tests: the zoo, the small patterns and the edge with a
# disjoint triangle.
PATTERNS = {**ZOO, "k2": LabeledGraph.complete(2), "star2": LabeledGraph.star(2),
            "k3": LabeledGraph.complete(3),
            "edge_and_triangle": LabeledGraph(6, EDGE_AND_TRIANGLE)}


def constants(H: LabeledGraph, W: StepGraphon) -> tuple:
    """first_order, sigma_squared, two_point_graphon and limit_law of (H, W),
    to the bit: repr tells every float apart, 0.0 from -0.0 included."""
    return (repr(tuple(first_order(H, W))), repr(sigma_squared(H, W)),
            two_point_graphon(H, W).values.tobytes(), repr(limit_law(H, W)))


class TestKeptProducts:
    """The products a graphon keeps change no output bit, are each built
    once, and go when their graphon goes."""

    @pytest.mark.parametrize("grid", ["suite", "product:64"])
    def test_kept_products_move_no_bit(self, grid, graphon_suite, fresh_grids, monkeypatch):
        if grid == "suite":
            graphons, patterns = graphon_suite, PATTERNS
        else:  # K5 on 64 blocks would take about 9 s; it runs on the suite
            graphons = [discretize(KernelSpec.product(), 64)]
            patterns = {name: H for name, H in PATTERNS.items() if name != "k5"}
        for W in graphons:
            rebuilt = StepGraphon(W.block_weights, W.values)
            # cold, then warm: later patterns and the second pass reuse products
            cached = [[constants(H, W) for H in patterns.values()] for _ in range(2)]
            with monkeypatch.context() as patched:
                patched.setattr(StepGraphon, "_kept", lambda self, M: None)
                uncached = [constants(H, rebuilt) for H in patterns.values()]
            assert not rebuilt._two_steps
            assert cached == [uncached, uncached]
        # each graphon kept products, some of them products of kept products
        assert all(W._two_steps for W in graphons)
        assert all(any(name is not None for key in W._two_steps for name, _ in key)
                   for W in graphons)

    def test_a_cold_constants_call_builds_each_product_once(self, fresh_grids, monkeypatch,
                                                            capsys):
        # every merge over the block weights asks _two_step; one that builds
        # (a new key, or factors that are not kept) is recorded by operands
        two_step, builds, asked = StepGraphon._two_step, Counter(), []

        def recorded(W, left, right):
            kept = len(W._two_steps)
            P = two_step(W, left, right)
            operands = tuple((M.strides, M.tobytes()) for M in (left, right))
            asked.append(operands)
            if P is None or len(W._two_steps) > kept:
                builds[W.block_count, operands] += 1
            return P

        monkeypatch.setattr(StepGraphon, "_two_step", recorded)
        assert main(["constants", "--pattern", "cycle4", "--kernel", "product", "--m", "64"]) == 0
        assert capsys.readouterr().out.count("regular = ") == 2
        assert builds and len(asked) > sum(builds.values())
        assert max(builds.values()) == 1

    def test_a_pickled_graphon_finds_its_kept_products(self):
        # keys name factors by how they were built, so they hold in a copy
        # whose arrays live elsewhere, as in a pool worker
        W = StepGraphon(np.full(16, 1 / 16), discretize(KernelSpec.product(), 16).values)
        C4 = LabeledGraph.cycle(4)
        expected = constants(C4, W)
        copy = pickle.loads(pickle.dumps(W))
        assert copy._two_steps.keys() == W._two_steps.keys()
        assert copy._kept(copy.values) == (None, False)
        assert copy._kept(copy.values.T) == (None, True)
        for P in copy._two_steps.values():
            assert copy._kept(P) is not None
            name, transposed = copy._kept(P)
            assert copy._two_steps[name] is P and not transposed
            assert copy._kept(P.T) == (name, True)
        assert constants(C4, copy) == expected
        assert copy._two_steps.keys() == W._two_steps.keys()

    def test_kept_products_go_with_their_grid(self, fresh_grids, capsys):
        assert main(["constants", "--pattern", "cycle4", "--kernel", "product", "--m", "16"]) == 0
        capsys.readouterr()
        W = discretize(KernelSpec.product(), 16)
        kept = [weakref.ref(P) for P in W._two_steps.values()]
        assert kept
        del W
        discretize.cache_clear()
        gc.collect()
        assert all(ref() is None for ref in kept)


class TestEvaluate:
    def test_constant_everywhere(self):
        W = as_step_graphon(KernelSpec.constant(0.7))
        for x, y in [(0.0, 0.0), (0.3, 0.9), (1.0, 1.0)]:
            assert evaluate(W, x, y) == 0.7

    def test_two_block_off_diagonal_is_zero(self):
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.6))
        assert evaluate(W, 0.25, 0.75) == 0.0

    def test_two_block_diagonal_value(self):
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.6))
        assert evaluate(W, 0.25, 0.25) == 0.6
        assert evaluate(W, 0.75, 0.75) == 0.6

    def test_right_closed_at_one(self):
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.6))
        assert evaluate(W, 1.0, 1.0) == 0.6
        # internal boundary belongs to the right block
        assert evaluate(W, 0.5, 0.5) == 0.6
        assert evaluate(W, 0.5, 0.25) == 0.0

    def test_out_of_range(self):
        W = as_step_graphon(KernelSpec.constant(0.5))
        with pytest.raises(ValueError):
            evaluate(W, -0.1, 0.5)
        with pytest.raises(ValueError):
            evaluate(W, 0.5, 1.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate(self, bad):
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.5))
        with pytest.raises(ValueError):
            W.block_index(bad)
        with pytest.raises(ValueError):
            W.block_index(np.array([0.25, bad, 0.75]))

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(min_value=0.0, max_value=1.0),
        y=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_symmetry(self, x, y):
        W = discretize(KernelSpec.product(), 7)
        assert evaluate(W, x, y) == evaluate(W, y, x)


class TestDegree:
    def test_constant(self):
        assert np.allclose(degree(as_step_graphon(KernelSpec.constant(0.3))), 0.3)

    def test_two_block_is_half_p(self):
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.8))
        assert np.allclose(degree(W), 0.4, atol=1e-15)

    def test_discretized_product_close_to_half_x(self):
        m = 64
        W = discretize(KernelSpec.product(), m)
        mid = (np.arange(m) + 0.5) / m
        assert np.max(np.abs(degree(W) - mid / 2)) < 1e-12

    def test_discretized_constant_degree_exact(self):
        # machine precision: the matvec can be off by an ulp
        for m in (1, 3, 7, 256):
            W = discretize(KernelSpec.constant(0.37), m)
            assert np.max(np.abs(degree(W) - 0.37)) <= 1e-15


def block_of_each_cell(W: StepGraphon, m: int) -> list:
    """For each uniform cell [i/m, (i+1)/m], the block of W that holds it
    whole in exact arithmetic, or None when the cell meets two blocks; the
    blocks end where W.block_index puts them, at the running sums of the
    weights, the last at 1."""
    ends = [Fraction(0), *map(Fraction, np.cumsum(W.block_weights)[:-1]), Fraction(1)]
    return [next((a for a in range(W.block_count)
                  if ends[a] <= Fraction(i, m) and Fraction(i + 1, m) <= ends[a + 1]), None)
            for i in range(m)]


STEP_SPECS = [
    *(KernelSpec.two_block_diagonal(p) for p in (0.3, 0.5, 0.9)),
    KernelSpec.custom((0.2, 0.3, 0.5), [[0.9, 0.1, 0.4], [0.1, 0.6, 0.0], [0.4, 0.0, 1.0]]),
]


class TestDiscretize:
    def test_constant_any_m(self):
        W = discretize(KernelSpec.constant(0.2), 5)
        assert np.all(W.values == 0.2)

    def test_product_m2_cell_averages(self):
        W = discretize(KernelSpec.product(), 2)
        expected = np.array([[1 / 16, 3 / 16], [3 / 16, 9 / 16]])
        assert np.allclose(W.values, expected, atol=1e-15)

    def test_two_block_even_m_exact(self):
        W = discretize(KernelSpec.two_block_diagonal(0.9), 6)
        expected = np.zeros((6, 6))
        expected[:3, :3] = 0.9
        expected[3:, 3:] = 0.9
        assert np.allclose(W.values, expected, atol=1e-15)

    def test_two_block_odd_m_averages_straddling_cell(self):
        W = discretize(KernelSpec.two_block_diagonal(0.8), 3)
        # middle cell covers [1/3, 2/3]^2, half of it in each diagonal block
        assert W.values[1, 1] == pytest.approx(0.8 * 2 * (1 / 6) ** 2 * 9, abs=1e-12)
        assert np.allclose(degree(W), 0.4, atol=1e-12)

    def test_rejects_zero_cells(self):
        with pytest.raises(ValueError):
            discretize(KernelSpec.constant(0.5), 0)

    def test_idempotent_on_aligned_custom_grid(self):
        spec = KernelSpec.custom((0.25, 0.25, 0.5), [[0.1, 0.2, 0.3], [0.2, 0.4, 0.5], [0.3, 0.5, 0.6]])
        once = discretize(spec, 4)
        again = discretize(KernelSpec.custom(once.block_weights, once.values), 4)
        assert np.allclose(again.values, once.values, atol=1e-15)

    @pytest.mark.parametrize("m", [1, 3, 4, 256])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_two_block_equals_its_custom_grid_bit_for_bit(self, p, m):
        # each kind is averaged from the step form its spec gives, and a
        # one-block grid is its value in every cell, as constant is
        for kind, grid in [
            (KernelSpec.two_block_diagonal(p), KernelSpec.custom([0.5, 0.5], [[p, 0.0], [0.0, p]])),
            (KernelSpec.constant(p), KernelSpec.custom([1.0], [[p]])),
        ]:
            a, b = discretize(kind, m), discretize(grid, m)
            assert a.values.tobytes() == b.values.tobytes()
            assert a.block_weights.tobytes() == b.block_weights.tobytes()

    @pytest.mark.parametrize("m", [3, 7, 10, 13, 100, 256])
    def test_step_cells_inside_a_block_keep_its_value(self, m, graphon_suite):
        # a cell inside one block is that block's value exactly, and a cell
        # meeting several blocks averages them without leaving their range
        suite = [KernelSpec.custom(W.block_weights, W.values) for W in graphon_suite]
        for spec in STEP_SPECS + suite:
            W, V = spec.step_graphon(), discretize(spec, m).values
            blocks = block_of_each_cell(W, m)
            inside = [i for i, a in enumerate(blocks) if a is not None]
            held = [blocks[i] for i in inside]
            assert inside or spec in suite  # a random block may be narrower than a cell
            assert np.array_equal(V[np.ix_(inside, inside)], W.values[np.ix_(held, held)])
            assert W.values.min() <= V.min() and V.max() <= W.values.max()

    def test_random_grids_stay_in_the_range_of_their_blocks(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            k = int(rng.integers(2, 6))
            weights = rng.random(k) + 0.1
            values = np.triu(rng.choice([0.0, 0.3, 0.7, 1.0], size=(k, k)))
            spec = KernelSpec.custom(weights / weights.sum(), values + np.triu(values, 1).T)
            B = spec.step_graphon().values
            for m in (3, 7, 10, 13, 100):
                W = discretize(spec, m)
                assert W.is_probability_kernel
                assert B.min() <= W.values.min() and W.values.max() <= B.max()

    def test_identity_grid_on_ten_cells_is_a_graphon(self):
        # every cell lies inside a block, so each value is exactly 0 or 1, and
        # the limit constants and the sampler take the grid
        W = discretize(KernelSpec.custom((0.5, 0.5), [[1.0, 0.0], [0.0, 1.0]]), 10)
        assert W.is_probability_kernel
        assert np.array_equal(W.values, np.kron(np.eye(2), np.ones((5, 5))))
        assert limit_law(LabeledGraph.star(2), W).kind == "mixture"
        assert sample_adjacency(W, 20, 0).shape == (20, 20)

    def test_product_degree_sup_error_halves(self):
        # first-order convergence of cell averages away from midpoints
        grid = np.linspace(0.0, 1.0, 2049)

        def sup_error(m: int) -> float:
            W = discretize(KernelSpec.product(), m)
            d = degree(W)[np.asarray(W.block_index(grid))]
            return float(np.max(np.abs(d - grid / 2)))

        e32, e64 = sup_error(32), sup_error(64)
        assert 0.35 <= e64 / e32 <= 0.65

    def test_keeps_the_last_two_grids(self, fresh_grids):
        # a constants call asks for m and 2m, pattern after pattern
        spec = KernelSpec.product()
        W4, W8 = discretize(spec, 4), discretize(spec, 8)
        assert discretize(spec, 4) is W4 and discretize(spec, 8) is W8
        discretize(spec, 16)  # drops m = 4, the grid asked for least recently
        assert discretize(spec, 8) is W8
        again = discretize(spec, 4)
        assert again is not W4 and again.values.tobytes() == W4.values.tobytes()
        assert discretize.cache_info().misses == 4

    def test_specs_from_arrays_and_from_lists_share_one_graphon(self):
        # equal specs, whatever they were built from or if pickled, find the
        # same graphon
        rng = np.random.default_rng(5)
        values = rng.uniform(0.05, 0.95, size=(256, 256))
        weights = rng.random(256) + 0.25
        arrays = KernelSpec.custom(weights / weights.sum(), (values + values.T) / 2.0)
        lists = KernelSpec.custom((weights / weights.sum()).tolist(),
                                  ((values + values.T) / 2.0).tolist())
        W = discretize(arrays, 64)
        assert discretize(lists, 64) is W
        assert discretize(pickle.loads(pickle.dumps(arrays)), 64) is W

    def test_kinds_with_the_same_values_keep_their_own_grids(self):
        constant, two_block = KernelSpec.constant(0.3), KernelSpec.two_block_diagonal(0.3)
        assert constant.params == two_block.params
        assert not np.array_equal(discretize(constant, 2).values, discretize(two_block, 2).values)

    @pytest.mark.parametrize("m", [4.0, True], ids=["float", "bool"])
    def test_a_cached_grid_does_not_answer_an_m_that_is_not_an_int(self, m):
        # 4.0 == 4 and True == 1, yet neither is a number of cells
        for kernel in (KernelSpec.product(), KernelSpec.constant(0.3)):
            discretize(kernel, int(m))
            with pytest.raises(TypeError):
                discretize(kernel, m)


class TestKernelSpec:
    def test_parameter_range(self):
        with pytest.raises(ValueError):
            KernelSpec.constant(1.5)
        with pytest.raises(ValueError):
            KernelSpec.two_block_diagonal(-0.1)
        # a custom grid obeys the same range as p
        for bad in (1.5, -0.5):
            with pytest.raises(ValueError, match=r"\[0,1\]"):
                KernelSpec.custom((0.5, 0.5), [[bad, 0.2], [0.2, 0.3]])

    def test_custom_validates_grid(self):
        with pytest.raises(ValueError):
            KernelSpec.custom((0.5, 0.5), [[0.1, 0.2], [0.3, 0.4]])

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec.constant(0.3),
            KernelSpec.product(),
            KernelSpec.two_block_diagonal(0.5),
            KernelSpec.custom((0.5, 0.5), [[0.1, 0.2], [0.2, 0.3]]),
        ],
    )
    def test_json_round_trip(self, spec):
        assert KernelSpec.from_json_dict(spec.to_json_dict()) == spec

    @pytest.mark.parametrize("data,message", [
        ({"kind": "product", "p": 0.5}, "a kernel is an object"),
        ({"kind": "constant", "p": "0.5"}, "constant kernel p must be a finite number"),
        ({"kind": "two_block", "p": True}, "two_block kernel p must be a finite number"),
        ({"kind": "custom", "pi": 1, "B": 2},
         "custom kernel pi, B: block_weights must be a non-empty vector"),
        ({"kind": "custom", "pi": [1.0], "B": [["1"]]}, "custom kernel B must be a finite number"),
        ({"kind": ["custom"]}, "a kernel is an object"),
        ([[0.5]], "a kernel is an object"),
        ({"kind": "custom", "pi": [0.5, 0.5], "B": [[0.5], [0.5, 0.5]]},
         "custom kernel B must be rectangular"),
        ({"kind": "custom", "pi": [0.5, 0.5], "B": [[0.5]]},
         "custom kernel pi, B: values must be a k x k matrix"),
    ], ids=[f"data{i}" for i in range(9)])
    def test_json_refuses_what_it_would_change_or_ignore(self, data, message):
        with pytest.raises(ValueError, match=message):
            KernelSpec.from_json_dict(data)

    def test_as_step_graphon_exact_for_step_kinds(self):
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.5), m=999)
        assert W.block_count == 2
        assert as_step_graphon(KernelSpec.constant(0.4)).block_count == 1
