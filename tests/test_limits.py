"""Limits module: the two variance constants, branch selection, sampling."""

import itertools
import math

import numpy as np
import pytest
from conftest import ZOO, closed_form, degree, empty_graph
from limit_oracles import (
    einsum_density,
    sigma_squared_by_joins,
    tau_squared_by_joins,
    vertex_join,
)

from graphonlab import cli, density, limits
from graphonlab import (
    DegenerateGraphonError,
    KernelSpec,
    LabeledGraph,
    LimitLaw,
    StepGraphon,
    as_step_graphon,
    conditional_density,
    discretize,
    first_order,
    limit_law,
    sample_limit,
    sigma_squared,
    spectrum,
    two_point_graphon,
)

K2 = LabeledGraph.complete(2)
K3 = LabeledGraph.complete(3)
STAR2 = LabeledGraph.star(2)

# Four-vertex patterns checked against the join sums on the product kernel.
# K4's self-joins have treewidth 3 but the oracle's greedy einsum paths cost
# k^7 on them (about 5 s per vertex join at m=16), so K4 is checked at m=8.
PRODUCT_ORACLE_CASES = pytest.mark.parametrize(
    "H,m",
    [
        (LabeledGraph.complete(4), 8),
        (LabeledGraph.cycle(4), 64),
        (LabeledGraph.path(3), 64),
        (LabeledGraph.star(3), 64),
    ],
    ids=["k4-m8", "c4-m64", "path3-m64", "star3-m64"],
)


def matches_oracle(value, oracle):
    # the abs floor only covers kernels where the constant vanishes and
    # either side rounds to a few ulps around zero
    return value == pytest.approx(oracle, rel=1e-12, abs=1e-15)


class TestTauSquared:
    def test_constant_kernel_gives_zero(self):
        for case in ("k2 on constant:0.3", "star2 on constant:0.3", "k3 on constant:0.5"):
            assert closed_form(f"defect and tau2 of {case}")

    def test_two_block_is_two_star_regular(self):
        assert closed_form("defect and tau2 of star2 on two_block:0.5")

    def test_product_kernel_matches_separable_value(self):
        assert closed_form("tau2 of star2 in xy is 31/4320")
        assert closed_form("tau2 of star2 on product, m=256 and 512")

    def test_edge_pattern_is_degree_variance(self, graphon_suite):
        for W in graphon_suite[:8]:
            d = degree(W)
            var = float(W.block_weights @ d**2 - (W.block_weights @ d) ** 2)
            assert first_order(K2, W).tau2 == pytest.approx(var, abs=1e-12)

    def test_alternate_form_agreement(self, graphon_suite, small_patterns):
        for W in graphon_suite:
            for H in small_patterns.values():
                assert matches_oracle(first_order(H, W).tau2, tau_squared_by_joins(H, W))

    @PRODUCT_ORACLE_CASES
    def test_join_oracle_on_product(self, H, m):
        W = discretize(KernelSpec.product(), m)
        assert matches_oracle(first_order(H, W).tau2, tau_squared_by_joins(H, W))

    def test_vertex_join_consistency(self, graphon_suite, small_patterns):
        # int t_a t_b dx equals the density of the pattern glued to itself at (a, b)
        for W in graphon_suite[:6]:
            for H in small_patterns.values():
                v = H.vertex_count
                conds = [conditional_density(H, (a,), W) for a in range(1, v + 1)]
                for a in range(1, v + 1):
                    for b in range(1, v + 1):
                        lhs = float(W.block_weights @ (conds[a - 1] * conds[b - 1]))
                        rhs = einsum_density(vertex_join(H, a, H, b), W)
                        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_zero_iff_regular(self, graphon_suite, small_patterns):
        kernels = list(graphon_suite) + [
            as_step_graphon(KernelSpec.constant(0.6)),
            as_step_graphon(KernelSpec.two_block_diagonal(0.5)),
        ]
        for W in kernels:
            for H in small_patterns.values():
                constants = first_order(H, W)
                assert (constants.tau2 <= 1e-10) == (constants.defect <= 1e-10)

    @pytest.mark.parametrize("name", ["path4", "star4", "cycle5"], ids=["path4", "star4", "c5"])
    def test_five_vertex_patterns_on_product(self, name):
        # no join is built, so patterns whose self-joins pass 8 vertices work
        assert closed_form(f"tau2 of {name} on product, m=256 and 512")


class TestSigmaSquared:
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    def test_two_star_on_two_block(self, p):
        assert closed_form(f"sigma2 of star2 on two_block:{p}")

    @pytest.mark.parametrize("p", [0.2, 0.5])
    def test_triangle_on_constant(self, p):
        assert closed_form(f"sigma2 of k3 on constant:{p}")

    def test_zero_one_valued_kernel_gives_zero(self):
        # every summand is +0.0, so the sum is exactly 0.0 with nothing clamped
        W = as_step_graphon(KernelSpec.two_block_diagonal(1.0))
        assert repr(sigma_squared(STAR2, W)) == "0.0"
        assert repr(sigma_squared(K3, W)) == "0.0"

    def test_refuses_kernels_outside_the_unit_interval(self):
        # W(1-W) < 0 above 1: the summands would no longer be nonnegative
        W = StepGraphon(np.array([0.5, 0.5]), np.array([[1.5, 0.2], [0.2, 0.3]]))
        refusals = []
        for constant in (first_order, sigma_squared):
            with pytest.raises(ValueError) as info:
                constant(STAR2, W)
            refusals.append(str(info.value))
        assert refusals == ["limit constants are defined for kernels with values in [0,1]"] * 2

    def test_nonnegative_on_random_kernels(self, graphon_suite, small_patterns):
        for W in graphon_suite:
            for H in small_patterns.values():
                assert sigma_squared(H, W) >= 0.0

    def test_join_oracle_on_random_kernels(self, graphon_suite, small_patterns):
        for W in graphon_suite:
            for H in small_patterns.values():
                assert matches_oracle(sigma_squared(H, W), sigma_squared_by_joins(H, W))

    @PRODUCT_ORACLE_CASES
    def test_join_oracle_on_product(self, H, m):
        W = discretize(KernelSpec.product(), m)
        assert matches_oracle(sigma_squared(H, W), sigma_squared_by_joins(H, W))

    @pytest.mark.parametrize("name", ["path5", "cycle6"], ids=["path5", "c6"])
    @pytest.mark.parametrize("p", [0.3, 0.7])
    def test_six_vertex_patterns_on_constant(self, name, p):
        assert closed_form(f"sigma2 of {name} on constant:{p}")

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            sigma_squared(empty_graph(2), as_step_graphon(KernelSpec.constant(0.5)))


class TestLimitLaw:
    def test_gaussian_branch_for_product_kernel(self):
        W = discretize(KernelSpec.product(), 64)
        law = limit_law(STAR2, W)
        assert law.kind == "gaussian"
        assert law.scale_exponent == 2.5
        assert closed_form("limit law of star2 on product, m=64")

    def test_mixture_branch_for_two_block(self):
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.5))
        law = limit_law(STAR2, W)
        assert law.kind == "mixture"
        assert law.scale_exponent == 2.0
        assert len(law.lambdas) == 1
        assert closed_form("limit law of star2 on two_block:0.5")

    def test_triangle_on_constant_has_empty_mixture_spectrum(self):
        law = limit_law(K3, as_step_graphon(KernelSpec.constant(0.5)))
        assert law.kind == "mixture"
        assert law.lambdas == ()
        assert closed_form("limit law of k3 on constant:0.5")

    @pytest.mark.parametrize("v", [1, 2, 4])
    def test_edgeless_patterns_are_refused_before_any_contraction(self, v, monkeypatch):
        # an edgeless pattern has C(n, v) copies in every graph on n vertices
        def refuse(*args, **kwargs):
            raise AssertionError("a density was contracted")

        monkeypatch.setattr(limits, "hom_density", refuse)
        monkeypatch.setattr(limits, "conditional_density", refuse)
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.5))
        for compute in (first_order, limit_law, sigma_squared):
            with pytest.raises(DegenerateGraphonError, match="pattern has no edges"):
                compute(empty_graph(v), W)

    def test_degenerate_kernels_raise(self):
        with pytest.raises(DegenerateGraphonError):
            limit_law(K3, as_step_graphon(KernelSpec.constant(1.0)))
        with pytest.raises(DegenerateGraphonError):
            limit_law(K3, as_step_graphon(KernelSpec.two_block_diagonal(0.0)))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, True, False])
    def test_refuses_a_tolerance_not_finite_and_nonnegative(self, tol):
        # NaN and inf would send every kernel to the mixture branch, -1 every
        # kernel to the Gaussian one; a bool is no tolerance, as in a config
        W = as_step_graphon(KernelSpec.two_block_diagonal(0.5))
        message = f"^regularity_tol must be finite and >= 0, got {tol!r}$"
        with pytest.raises(ValueError, match=message):
            limit_law(STAR2, W, regularity_tol=tol)

    def test_validation(self):
        with pytest.raises(ValueError):
            LimitLaw.gaussian(-1.0, 3)
        with pytest.raises(ValueError):
            LimitLaw("nope", 2.0)
        # NaN passes a sign check, and either would reach sample_limit's draws
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^gaussian law needs a finite tau2 >= 0"):
                LimitLaw("gaussian", 2.5, tau2=bad)
            with pytest.raises(ValueError, match="^mixture law needs a finite sigma2 >= 0"):
                LimitLaw.mixture(bad, [], 3)
            for lambdas in ([bad], [0.1, -bad]):
                with pytest.raises(ValueError, match="^mixture law needs finite lambdas"):
                    LimitLaw.mixture(0.1, lambdas, 3)


@pytest.mark.parametrize("H,W,error", [
    (K3, as_step_graphon(KernelSpec.constant(1.0)), DegenerateGraphonError),
    (K3, as_step_graphon(KernelSpec.custom((0.5, 0.5), [[0.0, 1.0], [1.0, 0.0]])),
     DegenerateGraphonError),
    # the two-point kernel of the 5-edge path on constant:0.9 is 7.5 * 0.9^5
    (STAR2, two_point_graphon(LabeledGraph.path(5), as_step_graphon(KernelSpec.constant(0.9))),
     ValueError),
    (K3, as_step_graphon(KernelSpec.two_block_diagonal(0.0)), DegenerateGraphonError),
], ids=["all-ones", "pattern-free", "values-above-1", "zero-kernel"])
def test_first_order_constants_refuse_the_same_kernels(H, W, error):
    # sigma_squared is defined on the same non-degenerate pairs: it refuses
    # an H-free kernel too, after its e contractions, rather than return 0
    refusals = []
    for constant in (first_order, limit_law, sigma_squared):
        with pytest.raises(error) as info:
            constant(H, W)
        refusals.append((type(info.value), str(info.value)))
    assert refusals.count(refusals[0]) == 3


# Patterns whose contraction counts pin the sharing of t(H, W) and S.
SHARING_PATTERNS = {
    "k3": LabeledGraph.complete(3),
    "path3": LabeledGraph.path(3),
    "cycle4": LabeledGraph.cycle(4),
}
SHARING_CASES = pytest.mark.parametrize("name", list(SHARING_PATTERNS))


@pytest.fixture
def contractions(monkeypatch):
    """The marks of every density._contract call, in call order."""
    calls = []
    original = density._contract

    def spy(F, W, marks=()):
        calls.append(marks)
        return original(F, W, marks)

    monkeypatch.setattr(density, "_contract", spy)
    return calls


class TestSharedProjection:
    """limit_law and the constants table compute t(H, W) and the one-point
    sum S once per (H, W) and derive the defect, tau2 and d_wh from them."""

    @SHARING_CASES
    def test_gaussian_branch_contractions(self, name, contractions):
        H = SHARING_PATTERNS[name]
        law = limit_law(H, discretize(KernelSpec.product(), 16))
        assert law.kind == "gaussian"
        v = H.vertex_count
        assert len(contractions) == 1 + v
        assert contractions.count(()) == 1

    @SHARING_CASES
    def test_mixture_branch_contractions(self, name, contractions):
        H = SHARING_PATTERNS[name]
        law = limit_law(H, as_step_graphon(KernelSpec.two_block_diagonal(0.5)))
        assert law.kind == "mixture"
        v, e = H.vertex_count, H.edge_count
        assert len(contractions) == 1 + v + v * (v - 1) // 2 + e
        assert contractions.count(()) == 1

    @SHARING_CASES
    def test_constants_block_contractions(self, name, contractions, capsys):
        # product is refined, so the table has two non-regular blocks
        H = SHARING_PATTERNS[name]
        assert cli.main(["constants", "--pattern", name, "--kernel", "product", "--m", "8"]) == 0
        assert capsys.readouterr().out.count("regular = false") == 2
        v, e = H.vertex_count, H.edge_count
        assert len(contractions) == 2 * (1 + v + e)
        assert contractions.count(()) == 2

    def test_gaussian_tau2_is_tau_squared(self, graphon_suite, small_patterns):
        gaussian = 0
        for W in graphon_suite:
            for H in small_patterns.values():
                law = limit_law(H, W)
                if law.kind == "gaussian":
                    gaussian += 1
                    assert law.tau2 == first_order(H, W).tau2
        assert gaussian > 0

    def test_defect_unchanged_by_limit_law(self, graphon_suite, small_patterns):
        for W in graphon_suite:
            for H in small_patterns.values():
                before = first_order(H, W).defect
                limit_law(H, W)
                assert first_order(H, W).defect == before


# Scales rho of rho W, and the kernels they scale: random step kernels
# (Gaussian for every pattern), two kernels regular for every pattern, and
# a two-block kernel that is clearly not K4-regular.
SCALES = (1e-3, 1e-2, 0.1, 0.5, 1.0)
SPARSE = StepGraphon(np.array([0.5, 0.5]), np.array([[0.02, 0.01], [0.01, 0.03]]))


class TestScaleFreeTolerances:
    """rho W multiplies t, S, the two-point kernel and its eigenvalues by
    rho^e, so the branch, lambda / rho^e and tau2 / rho^(2e) must not depend
    on rho."""

    @pytest.mark.parametrize("name", ["k2", "star2", "k3", *ZOO])
    def test_the_law_does_not_depend_on_the_kernel_scale(self, name, graphon_suite):
        H = {"k2": K2, "star2": STAR2, "k3": K3, **ZOO}[name]
        e = len(H.edges)
        kernels = [*graphon_suite[:4], SPARSE, as_step_graphon(KernelSpec.constant(0.5)),
                   as_step_graphon(KernelSpec.two_block_diagonal(0.5))]
        for W in kernels:
            unscaled = limit_law(H, W)
            for rho in SCALES:
                law = limit_law(H, StepGraphon(W.block_weights, rho * W.values))
                assert law.kind == unscaled.kind
                if law.kind == "gaussian":
                    assert law.tau2 / rho ** (2 * e) == pytest.approx(unscaled.tau2, rel=1e-9)
                else:
                    scaled = [lam / rho**e for lam in law.lambdas]
                    assert scaled == pytest.approx(list(unscaled.lambdas), rel=1e-9)
        assert {limit_law(H, W).kind for W in kernels} == {"gaussian", "mixture"}

    def test_a_sparse_kernel_is_not_k4_regular(self):
        # an absolute defect of 4.4e-11 would have passed 1e-10; relative to t it is 0.725
        K4 = LabeledGraph.complete(4)
        for rho in (1.0, 10.0):
            W = StepGraphon(SPARSE.block_weights, rho * SPARSE.values)
            assert first_order(K4, W).defect == pytest.approx(37 / 51, rel=1e-12)
            assert limit_law(K4, W).kind == "gaussian"


# Patterns with more than one labelled copy on their vertex set, each
# numbered as the builtins and the pattern zoo number it.
RELABELLED_PATTERNS = {
    "star2": STAR2,
    "path3": LabeledGraph.path(3),
    "star3": LabeledGraph.star(3),
    "paw": LabeledGraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)]),
    "diamond": ZOO["diamond"],
    "cycle4": LabeledGraph.cycle(4),
}


def relabellings(H: LabeledGraph) -> list[LabeledGraph]:
    """H under every vertex relabelling, each distinct labelled graph once."""
    copies = {
        LabeledGraph.from_edges(H.vertex_count, [(p[a - 1], p[b - 1]) for a, b in H.edges])
        for p in itertools.permutations(range(1, H.vertex_count + 1))
    }
    return sorted(copies, key=lambda G: G.edges)


class TestRelabelling:
    """The constants are functions of the unlabelled pair (H, W)."""

    @pytest.mark.parametrize("name", list(RELABELLED_PATTERNS))
    def test_first_order_and_two_point_spectrum(self, name, graphon_suite):
        copies = relabellings(RELABELLED_PATTERNS[name])
        assert len(copies) > 1
        for W in graphon_suite:
            base = first_order(copies[0], W)
            eigenvalues = spectrum(two_point_graphon(copies[0], W)).eigenvalues
            scale = float(np.max(np.abs(eigenvalues)))
            for H in copies[1:]:
                constants = first_order(H, W)
                assert constants.t == pytest.approx(base.t, rel=1e-12, abs=0)
                assert constants.tau2 == pytest.approx(base.tau2, rel=1e-12, abs=0)
                assert constants.d_wh == pytest.approx(base.d_wh, rel=1e-12, abs=0)
                assert constants.defect == pytest.approx(base.defect, rel=0, abs=1e-12)
                relabelled = spectrum(two_point_graphon(H, W)).eigenvalues
                assert relabelled.shape == eigenvalues.shape
                assert float(np.max(np.abs(relabelled - eigenvalues))) <= 1e-12 * scale

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_sigma2(self, graphon_suite):
        # sigma_squared sums S2 over sorted edges with a on the rows, so a
        # relabelling that turns an edge around moves it (item 1)
        for H in RELABELLED_PATTERNS.values():
            copies = relabellings(H)
            for W in graphon_suite:
                base = sigma_squared(copies[0], W)
                for G in copies[1:]:
                    assert sigma_squared(G, W) == pytest.approx(base, rel=1e-12, abs=0)


class TestSampleLimit:
    def test_deterministic_given_seed(self):
        law = LimitLaw.mixture(1 / 64, (3 / 32,), 3)
        a = sample_limit(law, seed=42, count=1000)
        b = sample_limit(law, seed=42, count=1000)
        assert np.array_equal(a, b)
        c = sample_limit(law, seed=43, count=1000)
        assert not np.array_equal(a, c)

    def test_standard_gaussian_moments(self):
        draws = sample_limit(LimitLaw.gaussian(1.0, 2), seed=7, count=100_000)
        assert abs(float(np.mean(draws))) <= 4 / math.sqrt(100_000)
        assert float(np.var(draws)) == pytest.approx(1.0, rel=0.05)

    def test_pure_chi_square_moments(self):
        lam = 0.4
        draws = sample_limit(LimitLaw.mixture(0.0, (lam,), 3), seed=9, count=200_000)
        assert float(np.mean(draws)) == pytest.approx(0.0, abs=0.02)
        assert float(np.var(draws)) == pytest.approx(2 * lam**2, rel=0.05)

    def test_mixture_variance_formula(self):
        law = LimitLaw.mixture(1 / 64, (3 / 32,), 3)
        draws = sample_limit(law, seed=11, count=200_000)
        assert float(np.var(draws)) == pytest.approx(law.variance, rel=0.05)

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            sample_limit(LimitLaw.gaussian(1.0, 2), seed=1, count=0)
        with pytest.raises(ValueError, match=r"^count must be an integer, got 10\.5$"):
            sample_limit(LimitLaw.gaussian(1.0, 2), seed=0, count=10.5)

    @pytest.mark.parametrize(
        "law",
        [
            LimitLaw.gaussian(0.7, 3),
            LimitLaw.mixture(1 / 64, (3 / 32,), 3),
            LimitLaw.mixture(0.2, (0.4, -0.15, 1e-3), 4),
        ],
    )
    def test_matches_whole_array_draws(self, law):
        # the reference computes every term out of place; the sampler
        # works in place and must agree bit for bit
        for count in (1, 4095, 4097, 100_000):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(5)))
            scale = law.tau2 if law.kind == "gaussian" else law.sigma2
            expected = np.sqrt(scale) * rng.standard_normal(count)
            for lam in law.lambdas:
                z = rng.standard_normal(count)
                expected += lam * (z * z - 1.0)
            assert np.array_equal(sample_limit(law, seed=5, count=count), expected)
