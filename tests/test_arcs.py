import itertools
import time

import pytest
from helpers import (
    enumerated_affine_sum,
    enumerated_arc_beta,
    enumerated_oracle_series,
    enumerated_orthants,
    order_vectors,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from equizeta import catalog
from equizeta.arcs import (
    MAX_ORACLE_CELLS,
    MonomialGerm,
    SignAction,
    _order_counts,
    _solvable_orthants,
    arc_beta_naive,
    arc_beta_signed,
    is_invariant,
    oracle_series,
)
from equizeta.errors import InvalidInput, NotInvariant
from equizeta.ratpoly import RatFunc
from equizeta.zeta import denef_loeser

FLIP = SignAction((-1,))
TRIVIAL = SignAction(trivial=True)


def u_power(k, c=1):
    return RatFunc.monomial(k, c)


@st.composite
def invariant_germs(draw):
    """A germ with weights 0..5 in d <= 4 variables (zeros are off the
    support) and either the trivial group or a sign action it is invariant
    under: a drawn action whose product comes out -1 has the sign flipped on
    its first odd-weight coordinate."""
    d = draw(st.integers(1, 4))
    exps = draw(st.lists(st.integers(0, 5), min_size=d, max_size=d))
    if not any(exps):
        exps[draw(st.integers(0, d - 1))] = draw(st.integers(1, 5))
    germ = MonomialGerm(exps, draw(st.sampled_from((1, -1))))
    if draw(st.booleans()):
        return germ, TRIVIAL
    eps = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    if not is_invariant(germ, SignAction(eps)):
        odd = next(i for i, n in enumerate(exps) if n % 2)
        eps[odd] = -eps[odd]
    return germ, SignAction(eps)


class TestInvariance:
    def test_even_power_invariant_under_flip(self):
        for k in (1, 2, 3):
            assert is_invariant(MonomialGerm((2 * k,)), FLIP)

    def test_odd_exponent_on_flipped_coordinate(self):
        assert not is_invariant(MonomialGerm((1, 1)), SignAction((-1, 1)))

    def test_trivial_action_always_invariant(self):
        assert is_invariant(MonomialGerm((1, 1)), TRIVIAL)

    def test_not_invariant_raises(self):
        with pytest.raises(NotInvariant):
            arc_beta_naive(MonomialGerm((1, 1)), SignAction((-1, 1)), 2)


class TestNaiveStrata:
    def test_even_power_values(self):
        # beta(A_n) = u^(n-m+1) when n = 2km, zero otherwise
        for k in (1, 2, 3):
            germ = MonomialGerm((2 * k,))
            for n in range(1, 6 * k + 1):
                got = arc_beta_naive(germ, FLIP, n)
                if n % (2 * k) == 0:
                    m = n // (2 * k)
                    assert got == u_power(n - m + 1), (k, n)
                else:
                    assert got.is_zero(), (k, n)

    def test_two_variable_stratum(self):
        # x^2 y^2 at n=4: single order vector (1,1), value (u-1) u^7
        got = arc_beta_naive(MonomialGerm((2, 2)), SignAction((-1, 1)), 4)
        assert got == RatFunc.poly((-1, 1)) * u_power(7)

    def test_trivial_group_values(self):
        # N = 3: beta(A_(3m)) = (u-1) u^(n-m)
        germ = MonomialGerm((3,))
        for m in (1, 2, 3):
            n = 3 * m
            assert arc_beta_naive(germ, TRIVIAL, n) == RatFunc.poly((-1, 1)) * u_power(n - m)

    def test_below_minimum_order_is_zero(self):
        assert arc_beta_naive(MonomialGerm((4,)), FLIP, 3).is_zero()


class TestSignedStrata:
    def test_even_power_plus(self):
        for k in (1, 2):
            germ = MonomialGerm((2 * k,))
            for m in (1, 2):
                n = 2 * k * m
                assert arc_beta_signed(germ, FLIP, n, "plus") == u_power(n - m)

    def test_positive_germ_has_no_minus_arcs(self):
        for n in (2, 4, 6):
            assert arc_beta_signed(MonomialGerm((2,)), FLIP, n, "minus").is_zero()

    def test_negative_germ_swaps_signs(self):
        germ = MonomialGerm((2,), sign=-1)
        assert arc_beta_signed(germ, FLIP, 2, "plus").is_zero()
        assert arc_beta_signed(germ, FLIP, 2, "minus") == u_power(1)

    def test_two_variable_plus(self):
        # all four orthants solve +1; the flip pairs them freely: 2u * u^6
        got = arc_beta_signed(MonomialGerm((2, 2)), SignAction((-1, 1)), 4, "plus")
        assert got == u_power(7, 2)

    def test_fixed_orthants_when_support_unflipped(self):
        # eps = +1 on the support: solvable orthants are pointwise fixed
        germ = MonomialGerm((2,))
        action = SignAction((1,))
        got = arc_beta_signed(germ, action, 2, "plus")
        # two fixed orthants, each u/(u-1), times affine weight u^1
        assert got == RatFunc((0, 0, 2), (-1, 1))

    def test_odd_exponent_reaches_both_signs(self):
        germ = MonomialGerm((3,))
        assert arc_beta_signed(germ, TRIVIAL, 3, "plus") == u_power(2)
        assert arc_beta_signed(germ, TRIVIAL, 3, "minus") == u_power(2)

    def test_orthant_count_matches_enumeration(self):
        # only each exponent's parity matters; 1 and 2 cover both
        for size in range(1, 9):
            for weights in itertools.product((1, 2), repeat=size):
                for sign, target in itertools.product((1, -1), repeat=2):
                    germ = MonomialGerm(weights + (0,), sign)
                    assert _solvable_orthants(germ, target) == enumerated_orthants(
                        weights, sign, target
                    ), (weights, sign, target)

    def test_sixty_four_odd_exponents_are_fast(self):
        germ = MonomialGerm((1,) * 64)
        start = time.perf_counter()
        series = oracle_series(germ, TRIVIAL, "plus", 64)
        assert time.perf_counter() - start < 1.0
        # the lowest order is sum N_i = 64, all k_i = 1: 2^63 orthants, each
        # R^63, times u^(64 * 63) for the higher coefficients, over u^(64 * 64)
        assert all(c.is_zero() for c in series.coeffs[:64])
        assert series.coeffs[64] == u_power(63 + 64 * 63 - 64 * 64, 2**63)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MonomialGerm(()),
            lambda: MonomialGerm((0, 0)),
            lambda: MonomialGerm((2, -1)),
            lambda: MonomialGerm((2,), sign=0),
            lambda: MonomialGerm((1,) * 257),
            lambda: SignAction((1, 0)),
        ],
    )
    def test_range_checks_raise_invalid_input(self, build):
        with pytest.raises(InvalidInput):
            build()


class TestAgainstEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(invariant_germs(), st.integers(0, 20))
    def test_counted_strata_equal_the_enumerated_ones(self, germ_action, order):
        germ, action = germ_action
        weights = [germ.exponents[i] for i in germ.support()]
        counts = _order_counts(germ, order)
        for n in range(order + 1):
            sizes = [sum(k) for k in order_vectors(weights, n)]
            assert sum(counts[n]) == len(sizes), n
            assert all(counts[n][m] == sizes.count(m) for m in range(len(counts[n])))
        for n in range(1, order + 1):
            assert arc_beta_naive(germ, action, n) == enumerated_arc_beta(
                germ, action, n, "naive"
            ), n
            for sign in ("plus", "minus"):
                assert arc_beta_signed(germ, action, n, sign) == enumerated_arc_beta(
                    germ, action, n, sign
                ), (n, sign)
        for variant in ("naive", "plus", "minus"):
            got = oracle_series(germ, action, variant, order)
            assert got == enumerated_oracle_series(germ, action, variant, order), variant

    def test_affine_sum_of_xy(self):
        # x*y at order 4: k = (1,3), (2,2), (3,1), each of dimension 2*4 - 4
        assert enumerated_affine_sum(MonomialGerm((1, 1)), 4) == (0,) * 4 + (3,)
        assert _order_counts(MonomialGerm((1, 1)), 4)[4] == [0, 0, 0, 0, 3]

    def test_table_over_the_cap_is_refused_before_it_is_built(self):
        # (|S| + 1) * (order + 1) * (order // min N + 1) cells
        germ = MonomialGerm((1, 2, 0))
        order = next(n for n in range(2000) if 3 * (n + 1) * (n + 1) > MAX_ORACLE_CELLS)
        assert len(_order_counts(germ, order - 1)) == order
        with pytest.raises(InvalidInput, match="above the cap"):
            _order_counts(germ, order)
        with pytest.raises(InvalidInput, match="above the cap"):
            arc_beta_naive(germ, TRIVIAL, 10**18)


class TestOracleSeries:
    def test_matches_closed_forms(self):
        from helpers import displayed_x2k

        for k in (1, 2):
            for variant in ("naive", "plus"):
                want = displayed_x2k(k, variant).t_series(4 * k)
                got = oracle_series(MonomialGerm((2 * k,)), FLIP, variant, 4 * k)
                assert got == want

    def test_minus_variant_is_zero_series(self):
        s = oracle_series(MonomialGerm((2,)), FLIP, "minus", 8)
        assert all(c.is_zero() for c in s.coeffs)

    def test_order_zero(self):
        s = oracle_series(MonomialGerm((2,)), FLIP, "naive", 0)
        assert s.order == 0 and s[0].is_zero()

    def test_support_permutation_symmetry(self):
        exps = (2, 0, 4)
        eps = (-1, 1, -1)
        base = [
            arc_beta_naive(MonomialGerm(exps), SignAction(eps), n) for n in range(1, 9)
        ]
        for perm in itertools.permutations(range(3)):
            p_exps = tuple(exps[i] for i in perm)
            p_eps = tuple(eps[i] for i in perm)
            got = [
                arc_beta_naive(MonomialGerm(p_exps), SignAction(p_eps), n)
                for n in range(1, 9)
            ]
            assert got == base

    def test_naive_and_signed_share_stratum_enumeration(self):
        # both variants factor through the same sum of affine weights, so
        # cross-multiplying the per-n values against the leading-coefficient
        # factors must agree identically
        germ = MonomialGerm((2, 4), sign=1)
        action = SignAction((-1, -1))
        u_minus_1 = RatFunc.poly((-1, 1))
        # (u-1)^2 times the point value, the naive leading-coefficient factor
        punct_factor = u_minus_1 * u_minus_1 * RatFunc((0, 1), (-1, 1))
        plus = [arc_beta_signed(germ, action, n, "plus") for n in range(1, 13)]
        minus = [arc_beta_signed(germ, action, n, "minus") for n in range(1, 13)]
        naive = [arc_beta_naive(germ, action, n) for n in range(1, 13)]
        # W+ here: all 4 orthants solve +1, paired freely -> 2u; W- empty
        w_plus = RatFunc((0, 2))
        for b_n, b_p, b_m in zip(naive, plus, minus):
            assert b_m.is_zero()
            assert b_n * w_plus == b_p * punct_factor

    def test_trivial_group_matches_trivial_engine_fixture(self):
        # x^2 with the group forgotten: one divisor (N=2, nu=1), beta = 1
        from equizeta.gspace import Atom
        from equizeta.resolution import Divisor, GroupSpec, ResolutionData, StratumEntry

        res = ResolutionData(
            "x2_triv",
            (Divisor(1, 2, 1, True),),
            GroupSpec(1, ()),
            (StratumEntry({1}, Atom("point_trivial")),),
        )
        engine = denef_loeser(res).t_series(8)
        oracle = oracle_series(MonomialGerm((2,)), TRIVIAL, "naive", 8)
        assert engine == oracle


class TestAgainstEngine:
    def test_every_monomial_fixture_agrees(self):
        for k in (1, 2, 3, 4):
            res = catalog.get(f"x2k_Z2({k})")
            germ = MonomialGerm((2 * k,))
            for variant in ("naive", "plus"):
                engine = denef_loeser(res, variant).t_series(12)
                oracle = oracle_series(germ, FLIP, variant, 12)
                assert engine == oracle, (k, variant)
