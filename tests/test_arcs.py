import itertools
import time
from collections import Counter

import pytest
from helpers import (
    enumerated_affine_sum,
    enumerated_arc_beta,
    enumerated_oracle_series,
    enumerated_orthants,
    order_vectors,
    reference_order_counts,
    table_rows,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equizeta import arcs, catalog
from equizeta.arcs import (
    MAX_ORACLE_CELLS,
    MonomialGerm,
    SignAction,
    _leading_factor,
    _order_counts,
    _solvable_orthants,
    arc_beta_naive,
    arc_beta_signed,
    is_invariant,
    oracle_series,
)
from equizeta.errors import InvalidInput, NotInvariant
from equizeta.ratpoly import RatFunc, _valuation, pmul, ppow
from equizeta.zeta import denef_loeser

FLIP = SignAction((-1,))
TRIVIAL = SignAction(trivial=True)


def u_power(k, c=1):
    return RatFunc.monomial(k, c)


@st.composite
def invariant_germs(draw, top=5):
    """A germ with weights 0..top in d <= 4 variables (zeros are off the
    support) and either the trivial group or a sign action it is invariant
    under: a drawn action whose product comes out -1 has the sign flipped on
    its first odd-weight coordinate."""
    d = draw(st.integers(1, 4))
    exps = draw(st.lists(st.integers(0, top), min_size=d, max_size=d))
    if not any(exps):
        exps[draw(st.integers(0, d - 1))] = draw(st.integers(1, top))
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

    def test_order_below_one_raises(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="arc order must be positive"):
                arc_beta_naive(MonomialGerm((2,)), FLIP, n)


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
        counts = table_rows(*_order_counts(germ, order))
        for n in range(order + 1):
            assert counts[n] == Counter(sum(k) for k in order_vectors(weights, n)), n
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
        assert table_rows(*_order_counts(MonomialGerm((1, 1)), 4))[4] == {4: 3}

    @settings(max_examples=150, deadline=None)
    @given(invariant_germs(top=6), st.sampled_from(("counts", "naive", "plus", "minus")),
           st.integers(0, 40))
    # 64 exponents of 1 at order 200: |(u - 1)^64|_1 = 2^64 times 200^64
    # order vectors bounds the entries below 2^553, so w = 560 bits and
    # ``_digits`` reads the rows through its multi-word path
    @example((MonomialGerm((1,) * 64), TRIVIAL), "naive", 200)
    def test_packed_table_equals_the_reference(self, germ_action, seed_of, order):
        # every seed the oracle builds: W's numerator less its power of u,
        # reversed, or 1 for the plain counts
        germ, action = germ_action
        seed = (1,)
        if seed_of != "counts":
            wfac = _leading_factor(germ, action, seed_of)
            assume(wfac.num)
            seed = wfac.num[_valuation(wfac.num):][::-1]
        rows, w = _order_counts(germ, order, seed)
        want = reference_order_counts(germ, order, seed)
        assert table_rows(rows, w) == [{m: c for m, c in enumerate(row) if c} for row in want]

    def test_table_over_the_cap_is_refused_before_it_is_built(self):
        # (|S| + 1) * (order + 1) * (order // min N + 1) cells
        germ = MonomialGerm((1, 2, 0))
        order = next(n for n in range(2000) if 3 * (n + 1) * (n + 1) > MAX_ORACLE_CELLS)
        assert len(_order_counts(germ, order - 1)[0]) == order
        with pytest.raises(InvalidInput, match="above the cap"):
            _order_counts(germ, order)
        with pytest.raises(InvalidInput, match="above the cap"):
            arc_beta_naive(germ, TRIVIAL, 10**18)

    def test_the_seeded_width_moves_only_the_naive_boundary(self, monkeypatch):
        # x*y*z on the trivial group: the naive seed (u - 1)^3 has four
        # coefficients, so 4 * (order + 1) * (order + 4) cells, first refused
        # at 1022; a signed seed has one, 4 * (order + 1)^2 cells, first
        # refused at 1024.  A table that passes the cap is built, and the
        # patched builder stops there, before its rows are read.
        class Built(Exception):
            pass

        def build(*args):
            rows, _ = packed_build(*args)
            assert len(rows) == args[1] + 1
            raise Built

        packed_build = arcs._order_counts
        monkeypatch.setattr(arcs, "_order_counts", build)
        germ = MonomialGerm((1, 1, 1))
        for variant, refused in (("naive", 1022), ("plus", 1024), ("minus", 1024)):
            with pytest.raises(Built):
                oracle_series(germ, TRIVIAL, variant, refused - 1)
            with pytest.raises(InvalidInput, match="above the cap"):
                oracle_series(germ, TRIVIAL, variant, refused)

    def test_a_zero_leading_factor_builds_no_table_but_keeps_the_cap(self, monkeypatch):
        # x^2 y^2 z^2 on the trivial group has no leading coefficients of
        # sign -, so W = 0 and the series is 0 with no table built; the cap
        # still counts the table a one-coefficient seed would take,
        # 4 * (order + 1) * (order // 2 + 1) cells, first refused at 1448
        def build(*_):
            raise AssertionError("a zero W built a table")

        monkeypatch.setattr(arcs, "_order_counts", build)
        germ = MonomialGerm((2, 2, 2))
        assert _leading_factor(germ, TRIVIAL, "minus").is_zero()
        for order in (0, 1, 7, 1447):
            series = oracle_series(germ, TRIVIAL, "minus", order)
            assert series.order == order and all(c == RatFunc(0) for c in series.coeffs)
        with pytest.raises(InvalidInput, match="above the cap"):
            oracle_series(germ, TRIVIAL, "minus", 1448)


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

    def test_the_order_1000_table_of_xyz_is_fast(self):
        # 3 passes of one int add per row over 1001 packed rows
        germ = MonomialGerm((1, 1, 1))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            oracle_series(germ, TRIVIAL, "naive", 1000)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.1

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 4), min_size=1, max_size=3).filter(any),
        st.sampled_from((1, -1)),
        st.data(),
        st.sampled_from(("naive", "plus", "minus")),
        st.integers(0, 20),
    )
    def test_coefficients_are_canonical_by_construction(self, exps, sign, data, variant, order):
        # every coefficient is built with no gcd step, over the leading
        # factor's denominator 1 or u - 1
        germ = MonomialGerm(exps, sign)
        actions = [TRIVIAL] + [
            SignAction(eps) for eps in itertools.product((1, -1), repeat=len(exps))
            if is_invariant(germ, SignAction(eps))
        ]
        action = data.draw(st.sampled_from(actions), label="action")
        wfac = _leading_factor(germ, action, variant)
        assert wfac.den in ((1,), (-1, 1))
        series = oracle_series(germ, action, variant, order)
        for c in (wfac, *series.coeffs):
            want = RatFunc(c.num, c.den)
            assert (c.num, c.den) == (want.num, want.den)
        assert series == enumerated_oracle_series(germ, action, variant, order)

    @pytest.mark.parametrize("s_count", [1, 2, 3, 4])
    def test_naive_leading_factor_equals_its_gcd_construction(self, s_count):
        # the construction that the closed form replaced: (u - 1)^|S| times
        # the point, 1 or u / (u - 1), put over its gcd by RatFunc
        germ = MonomialGerm((2,) * s_count + (0,))
        for action in (TRIVIAL, SignAction((-1,) * s_count + (1,)),
                       SignAction((1,) * (s_count + 1))):
            point = RatFunc(1) if action.trivial else RatFunc((0, 1), (-1, 1))
            want = RatFunc(pmul(ppow((-1, 1), s_count), point.num), point.den)
            got = _leading_factor(germ, action, "naive")
            assert (got.num, got.den) == (want.num, want.den), action

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
