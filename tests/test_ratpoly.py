import json
import time

import pytest
from helpers import (
    big_coprime_pair,
    cleared_equal,
    cleared_t_series,
    cleared_width,
    counted_within_cap,
    euclid_gcd,
    eval_fraction,
    flat_add_shifted,
    fraction_divmod,
    merged_bands,
    packed,
    per_term_cleared,
    prs_canonical,
    prs_lcm_fold,
    recurrence_laurent,
    reference_add_shifted,
    row_digit_count,
    series_values_match,
    shifted_copy_expand,
    term,
    term_series_at,
    truncate,
    two_sided_first_difference,
    unpacked,
    zsum,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_properties import variants_of

from equizeta import catalog, cleared, ratpoly
from equizeta.cleared import MAX_CLEARED_TERMS, _Layout, _row_terms, _times
from equizeta.errors import (
    DivisionByZero,
    InvalidInput,
    NotExpandable,
    SchemaError,
    ZeroDenominator,
)
from equizeta.ratpoly import (
    _ZERO_ROW,
    MAX_EXPANSION,
    BiPoly,
    RatFunc,
    TSeries,
    ZetaRational,
    _add_shifted,
    _band_sum,
    _check_span,
    _cofactors,
    _common_den,
    _coprime_mod_p,
    _expand,
    _expansion_work,
    _grouped,
    _laurent_over,
    _laurent_row,
    _lcm_fold,
    _row_of,
    _row_value,
    _t_bound,
    _times_u_minus_1,
    pcontent,
    pdivexact,
    pgcd,
    pmonomial,
    pmul,
    ppow,
    ptrim,
)
from equizeta.resolution import parse
from equizeta.zeta import denef_loeser

PT = RatFunc((0, 1), (-1, 1))  # u/(u-1), the series of a fixed point


class TestCanonicalForm:
    def test_common_integer_factor_removed(self):
        assert RatFunc((0, 2), (-2, 2)) == PT

    def test_point_series(self):
        assert RatFunc((0, 1), (-1, 1)) == PT

    def test_sphere_value_cleared_by_hand(self):
        # u^2 + u + 2u/(u-1) cleared over (u-1) is (u^3 + u)/(u - 1)
        by_arithmetic = RatFunc((0, 1, 1)) + 2 * PT
        assert RatFunc((0, 1, 0, 1), (-1, 1)) == by_arithmetic

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominator):
            RatFunc((1,), ())

    def test_idempotent(self):
        a = RatFunc((0, 2, 4), (-6, 2))
        b = RatFunc(a.num, a.den)
        assert a.num == b.num and a.den == b.den

    def test_negative_leading_denominator_flipped(self):
        a = RatFunc((1,), (1, -1))  # 1/(1-u) -> -1/(u-1)
        assert a.den == (-1, 1)
        assert a.num == (-1,)

    def test_zero_is_zero_over_one(self):
        z = RatFunc((0,), (5, 7))
        assert z.num == () and z.den == (1,)


class TestArithmetic:
    def test_add_commutes_on_example(self):
        assert PT + PT == RatFunc((0, 2), (-1, 1))

    def test_circle_minus_point(self):
        circle = RatFunc((0, 1, 1), (-1, 1))  # u + 2u/(u-1)
        assert circle - PT == RatFunc((0, 0, 1), (-1, 1))

    def test_unit_times_point(self):
        assert RatFunc((-1, 1)) * PT == RatFunc((0, 1))

    def test_division_value(self):
        circle = RatFunc((0, 1, 1), (-1, 1))
        assert circle / PT == RatFunc((1, 1))  # (u^2+u)/(u-1) / (u/(u-1)) = u+1
        assert (circle / PT) * PT == circle

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            PT / RatFunc(0)

    def test_int_coercion(self):
        assert PT * 2 == 2 * PT == RatFunc((0, 2), (-1, 1))
        assert PT - 1 == RatFunc((1,), (-1, 1))


class TestEquality:
    def test_reduction_invariance(self):
        assert RatFunc((0, 1, 1), (0, -1, 1)) == RatFunc((1, 1), (-1, 1))

    def test_point_is_not_one(self):
        assert PT != RatFunc(1)


class TestLaurent:
    def test_point_series_tail_of_ones(self):
        assert PT.laurent(-3) == [1, 1, 1, 1]

    def test_sum_of_powers_up_to_two(self):
        # u^3/(u-1) expands as sum of u^i for i <= 2
        a = RatFunc((0, 0, 0, 1), (-1, 1))
        assert a.laurent(-1) == [1, 1, 1, 1]

    def test_plain_polynomial(self):
        assert RatFunc((0, 1)).laurent(0) == [1, 0]

    def test_tail_is_all_ones_deep(self):
        assert PT.laurent(-40) == [1] * 41

    def test_empty_beyond_top(self):
        assert PT.laurent(5) == []

    def test_difference_of_laurents_matches_subtraction(self):
        def laurent_map(a, k_min):
            top = len(a.num) - len(a.den)
            return {top - i: c for i, c in enumerate(a.laurent(k_min))}

        circle = RatFunc((0, 1, 1), (-1, 1))
        ma = laurent_map(circle, -6)
        mb = laurent_map(PT, -6)
        md = laurent_map(circle - PT, -6)
        for k in range(-6, 2):
            assert md.get(k, 0) == ma.get(k, 0) - mb.get(k, 0)


class TestBiPoly:
    """The cleared fraction num / den that term sums build on demand."""

    def test_cross_multiplied_equality(self):
        z = term({(0, 0): 1}, [(2, 2)])
        assert z == z
        assert z.num == BiPoly({(0, 2): 1})
        assert z.den == BiPoly({(2, 0): 1, (0, 2): -1})

    def test_clearing_invariance(self):
        # uT/(u-T) written over (u-1) clears to a different fraction, yet
        # both the term sums and their cleared fractions are equal
        plain = term({(1, 0): 1}, [(1, 1)])
        split = zsum(
            term(RatFunc((0, 0, 1), (-1, 1)), [(1, 1)]),
            term(RatFunc((0, -1), (-1, 1)), [(1, 1)]),
        )
        assert plain.den != split.den
        assert plain == split and cleared_equal(plain, split)

    def test_distinct_fractions_differ(self):
        a = term({(1, 0): 1}, [(1, 1)])
        b = term({(0, 0): 1}, [(1, 1)])
        assert a != b
        assert a.first_difference(b) == (1, RatFunc(1), RatFunc((1,), (0, 1)))

    def test_cleared_denominator_is_the_integer_lcm(self):
        half = RatFunc(1, 2)
        z = ZetaRational([(half, [(1, 2)]), (half, [(2, 2)])])
        assert pcontent(tuple(z.den.terms.values())) == 2
        # 1/(2u - 2) and 1/(4u) clear over 4u(u - 1), not 8u(u - 1)
        w = ZetaRational([(RatFunc(1, (-2, 2)), [(1, 1)]), (RatFunc(1, (0, 4)), [(1, 1)])])
        assert w.den == BiPoly({(3, 0): 4, (2, 0): -4, (2, 1): -4, (1, 1): 4})
        # one denominator repeated on most terms, as on the gk ladder, is
        # folded once and gives the lcm of the fold over every term
        over_2u_minus_2 = RatFunc((1, 3), (-2, 2))
        r = ZetaRational(
            [(over_2u_minus_2, [(k, 2 * k)]) for k in range(1, 6)]
            + [(RatFunc(1, (0, 4)), [(1, 1)]), (over_2u_minus_2, [(2, 2), (3, 4)])]
        )
        dens = [coeff.den for coeff, _ in r.terms]
        assert _common_den(r.terms) == _lcm_fold(dens) == (0, -4, 4)
        for s in (z, w, r):
            assert cleared_t_series(s, 6) == s.t_series(6)

    def test_cancelling_terms_clear_to_zero(self):
        z = zsum(term({(0, 0): 1}, [(2, 2)]), term({(0, 0): -1}, [(2, 2)]))
        assert z.is_zero()
        for s in (z, ZetaRational()):
            assert s.cleared_terms() == ([], [1, 0, 0])


class TestTSeriesExpansion:
    def test_x2_closed_form_by_hand(self):
        # uT^2/(u - T^2): T^2 coefficient 1, T^4 coefficient 1/u
        z = term({(1, 0): 1}, [(1, 2)])
        s = z.t_series(4)
        assert s.coeffs == (
            RatFunc(0),
            RatFunc(0),
            RatFunc(1),
            RatFunc(0),
            RatFunc((1,), (0, 1)),
        )

    def test_geometric_series(self):
        z = term({(0, 0): 1}, [(1, 1)])
        s = z.t_series(2)
        assert s.coeffs == (RatFunc(0), RatFunc((1,), (0, 1)), RatFunc((1,), (0, 0, 1)))

    def test_order_zero(self):
        z = term({(1, 0): 1}, [(1, 2)])
        assert z.t_series(0).coeffs == (RatFunc(0),)

    def test_truncation_coherence(self):
        z = zsum(
            term(RatFunc((3,), (-1, 1)), [(2, 1), (1, 3)]),
            term({(2, 0): -2, (0, 0): 5}, [(1, 3), (1, 3)]),
        )
        full = z.t_series(9)
        for m in (0, 3, 7, 9):
            assert truncate(full, m) == z.t_series(m)

    def test_numeric_long_division_agrees(self):
        z = zsum(
            term(RatFunc((1, 2), (0, 0, 1)), [(2, 2), (3, 5)]),
            term({(3, 0): -2}, [(1, 3)]),
        )
        assert series_values_match(z, z.t_series(10))
        assert z.t_series(10) == cleared_t_series(z, 10)


class TestExpansionBound:
    @pytest.mark.parametrize(
        "name, work",
        [("gk(64,+,+)", 4265047), ("gk(62,+,-)", 3877314), ("hk(129,+)", 2905717)],
    )
    def test_the_largest_catalog_trees_clear_under_the_cap(self, name, work):
        # the whole sum through dT, the certificate bound of compare
        z = denef_loeser(catalog.get(name), "naive")
        groups = _grouped(_common_den(z.terms), z.terms)
        bound = _t_bound(factors for _, factors in z.terms)
        assert _expansion_work(groups, bound) == work < MAX_EXPANSION

    def test_work_is_the_box_bound_summed_over_groups(self):
        groups = {(): (1,), ((1, 2),): (1,), ((1, 1), (2, 3)): (1,)}
        assert _expansion_work(groups, 10) == 1 + 5 + 10 * 3


def layout_of(z: ZetaRational) -> _Layout:
    """The ``_Layout`` of z's cleared fraction, which ``ZetaRational`` does
    not keep."""
    return cleared.cleared_fraction(z.terms)[0]


class TestClearedBound:
    def test_the_largest_catalog_polynomial_stays_under_the_cap(self, monkeypatch):
        # of every catalog tree and variant within the divisor cap, gk(62,+,-)
        # holds the largest polynomial on the way to its cleared fraction
        sizes = []
        within_cap = _Layout.within_cap

        def record(layout, rows):
            sizes.append(row_digit_count(rows, layout.w))
            return within_cap(layout, rows)

        # counted on the row pass, whose every step passes ``within_cap``
        monkeypatch.setattr(_Layout, "packs_whole", lambda layout, factors: False)
        monkeypatch.setattr(_Layout, "within_cap", record)
        denef_loeser(catalog.get("gk(62,+,-)"), "naive").num
        assert max(sizes) == 83324 < MAX_CLEARED_TERMS

    def test_the_largest_catalog_layout_spans_within_both_caps(self):
        # no polynomial on the way to gk(62,+,-) spans more digits than its
        # layout's span, so neither cap is counted for it
        layout = layout_of(denef_loeser(catalog.get("gk(62,+,-)"), "naive"))
        assert (layout.span, layout.exact) == (111316, 72)
        assert layout.span <= MAX_CLEARED_TERMS
        assert layout.span * layout.exact <= ratpoly.MAX_PACKED_BITS

    @pytest.mark.parametrize(
        "name", [f"gk(14,{a},{b})" for a in "+-" for b in "+-"]
        + ["gk(62,+,-)", "gk(64,+,+)", "hk(129,+)"],
    )
    def test_runs_hold_at_most_twice_the_bits_of_their_terms_and_rows(self, name, monkeypatch):
        # the skewed map keeps rows apart by their widest band, and the
        # density rule sends these trees to the bare-int pass only where its
        # one int is dense: each term and each row of num and den is worth
        # at most two digits of the bare int that ``_Layout.terms`` reads.
        # The digits are the coefficient bound's width rounded up to a
        # machine integer, and above 64 bits only to whole bytes
        z = denef_loeser(catalog.get(name), "naive")
        need = cleared_width(z)
        w = next((size for size in (8, 16, 32, 64) if size >= need), -(-need // 8) * 8)
        read = []
        terms = _Layout.terms

        def recorded(layout, e, v, starts):
            read.append((layout.w, v.bit_length()))
            return terms(layout, e, v, starts)

        monkeypatch.setattr(_Layout, "terms", recorded)
        polys = z.cleared_terms()
        assert len(read) == 2
        for (width, bits), poly in zip(read, polys):
            assert width == w
            assert bits <= 2 * w * (len(poly) // 3 + len(set(poly[1::3])))

    @staticmethod
    def _read(layout, rows: dict) -> list:
        """Packed rows read out as the row pass reads num and den."""
        return _row_terms(rows, layout.w, layout.g)

    def test_times_factor_drops_cancelled_terms(self):
        # (u + T)(u - T) = u^2 - T^2: the u*T terms cancel and their row goes
        layout = _Layout([((1, 1), 2)], [(1,)], 8)
        rows = _times(layout, {0: (1, 1), 1: (0, 1)}, 1, 1)
        assert rows == {0: (2, 1), 2: (0, -1)}
        assert self._read(layout, rows) == [1, 0, 2, -1, 2, 0]

    def test_a_step_past_the_cap_is_invalid_input(self, monkeypatch):
        # (1 + u T)(u - T^2) has 4 terms
        layout = _Layout([((1, 1), 1), ((1, 2), 1)], [(1,), (0, 0, 1)], 8)
        rows = {0: (0, 1), 1: (1, 1)}
        monkeypatch.setattr(cleared, "MAX_CLEARED_TERMS", 4)
        assert len(self._read(layout, _times(layout, rows, 1, 2))) == 3 * 4
        monkeypatch.setattr(cleared, "MAX_CLEARED_TERMS", 3)
        with pytest.raises(InvalidInput, match="MAX_CLEARED_TERMS"):
            _times(layout, rows, 1, 2)

    def test_one_row_bands_too_far_apart_are_invalid_input(self, monkeypatch):
        # 1 and u^e in row 0 open e - 1 empty digits between their bands: up
        # to MAX_PACKED_BITS // exact = 64 the row pass sums them, and past
        # it refuses them, in either order
        layout = _Layout([((1, 1), 1)], [(1,)], 8)
        monkeypatch.setattr(ratpoly, "MAX_PACKED_BITS", 64 * 8)

        def summed(a, b):
            return layout.within_cap(_add_shifted({0: a}, {0: b}, (1,), layout.w, layout.exact))

        assert self._read(layout, summed((0, 1), (65, 1))) == [1, 0, 0, 1, 0, 65]
        for a, b in (((0, 1), (66, 1)), ((66, 1), (0, 1))):
            with pytest.raises(InvalidInput, match="MAX_PACKED_BITS"):
                summed(a, b)

    def test_num_and_den_each_read_one_polynomial(self, monkeypatch):
        # once each, for the BiPolys and the printed terms alike
        readouts = []
        terms = _Layout.terms

        def counted(layout, e, v, starts):
            readouts.append(v)
            return terms(layout, e, v, starts)

        monkeypatch.setattr(_Layout, "terms", counted)
        z = denef_loeser(catalog.get("gk(14,+,-)"), "naive")
        _ = z.num, z.den, z.cleared_terms()
        assert len(readouts) == 2

    def test_a_fold_drops_a_row_whose_digits_cancel(self):
        # 1 + 2 u T and -2 u T + 3 u^2 T^2: the middle row cancels and goes,
        # and its neighbours keep their rows, whether nu = 1 sets the rows
        # close or nu = 1000 far apart
        for nu in (1, 1000):
            layout = _Layout([((nu, 1), 2)], [(1,)], 8)
            rows = _add_shifted({0: (0, 1), 1: (1, 2)}, {1: (1, -2), 2: (2, 3)}, (1,), 8, 8)
            assert layout.within_cap(rows) == {0: (0, 1), 2: (2, 3)}
            assert self._read(layout, rows) == [1, 0, 0, 3, 2, 2]

    def test_a_prefix_is_counted_on_its_own_rows(self, monkeypatch):
        # with MAX_PACKED_BITS = 658 (w = 8, exact = 6) the prefix u^2 - T
        # holds 12 bits in its two rows; read through the final layout's row
        # starts, u^2 and the u^381 of a later row would share one row of
        # 2274 bits, so a count on that readout refused the sum
        monkeypatch.setattr(ratpoly, "MAX_PACKED_BITS", 658)
        z = ZetaRational([(RatFunc((4, -2), (0, 1)), [(2, 1), (572, 3)])])
        layout = layout_of(z)
        assert (layout.w, layout.exact) == (8, 6) and not layout.proves_caps()
        assert z.cleared_terms() == (
            [4, 4, 0, -2, 4, 1],
            [1, 0, 575, -1, 1, 573, -1, 3, 3, 1, 4, 1],
        )


def by_pass(terms, bare: bool):
    """``cleared_outcome`` of terms on the bare-int pass wherever the span
    proves both caps, whatever the density rule says, or on the row pass
    throughout."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Layout, "packs_whole",
                      lambda layout, factors: bare and layout.proves_caps())
        return cleared_outcome(terms)


# The documents named below, each a tree of strata valued 1 on the divisors
# (N, nu) given: CI's sparse.json, T-sparse with far-apart nu, and two
# divisors whose one product fills 4 of its 402 rows.
SPARSE_DIVISORS = [(2, 1), (1000, 3), (3, 2000)]
SPARSE_STRATA = ([1], [2], [3], [1, 2], [2, 3])
ROW_SPARSE_DIVISORS = [(1, 2), (400, 2)]
ROW_SPARSE_STRATA = ([1], [2], [1, 2])
# CI's t_dense.json at 6 divisors, not 15: N = 2^i and nu = 1, every pair a
# stratum, so that every T-row up to the last holds terms.
T_DENSE_DIVISORS = [(1 << i, 1) for i in range(6)]
T_DENSE_STRATA = [[a, b] for a in range(1, 7) for b in range(a + 1, 7)]


def valued_one(divisors, strata) -> ZetaRational:
    one = {"kind": "rational", "value": {"num": ["1"], "den": ["1"]}}
    doc = {
        "name": "t",
        "group": {"order": 1, "generators": []},
        "divisors": [{"id": i, "N": N, "nu": nu, "zero_fiber": True}
                     for i, (N, nu) in enumerate(divisors, 1)],
        "strata": [{"I": I, "beta": one} for I in strata],
    }
    return denef_loeser(parse(json.dumps(doc)), "naive")


class TestTwoPasses:
    @pytest.mark.parametrize(
        "name",
        catalog.sample_names()
        + [f"gk({k},{a},{b})" for k in range(3, 15) for a in "+-" for b in "+-"]
        + [f"hk({k},{s})" for k in range(3, 15) for s in "+-"]
        + ["gk(62,+,-)", "gk(64,+,+)", "hk(129,+)"],
    )
    def test_bare_ints_and_run_lists_clear_catalog_trees_alike(self, name):
        # the bare-int pass and the row pass, which took the place of the run
        # lists, read out the same terms on every catalog tree-variant
        res = catalog.get(name)
        for variant in variants_of(res):
            terms = denef_loeser(res, variant).terms
            assert by_pass(terms, True) == by_pass(terms, False), variant

    @pytest.mark.parametrize("name", ["gk(14,+,-)", "gk(62,+,-)"])
    def test_dense_ladder_trees_take_bare_ints(self, name, monkeypatch):
        def refuse(*_):
            raise AssertionError("row pass taken")

        z = denef_loeser(catalog.get(name), "naive")
        monkeypatch.setattr(cleared, "_row_pass", refuse)
        num, den = z.cleared_terms()
        assert num and den

    @pytest.mark.parametrize(
        "divisors, strata",
        [(SPARSE_DIVISORS, SPARSE_STRATA), (ROW_SPARSE_DIVISORS, ROW_SPARSE_STRATA)],
    )
    def test_sparse_sums_take_packed_rows(self, divisors, strata, monkeypatch):
        def refuse(*_):
            raise AssertionError("bare-int pass taken")

        z = valued_one(divisors, strata)
        want = by_pass(z.terms, False)
        monkeypatch.setattr(cleared, "_bare_pass", refuse)
        assert z.cleared_terms() == want

    @pytest.mark.parametrize(
        "divisors, strata",
        [(SPARSE_DIVISORS, SPARSE_STRATA), (ROW_SPARSE_DIVISORS, ROW_SPARSE_STRATA),
         (T_DENSE_DIVISORS, T_DENSE_STRATA)],
    )
    def test_the_row_pass_reads_its_rows_without_the_layout(self, divisors, strata,
                                                            monkeypatch):
        def refuse(*_):
            raise AssertionError("read through the layout")

        z = valued_one(divisors, strata)
        want = per_term_cleared(z)
        monkeypatch.setattr(_Layout, "packs_whole", lambda layout, factors: False)
        monkeypatch.setattr(_Layout, "terms", refuse)
        assert (z.num, z.den) == want

    @pytest.mark.parametrize("name", ["gk(14,+,-)", "gk(62,+,-)"])
    def test_num_and_den_share_one_list_of_row_starts(self, name, monkeypatch):
        # building the starts once per readout was slower on the benchmark
        calls = []
        row_starts = _Layout._row_starts

        def counted(layout, j0, j1):
            calls.append((j0, j1))
            return row_starts(layout, j0, j1)

        monkeypatch.setattr(_Layout, "_row_starts", counted)
        num, den = denef_loeser(catalog.get(name), "naive").cleared_terms()
        assert num and den and len(calls) == 1

    def test_the_row_sparse_sum_is_proved(self):
        # so only the density rule sends it to the row pass
        z = valued_one(ROW_SPARSE_DIVISORS, ROW_SPARSE_STRATA)
        assert layout_of(z).proves_caps()


class TestBandSum:
    def test_equal_bands_that_cancel_give_zero(self):
        assert _band_sum(3, 5 - (7 << 8), 3, -5 + (7 << 8), 8, 10) == (3, 0, 10)

    def test_a_partial_cancel_trims_and_moves_low(self):
        # (1 + 2u) + (-1 + 3u) = 5u: the cancelled digit goes, low moves up one
        assert _band_sum(4, 1 + (2 << 8), 4, -1 + (3 << 8), 8, 10) == (5, 5, 10)
        assert _band_sum(4, 1 + (2 << 8), 4, 1, 8, 10) == (4, 2 + (2 << 8), 10)

    def test_a_gap_of_spare_digits_passes_and_one_more_raises(self):
        # 1 and u^(spare + 1) open spare empty digits between them
        spare = 5
        for a, b in (((0, 1), (6, 1)), ((6, 1), (0, 1))):
            assert _band_sum(*a, *b, 8, spare) == (0, 1 + (1 << 48), 0)
        for a, b in (((0, 1), (7, 1)), ((7, 1), (0, 1))):
            with pytest.raises(InvalidInput, match="MAX_PACKED_BITS"):
                _band_sum(*a, *b, 8, spare)


sparse_rows = st.dictionaries(
    st.integers(0, 6),
    st.dictionaries(st.integers(-3, 3), st.integers(-3, 3).filter(bool), min_size=1, max_size=4),
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(sparse_rows, sparse_rows, st.lists(st.integers(-2, 2), max_size=3), st.integers(6, 40))
def test_add_shifted_matches_a_flat_reference(acc, rows, poly, w):
    # every sum is at most 3 + 3 * 3 * 2 = 21 < 2^(w-1) in absolute value
    want = flat_add_shifted(acc, rows, poly)
    start = packed(acc, w)
    got = _add_shifted(start, packed(rows, w), tuple(poly), w, w)
    assert got is start
    assert {(t, e): c for t, row in unpacked(got, w).items() for e, c in row.items()} == want
    # no empty row, and each row's lowest digit is nonzero
    assert all(v % (1 << w) for _, v in got.values())


@st.composite
def expansion_groups(draw):
    """(groups, order) as ``_grouped`` returns them: up to 4 groups over a
    pool of up to 4 distinct factors, each taken up to 3 times in a group;
    N = 1 beside N up to 64, nu up to 10^4 on factors whose N keeps their
    u-span small, signed P_g, and orders 0 to 64."""
    small = st.tuples(st.integers(1, 6), st.sampled_from([1, 1, 2, 3, 5]))
    large = st.tuples(st.integers(1000, 10**4), st.sampled_from([21, 32, 64]))
    pool = draw(st.lists(small | large, min_size=1, max_size=4, unique=True))
    groups = {}
    for _ in range(draw(st.integers(0, 4))):
        factors = [f for f in pool for _ in range(draw(st.integers(0, 3)))]
        poly = ptrim(draw(st.lists(st.integers(-50, 50), min_size=1, max_size=4)))
        if poly and len(factors) <= 5:
            groups[tuple(sorted(factors))] = poly
    return groups, draw(st.integers(0, 64))


@settings(max_examples=200, deadline=None)
@given(expansion_groups())
@example(({((1, 1), (1, 1), (1, 1)): (1,), ((1, 1), (4, 2)): (-3, 0, 2)}, 64))
@example(({((1, 1), (10**4, 64)): (5,), ((2, 1), (10**4, 21)): (-1, 1)}, 64))
# at MAX_PACKED_BITS: the last nu that runs and the first that is refused,
# by the bits of the rows built and by the gap charged before a merge
@example(({((1, 1), (1917397, 1)): (1,)}, 6))
@example(({((1, 1), (1917398, 1)): (1,)}, 6))
@example(({((1, 1), (26843546, 1)): (1,)}, 3))
@example(({((1, 1), (26843547, 1)): (1,)}, 3))
@example(({((1, 1), (26843548, 1)): (1,)}, 3))
def test_expansion_matches_the_shifted_copies(case):
    # the same rows and width, or the same refusal
    def outcome(expand):
        try:
            return expand(*case)
        except InvalidInput as exc:
            return str(exc)

    assert outcome(_expand) == outcome(shifted_copy_expand)


def test_expansion_adds_each_group_once(monkeypatch):
    calls = []
    add = ratpoly._add_shifted

    def counting(*args, **kwargs):
        calls.append(args[1])
        return add(*args, **kwargs)

    monkeypatch.setattr(ratpoly, "_add_shifted", counting)
    z = denef_loeser(catalog.get("gk(6,+,-)"))
    den_u = _common_den(z.terms)
    groups = _grouped(den_u, z.terms)
    rows, _, _ = _expand(groups, 48)
    assert rows and len(calls) == len(groups)


class TestSeriesContainer:
    def test_round_trip(self):
        s = TSeries((RatFunc(0), RatFunc(1), PT))
        assert TSeries.from_json(s.to_json()) == s

    def test_order(self):
        s = TSeries((RatFunc(0), RatFunc(1)))
        assert s.order == 1

    @pytest.mark.parametrize("obj", [
        {"coeffs": 5}, {"coeffs": None}, {"coeffs": True}, {"coeffs": 1.5}, {"coeffs": []},
        {"order": 0.0, "coeffs": [{"num": ["1"], "den": ["1"]}]},
        {"order": True, "coeffs": [{"num": ["1"], "den": ["1"]}, {"num": [], "den": ["1"]}]},
    ])
    def test_malformed_json_is_a_schema_error(self, obj):
        with pytest.raises(SchemaError):
            TSeries.from_json(obj)


# -- property-based checks ----------------------------------------------------

coeffs = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=5)
nonzero = coeffs.filter(lambda cs: any(cs))
ratfuncs = st.builds(RatFunc, coeffs, nonzero)


@settings(max_examples=80, deadline=None)
@given(ratfuncs, ratfuncs)
def test_add_and_mul_commute(a, b):
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=80, deadline=None)
@given(ratfuncs, ratfuncs, ratfuncs)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80, deadline=None)
@given(ratfuncs)
def test_canonicalization_idempotent(a):
    again = RatFunc(a.num, a.den)
    assert again.num == a.num and again.den == a.den


@settings(max_examples=60, deadline=None)
@given(coeffs, st.integers(0, 12))
def test_power_matches_repeated_products(a, k):
    want = (1,)
    for _ in range(k):
        want = pmul(want, ptrim(a))
    assert ppow(ptrim(a), k) == want
    with pytest.raises(ValueError):
        ppow(ptrim(a), -1)


# wide coefficients and a planted common factor, so that the pseudo-remainder
# sequence of pgcd runs several steps and its coefficients grow
wide = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=5).filter(any)
planted = st.builds(
    lambda g, x, y: (pmul(g, x), pmul(g, y)),
    wide,
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9).filter(any),
    wide,
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(nonzero, nonzero), planted))
def test_gcd_divides_both_arguments(pair):
    a, b = (ptrim(p) for p in pair)
    g = pgcd(a, b)
    # exact division succeeds for both, i.e. g is a common divisor over Z
    pdivexact(a, g)
    pdivexact(b, g)
    assert g[-1] > 0
    assert g == euclid_gcd(a, b)


@settings(max_examples=80, deadline=None)
@given(nonzero, nonzero, st.integers(-4, 4), st.booleans())
def test_pdivexact_raises_exactly_when_inexact(x, b, m, plant):
    # a is x or the planted multiple x * b; scaling b by m leaves no
    # remainder on a planted multiple, yet a non-integral quotient x / m
    # unless m divides the content of x
    b = ptrim(b)
    a = pmul(ptrim(x), b) if plant else ptrim(x)
    if m:
        b = tuple(m * c for c in b)
    q, r = fraction_divmod(a, b)
    if r or any(c.denominator != 1 for c in q):
        with pytest.raises(ValueError):
            pdivexact(a, b)
    else:
        assert pdivexact(a, b) == ptrim(int(c) for c in q)


# (num, den) pairs shaped like series coefficients, G-space values and worse:
# independent powers of u and of u-1 planted on num and on den, so that either
# side may keep the larger one; constant, c u^k and so c u^k (u-1)^b
# denominators; a common (u-1)^b, (u+1)^j or wide random factor, which leaves
# the primitive PRS a gcd to find after the strips; and either leading sign
signs = st.sampled_from([1, -1])
u_free = st.builds(
    lambda head, rest, sign: tuple(sign * c for c in (head, *rest)),
    st.integers(-9, 9).filter(bool),
    st.lists(st.integers(-9, 9), max_size=4),
    signs,
)
common = st.one_of(
    st.just((1,)),
    st.builds(lambda b: ppow((-1, 1), b), st.integers(1, 3)),
    st.builds(lambda j: ppow((1, 1), j), st.integers(1, 3)),
    wide,
)


@st.composite
def canonical_inputs(draw):
    num = pmul(draw(u_free), pmonomial(draw(st.integers(0, 6))))
    den = draw(st.one_of(
        st.builds(pmul, u_free, st.builds(pmonomial, st.integers(0, 6))),
        st.builds(lambda c: (c,), st.integers(-9, 9).filter(bool)),
        st.builds(pmonomial, st.integers(0, 12), st.integers(-9, 9).filter(bool)),
    ))
    num = pmul(num, ppow((-1, 1), draw(st.integers(0, 4))))
    den = pmul(den, ppow((-1, 1), draw(st.integers(0, 4))))
    shared = pmul(draw(common), pmonomial(draw(st.integers(0, 4))))
    return pmul(num, shared), pmul(den, shared)


def _planted(a, b):
    """u^2 (u-1)^a (u+1) over 5 u (u-1)^b (u+1)."""
    shared = pmul((1, 1), pmonomial(1))
    return (pmul(pmul((0, 1), shared), ppow((-1, 1), a)),
            pmul(pmul((5,), shared), ppow((-1, 1), b)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(canonical_inputs(), st.tuples(coeffs, nonzero)))
@example(_planted(3, 1))
@example(_planted(1, 3))
@example(_planted(0, 2))
def test_canonical_form_matches_the_full_prs(pair):
    num, den = pair
    r = RatFunc(num, den)
    assert (r.num, r.den) == prs_canonical(num, den)


@settings(max_examples=200, deadline=None)
@given(canonical_inputs(), st.integers(0, 6))
def test_times_u_minus_1_is_canonical_by_construction(pair, e):
    r = RatFunc(*pair)
    got = _times_u_minus_1(r, e)
    want = RatFunc(pmul(r.num, ppow((-1, 1), e)), r.den)
    assert (got.num, got.den) == (want.num, want.den)


@settings(max_examples=200, deadline=None)
@given(st.integers(-8, 8), st.integers(0, 3), coeffs)
@example(-3, 2, [])
@example(-5, 1, [0, 0, 4, -1])
def test_laurent_over_one_is_canonical_by_construction(low, zeros, cs):
    assert_laurent_over_is_canonical(low, ptrim([0] * zeros + cs), (1,))


@settings(max_examples=300, deadline=None)
@given(st.integers(-8, 8), st.integers(0, 3), coeffs, st.integers(0, 2))
@example(-3, 2, [], 0)
@example(-5, 1, [0, 0, 4, -1], 0)
@example(2, 0, [3], 1)  # 3(u - 1) / (u - 1): u - 1 cancels
@example(-2, 1, [1, 1], 2)  # (u + 1)(u - 1)^2 over u^2 (u - 1)
@example(-1, 0, [2, -1, -1], 0)  # sums to 0: u - 1 divides
@example(0, 0, [-4], 0)
def test_laurent_over_u_minus_1_is_canonical_by_construction(low, zeros, cs, shared):
    # a factor (u - 1)^shared makes poly sum to 0, so u - 1 cancels before
    # the value is built over 1; otherwise the sum is 0 only when u - 1
    # divides cs by chance
    poly = pmul(ptrim([0] * zeros + cs), ppow((-1, 1), shared))
    assert_laurent_over_is_canonical(low, poly, (-1, 1))


def assert_laurent_over_is_canonical(low, poly, den_u):
    got = _laurent_over(low, poly, den_u)
    want = RatFunc((0,) * low + poly, den_u) if low >= 0 else RatFunc(poly, (0,) * -low + den_u)
    assert (got.num, got.den) == (want.num, want.den)


# -- the Laurent row: the one stored form of a series coefficient --------------

@st.composite
def laurent_inputs(draw):
    """(low, poly, den_u) for ``_laurent_row``: a trimmed poly with up to
    three low zeros, whose coefficients sum to 0 about half the time, so that
    u - 1 divides it, over 1, u - 1, u + 1 or u^2 - 1."""
    cs = draw(st.lists(st.integers(-5, 5) | st.integers(-(10**30), 10**30), max_size=6))
    if draw(st.booleans()):
        cs.append(-sum(cs))
    poly = ptrim([0] * draw(st.integers(0, 3)) + cs)
    return draw(st.integers(-20, 20)), poly, draw(st.sampled_from([(1,), (-1, 1), (1, 1), (-1, 0, 1)]))


@settings(max_examples=400, deadline=None)
@given(laurent_inputs())
@example((-3, (0, 0, 2, -2), (-1, 1)))  # 2 u^-1 (u - 1) / (u - 1)
@example((4, (), (-1, 0, 1)))  # zero over u^2 - 1
@example((-20, (0, 3, 0, -3), (-1, 0, 1)))  # u^2 - 1 cancels
@example((0, (1, -1), (1, 1)))
def test_laurent_row_is_the_one_canonical_form(case):
    low, poly, den_u = case
    row = _laurent_row(low, poly, den_u)
    value = _laurent_over(low, poly, den_u)
    public = RatFunc(poly, den_u) * RatFunc.monomial(low)
    assert (value.num, value.den) == (public.num, public.den)
    assert (_row_value(row).num, _row_value(row).den) == (value.num, value.den)
    assert _row_of(value) == row and _row_of(_row_value(row)) == row
    low_r, poly_r, den_r = row
    if poly_r:
        assert poly_r[0] and den_r[0] and den_r[-1] > 0
    else:
        assert row == _ZERO_ROW and not value


@settings(max_examples=150, deadline=None)
@given(st.lists(laurent_inputs(), min_size=1, max_size=6))
def test_series_of_rows_is_the_series_of_their_values(cases):
    rows = [_laurent_row(*case) for case in cases]
    values = [_laurent_over(*case) for case in cases]
    from_rows, from_values = TSeries._from_rows(rows), TSeries(values)
    assert from_rows == from_values and hash(from_rows) == hash(from_values)
    assert from_rows.rows == from_values.rows == tuple(rows)
    assert from_rows.coeffs == from_values.coeffs == tuple(values)
    assert [from_rows[n] for n in range(len(rows))] == values
    assert TSeries.from_json(from_rows.to_json()).rows == from_rows.rows


@pytest.mark.parametrize("fits, refused", [
    ((127, 1, (1,)), (128, 1, (1,))),  # num: zeros below the digit
    ((-127, 1, (1,)), (-128, 1, (1,))),  # den: zeros below den_u
    ((-126, 1, (-1, 1)), (-127, 1, (-1, 1))),
    ((-5, 128, (1,)), (-5, 129, (1,))),  # num, with low < 0
])
def test_check_span_charges_the_dense_tuples_at_the_exact_width(fits, refused):
    # 128 powers of u at 2^20 bits each are MAX_PACKED_BITS exactly; one
    # more is refused
    exact = ratpoly.MAX_PACKED_BITS // 128
    _check_span(*fits, exact)
    with pytest.raises(InvalidInput, match="MAX_PACKED_BITS"):
        _check_span(*refused, exact)


@settings(max_examples=200, deadline=None)
@given(canonical_inputs())
def test_the_coprime_test_mod_p_agrees_with_the_prs(pair):
    num, den = pair
    if len(num) > 1 and len(den) > 1 and _coprime_mod_p(num, den):
        assert pgcd(num, den) == (1,)
    shared = pmul((3, -1, 2), (1, 1))
    assert not _coprime_mod_p(pmul(num, shared), pmul(den, shared))


u_minus_1_powers = st.builds(
    lambda c, j: pmul((c,), ppow((-1, 1), j)), st.integers(-9, 9).filter(bool), st.integers(0, 8)
)


@settings(max_examples=200, deadline=None)
@given(u_free, st.integers(0, 4), st.integers(0, 4), u_minus_1_powers, st.integers(0, 4))
@example((1, 2 * ratpoly._P), 1, 0, (3, -6, 3), 1)
def test_cofactors_over_a_power_of_u_minus_1_match_the_prs(a, i, ka, den, kb):
    # a (u-1)^i u^ka over c (u-1)^j u^kb: after the strips den's side is a
    # constant times a power of u - 1 that num's side is not divisible by,
    # so the two are coprime; unless either is a constant, the test mod
    # 2^61 - 1 shows it, except when the prime divides num's leading
    # coefficient, as in the example, where the PRS runs
    num = pmul(pmul(a, ppow((-1, 1), i)), pmonomial(ka))
    den = pmul(den, pmonomial(kb))
    g = pgcd(num, den)
    assert _cofactors(num, den) == (pdivexact(num, g), pdivexact(den, g))


def test_a_large_coprime_pair_skips_the_prs():
    # degree 24 with 300-digit coefficients: the PRS takes over a second
    a, b = big_coprime_pair()
    start = time.perf_counter()
    r = RatFunc(a, b)
    assert time.perf_counter() - start < 0.1
    assert (r.num, r.den) == (a, b)


positive_dens = st.one_of(
    st.builds(pmul, u_free, u_free),
    st.tuples(st.integers(-9, 9).filter(bool), st.integers(0, 6), st.integers(0, 4)).map(
        lambda cub: pmul(pmonomial(cub[1], cub[0]), ppow((-1, 1), cub[2]))
    ),
).map(lambda p: pmul((1 if p[-1] > 0 else -1,), p))


@settings(max_examples=100, deadline=None)
@given(st.lists(positive_dens, max_size=5))
def test_lcm_fold_matches_the_full_prs(dens):
    assert _lcm_fold(dens) == prs_lcm_fold(dens)


monic = st.builds(lambda cs: tuple(cs) + (1,), coeffs)


@settings(max_examples=80, deadline=None)
@given(st.one_of(ratfuncs, st.builds(RatFunc, coeffs, monic)), st.integers(-8, 3))
def test_laurent_matches_recurrence(r, k_min):
    try:
        want = recurrence_laurent(r, k_min)
    except NotExpandable:
        with pytest.raises(NotExpandable):
            r.laurent(k_min)
    else:
        assert r.laurent(k_min) == want


# u (u-1) and u (u-1)^2 are common denominators of the others, so a term
# over one of them can sit beside terms of other denominators with quotient
# 1 over the sum's common denominator (``ratpoly._grouped``), as a sum with
# one denominator has for every term
small_coeffs = st.builds(
    RatFunc,
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.sampled_from([(1,), (-1, 1), (1, -2, 1), (0, 1), (2,), (0, -1, 1), (0, 1, -2, 1)]),
)
factor_lists = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=3
)
term_lists = st.lists(st.tuples(small_coeffs, factor_lists), max_size=4)


def t_bound(*sums):
    """sum of N * largest multiplicity over the distinct (nu, N) of all sides"""
    most = {}
    for z in sums:
        for _, factors in z.terms:
            for f in set(factors):
                most[f] = max(most.get(f, 0), factors.count(f))
    return sum(N * count for (_, N), count in most.items())


@settings(max_examples=60, deadline=None)
@given(term_lists, term_lists, st.randoms(use_true_random=False))
def test_birat_eq_equivalence_relation(lhs, rhs, rng):
    a, b = ZetaRational(lhs), ZetaRational(rhs)
    assert (a == b) == cleared_equal(a, b) == (b == a)
    shuffled = list(lhs)
    rng.shuffle(shuffled)
    assert ZetaRational(shuffled) == a
    if lhs:
        coeff, factors = lhs[0]
        part = RatFunc((rng.randint(-3, 3), 1), (-1, 1))
        split = ZetaRational([(coeff - part, factors), (part, factors)] + lhs[1:])
        assert split == a and cleared_equal(split, a)
    diff = a.first_difference(b)
    if diff is not None:
        n, lhs_coeff, rhs_coeff = diff
        assert n <= t_bound(a, b)
        sa, sb = a.t_series(n), b.t_series(n)
        assert (sa[n], sb[n]) == (lhs_coeff, rhs_coeff)
        assert lhs_coeff != rhs_coeff and sa.coeffs[:n] == sb.coeffs[:n]


U = RatFunc.poly((0, 1))
U_MINUS_1 = RatFunc.poly((-1, 1))


@st.composite
def rewritten_pairs(draw):
    """(lhs, rhs, rewritten only): rhs rewrites lhs without changing its sum,
    then perhaps gains extra terms.  A rewrite splits a coefficient, expands
    one factor g = (nu, N) of a term by g = u g' + (u-1) g g' with g' =
    (nu + 1, N), adds a term together with its negation, or moves a term to
    the other side negated."""
    lhs = draw(term_lists)
    rhs = []
    for coeff, factors in lhs:
        how = draw(st.sampled_from(["keep", "split", "expand"]))
        if how == "split":
            part = draw(small_coeffs)
            rhs += [(coeff - part, factors), (part, factors)]
        elif how == "expand":
            nu, N = draw(st.sampled_from(factors))
            rest = list(factors)
            rest.remove((nu, N))
            rhs += [(coeff * U, rest + [(nu + 1, N)]),
                    (coeff * U_MINUS_1, factors + [(nu + 1, N)])]
        else:
            rhs.append((coeff, factors))
    for coeff, factors in draw(term_lists):
        rhs += [(coeff, factors), (-coeff, factors)]
    moved = draw(st.integers(0, len(rhs)))
    lhs = lhs + [(-coeff, factors) for coeff, factors in rhs[:moved]]
    extra = draw(st.lists(st.tuples(small_coeffs, factor_lists), max_size=2))
    return lhs, draw(st.permutations(rhs[moved:] + extra)), not extra


@settings(max_examples=150, deadline=None)
@given(rewritten_pairs())
def test_first_difference_agrees_with_the_two_sided_expansion(pair):
    lhs, rhs, rewritten_only = pair
    a, b = ZetaRational(lhs), ZetaRational(rhs)
    diff = a.first_difference(b)
    assert diff == two_sided_first_difference(a, b)
    assert b.first_difference(a) == two_sided_first_difference(b, a)
    if rewritten_only:
        assert diff is None


class TestFirstDifferenceWork:
    @pytest.fixture
    def expansions(self, monkeypatch):
        orders = []
        expand = ratpoly._expand

        def record(groups, order):
            orders.append(order)
            return expand(groups, order)

        monkeypatch.setattr(ratpoly, "_expand", record)
        return orders

    def test_unequal_sides_expand_delta_and_their_own_side(self, expansions):
        # y4-x2_Z2 against x4-y2_Z2 first differ at T^4: Delta through its
        # dT, then the own side through T^4; the other side is never expanded
        lhs = denef_loeser(catalog.get("y4-x2_Z2"))
        rhs = denef_loeser(catalog.get("x4-y2_Z2"))
        diff = lhs.first_difference(rhs)
        assert diff[0] == 4 and len(expansions) == 2 and expansions[1] == 4
        assert diff == two_sided_first_difference(lhs, rhs)

    def test_equal_sides_expand_delta_only(self, expansions):
        z = denef_loeser(catalog.get("y4-x2_Z2"))
        assert z.first_difference(ZetaRational(z.terms[::-1])) is None
        assert len(expansions) == 1

    def test_a_low_difference_stops_at_its_window(self, expansions):
        # gk(62,+,-) against y4-x2_Z2 differ at T^4, far below dT(Delta) =
        # 3905; their (2, 2) terms cancel, so Delta's lowest shift is 4, and
        # its first window, through T^4, holds the difference
        lhs = denef_loeser(catalog.get("gk(62,+,-)"))
        rhs = denef_loeser(catalog.get("y4-x2_Z2"))
        assert lhs.first_difference(rhs)[0] == 4 and expansions == [4, 4]

    def test_windows_double_up_to_dt(self, expansions):
        # g = T^2/(u - T^2) less h = T^2/(u^2 - T^2) has its lowest shift at
        # T^2 and differs from 0 there; g against u h + (u-1) g h, equal by
        # the blowup identity, takes windows through T^2 and then dT = 4
        g, h = [(1, 2)], [(2, 2)]
        a = zsum(term({(0, 0): 1}, g), term({(0, 0): -1}, h))
        assert a.first_difference(ZetaRational())[0] == 2 and expansions == [2, 2]
        expansions.clear()
        blown_up = zsum(term({(1, 0): 1}, h), term({(1, 0): 1, (0, 0): -1}, g + h))
        assert term({(0, 0): 1}, g).first_difference(blown_up) is None
        assert expansions == [2, 4]


@st.composite
def spread_term_lists(draw):
    """Up to 8 terms over a sorted pool of up to 6 distinct factors.  A term
    may span the pool, holding its first and last factor and lacking some
    between them; its first factor may repeat up to multiplicity 3; and the
    last terms may negate the first ones, so that groups cancel."""
    pool = sorted(draw(st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 6)), min_size=1, max_size=6, unique=True
    )))
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        factors = [pool[0], pool[-1]] if draw(st.booleans()) else []
        factors += draw(st.lists(st.sampled_from(pool), max_size=3))
        factors += factors[:1] * draw(st.integers(0, 2))
        terms.append((draw(small_coeffs), factors[:5]))
    cancelled = draw(st.integers(0, len(terms) // 2))
    kept = terms[:len(terms) - cancelled]
    return kept + [(-coeff, factors) for coeff, factors in terms[:cancelled]]


@settings(max_examples=200, deadline=None)
@given(spread_term_lists())
def test_cleared_fraction_matches_per_term_assembly(terms):
    z = ZetaRational(terms)
    assert (z.num, z.den) == per_term_cleared(z)


@st.composite
def capped_term_sums(draw):
    """Up to 5 terms whose coefficients have denominator 1, u, u - 1 or
    u(u - 1), each on 0 to 4 factors with N in {1, 2, 3, 4, 6, 12}."""
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        num = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3))
        den = draw(st.sampled_from([(1,), (0, 1), (-1, 1), (0, -1, 1)]))
        factors = draw(st.lists(
            st.tuples(st.integers(1, 6), st.sampled_from([1, 2, 3, 4, 6, 12])), max_size=4
        ))
        terms.append((RatFunc(num, den), factors))
    return terms


def cleared_outcome(terms):
    """The cleared fraction's terms, or the text of its InvalidInput."""
    try:
        return ZetaRational(terms).cleared_terms()
    except InvalidInput as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    capped_term_sums(),
    st.integers(2, 64) | st.integers(2, 1 << 17),
    st.integers(64, 4096) | st.integers(64, 1 << 27),
)
def test_caps_refuse_as_counting_every_step(terms, max_terms, max_bits):
    # the layout's span only decides whether a step is counted, so each
    # cleared fraction and each refusal is the one that counting every step
    # gives, wherever the caps lie
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cleared, "MAX_CLEARED_TERMS", max_terms)
        patch.setattr(ratpoly, "MAX_PACKED_BITS", max_bits)
        got = cleared_outcome(terms)
        patch.setattr(_Layout, "within_cap", counted_within_cap)
        assert got == cleared_outcome(terms)


SPARSE_NS = [1, 2, 3, 4, 6, 12, 50, 400]
far_nu = st.integers(1, 6) | st.integers(1, 5000)


@st.composite
def far_apart_sums(draw):
    """(terms, other, order): two sums of up to 4 terms over one pool of up
    to 4 factors whose nu lie far apart, 1 to 5000, and whose N are in
    SPARSE_NS, so that both packed drivers hold T-sparse rows whose bands
    lie far apart.  A term may come with its negation on a factor of the
    same N and another nu, whose products cancel whole rows."""
    pool = draw(st.lists(st.tuples(far_nu, st.sampled_from(SPARSE_NS)),
                         min_size=1, max_size=4, unique=True))

    def term_sum():
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            num = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
            coeff = RatFunc(num, draw(st.sampled_from([(1,), (0, 1)])))
            factors = draw(st.lists(st.sampled_from(pool), max_size=3))
            terms.append((coeff, factors))
            if factors and draw(st.booleans()):
                terms.append((-coeff, [(draw(far_nu), factors[0][1]), *factors[1:]]))
        return terms

    order = draw(st.integers(0, 40) | st.sampled_from([400, 450]))
    return term_sum(), term_sum(), order


def packed_outcomes(terms, other, order):
    """The cleared terms, the T-series through ``order`` and the first
    difference from ``other``, each or the text of its InvalidInput."""
    out = []
    for step in (
        lambda: ZetaRational(terms).cleared_terms(),
        lambda: ZetaRational(terms).t_series(order),
        lambda: ZetaRational(terms).first_difference(ZetaRational(other)),
    ):
        try:
            out.append(step())
        except InvalidInput as exc:
            out.append(str(exc))
    return out


@settings(max_examples=300, deadline=None)
@given(
    far_apart_sums(),
    st.integers(2, 64) | st.just(MAX_CLEARED_TERMS),
    st.integers(64, 4096) | st.just(ratpoly.MAX_PACKED_BITS),
)
def test_band_sums_match_the_merges_they_replaced(case, max_terms, max_bits):
    # one band-sum rule, ``_band_sum``, in both drivers gives the terms,
    # series and refusals of the separate merge it replaced, wherever the
    # caps lie
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cleared, "MAX_CLEARED_TERMS", max_terms)
        patch.setattr(ratpoly, "MAX_PACKED_BITS", max_bits)
        got = packed_outcomes(*case)
        patch.setattr(ratpoly, "_add_shifted", reference_add_shifted)
        patch.setattr(cleared, "_add_shifted", reference_add_shifted)
        patch.setattr(ratpoly, "_band_sum", merged_bands)
        assert got == packed_outcomes(*case)


@settings(max_examples=300, deadline=None)
@given(
    far_apart_sums(),
    st.integers(2, 64) | st.just(MAX_CLEARED_TERMS),
    st.integers(64, 4096) | st.just(ratpoly.MAX_PACKED_BITS),
)
def test_bare_ints_match_packed_rows(case, max_terms, max_bits):
    # the bare-int pass, taken wherever the span proves both caps, gives the
    # terms and refusals of the row pass, wherever the caps lie
    terms, other, _ = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cleared, "MAX_CLEARED_TERMS", max_terms)
        patch.setattr(ratpoly, "MAX_PACKED_BITS", max_bits)
        for sum_ in (terms, other):
            assert by_pass(sum_, True) == by_pass(sum_, False)


BIG = 1 << 200


@st.composite
def big_term_sums(draw):
    """Up to 5 terms with coefficients up to 2^200 in absolute value over a
    pool of up to 3 distinct factors, each taken up to 3 times in a term; a
    term may hold no factor, so that a coefficient can reach the L1 bound
    that sets the packing width."""
    pool = draw(st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=3, unique=True
    ))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        num = draw(st.lists(st.sampled_from([0, 1, -1, BIG, -BIG]) | st.integers(-BIG, BIG),
                            min_size=1, max_size=3))
        den = draw(st.sampled_from([(1,), (-1, 1), (0, 1), (2,), (0, -1, 1)]))
        factors = [f for f in pool for _ in range(draw(st.integers(0, 3)))]
        terms.append((RatFunc(num, den), factors))
    return terms


def assert_matches_the_references(z: ZetaRational, order: int):
    assert (z.num, z.den) == per_term_cleared(z)
    series = z.t_series(order)
    for u0 in (2, -3):
        assert [eval_fraction(c, u0) for c in series.coeffs] == term_series_at(z, u0, order)


@settings(max_examples=150, deadline=None)
@given(big_term_sums(), st.integers(0, 8))
# eight factors with N = 1 to T^8 box 8^8 lattice points, one more than
# MAX_EXPANSION beside the factorless term's one
@example([(RatFunc(1), []), (RatFunc(1), [(1, 1)] * 2 + [(2, 1)] * 3 + [(3, 1)] * 3)], 8)
def test_packed_width_holds_large_coefficients(terms, order):
    # the series is refused by contract where the box passes MAX_EXPANSION
    z = ZetaRational(terms)
    if _expansion_work(_grouped(_common_den(z.terms), z.terms), order) > MAX_EXPANSION:
        assert (z.num, z.den) == per_term_cleared(z)
        with pytest.raises(InvalidInput, match="MAX_EXPANSION"):
            z.t_series(order)
    else:
        assert_matches_the_references(z, order)


class TestPackedWidth:
    def test_a_coefficient_at_the_bound_fits(self):
        # a term with no factor: the cleared numerator is the coefficient
        # itself, at max(sum |P_g|_1, |den_u|_1) * 2^0 = 2^200 exactly
        z = ZetaRational([(RatFunc(BIG), [])])
        assert z.cleared_terms() == ([BIG, 0, 0], [1, 0, 0])
        assert_matches_the_references(z, 3)
        # through T^3 the box of T^3 / (u^2 - T^3) is 1, so the T^3
        # coefficient 2^200 u^-2 is at the expansion's bound 2^200 * 1
        assert_matches_the_references(ZetaRational([(RatFunc(BIG), [(2, 3)])]), 3)
        # packed digits take whole bytes, so the 202 bits of the bound take 208
        assert ratpoly._width(BIG) == 202 and layout_of(z).w == 208


@st.composite
def balanced_digits(draw):
    """(e, digits): the balanced digits |c| < 2^(e-1) of one packed value at
    the exact width e from 2 to 210, lowest first, the top one nonzero.
    Often the top digit is 1 or 2^(e-2), of either sign, above lower digits
    of the other sign, where the bit length sits on a digit boundary."""
    e = draw(st.integers(2, 210))
    half = 1 << (e - 1)
    digit = st.integers(1 - half, half - 1) | st.sampled_from([1 - half, -1, 0, 1, half - 1])
    lower = draw(st.lists(digit, max_size=6))
    top = draw(st.sampled_from([1, half >> 1]) | st.integers(1, half - 1))
    sign = draw(st.sampled_from([1, -1]))
    if draw(st.booleans()):
        lower = [-sign * abs(c) for c in lower]
    return e, lower + [sign * top]


@settings(max_examples=500, deadline=None)
@given(balanced_digits())
@example((2, [-1, 1]))
@example((9, [-255, 0, 64]))
@example((65, [1, -1]))
@example((210, [-1, 1 << 208]))
def test_digits_read_back_and_count_at_the_exact_width(case):
    # the one readout gives back the digits stored at the byte width, as the
    # independent carry does; and the stored bit length, converted, is the
    # bit length of the same digits at the exact width, which keeps each
    # MAX_PACKED_BITS refusal where the exact width puts it
    e, digits = case
    w = ratpoly._byte_width(e)
    v = sum(c << w * i for i, c in enumerate(digits))
    assert tuple(ratpoly._digits(v, w)) == tuple(digits)
    assert unpacked({0: (0, v)}, w) == {0: {i: c for i, c in enumerate(digits) if c}}
    assert ratpoly._row_poly((5, v), w) == (5, tuple(digits))
    assert ratpoly._row_poly((5, 0), w) == (5, ())
    at_exact = sum(c << e * i for i, c in enumerate(digits))
    assert ratpoly._exact_bits([v.bit_length()], w, e) == at_exact.bit_length()
