import dataclasses
import random

import pytest
from helpers import (
    blow_up_fixed_point,
    cleared_t_series,
    displayed_minus_x2_minus_y4,
    displayed_x2_plus_y2,
    displayed_x2k,
    displayed_y4_x2,
    eval_at,
    per_stratum_terms,
    per_term_cleared,
    per_term_display,
    series_values_match,
    two_sided_first_difference,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equizeta import catalog, zeta
from equizeta.cli import _emit
from equizeta.errors import InvalidResolution
from equizeta.gspace import Atom
from equizeta.ratpoly import RatFunc, ZetaRational
from equizeta.resolution import (
    Divisor,
    GroupSpec,
    ResolutionData,
    StratumEntry,
    generated_group,
    parse,
    resolution_from_json,
    serialize,
    validate,
)
from equizeta.zeta import VARIANTS, denef_loeser, display, distinguish, zeta_json


def populated_variants(res):
    """The variants for which some stratum carries a value."""
    return [v for v in VARIANTS
            if any(getattr(st, zeta._EXPR_FIELD[v]) is not None for st in res.strata)]


class TestEngineBasics:
    def test_empty_strata_gives_zero(self):
        res = ResolutionData(
            "empty",
            (Divisor(1, 2, 2, True),),
            GroupSpec(2, ((1,),)),
            (),
        )
        assert denef_loeser(res).is_zero()

    def test_missing_cover_contributes_zero(self):
        res = catalog.get("x2+y2_Z2")
        assert denef_loeser(res, "minus").is_zero()
        assert display(denef_loeser(res, "minus")) == "0"

    def test_invalid_resolution_raises(self):
        res = ResolutionData(
            "bad",
            (Divisor(1, 2, 1, True), Divisor(2, 4, 1, True)),
            GroupSpec(2, ((2, 1),)),
            (StratumEntry({1}, Atom("point_fixed")),),
        )
        with pytest.raises(InvalidResolution):
            denef_loeser(res)

    def test_denominator_shape(self):
        # the cleared denominator is (u-1)-power times (u^nu - T^N) factors
        z = denef_loeser(catalog.get("x2+y2_Z2"), "plus")
        assert z.den.terms == {(3, 0): 1, (2, 0): -1, (1, 2): -1, (0, 2): 1}

    def test_series_t0_vanishes(self):
        for name in ("y4-x2_Z2", "x2+y2_Z2", "A-boundary_f"):
            z = denef_loeser(catalog.get(name))
            assert z.t_series(3)[0].is_zero()


class TestWorkedExamples:
    def test_x2_plus_y2_all_variants(self):
        res = catalog.get("x2+y2_Z2")
        for variant in VARIANTS:
            assert denef_loeser(res, variant) == displayed_x2_plus_y2(variant)

    def test_minus_x2_minus_y4_all_variants(self):
        res = catalog.get("-x2-y4_Z2")
        for variant in VARIANTS:
            assert denef_loeser(res, variant) == displayed_minus_x2_minus_y4(variant)

    def test_monomial_closed_form(self):
        for k in (1, 2):
            res = catalog.get(f"x2k_Z2({k})")
            for variant in VARIANTS:
                assert denef_loeser(res, variant) == displayed_x2k(k, variant)

    def test_expansion_of_y4_x2_regression(self):
        # frozen from expanding the displayed closed form: T^2 coefficient 1,
        # T^3 zero, T^4 coefficient u^-2 + (u^2-u+1) u^-3 = (u^2+1)/u^3
        s = denef_loeser(catalog.get("y4-x2_Z2")).t_series(4)
        assert s[1].is_zero()
        assert s[2] == RatFunc(1)
        assert s[3].is_zero()
        assert s[4] == RatFunc((1, 0, 1), (0, 0, 0, 1))

    def test_expansion_matches_cleared_long_division(self):
        for name in catalog.sample_names():
            res = catalog.get(name)
            for variant in VARIANTS:
                z = denef_loeser(res, variant)
                assert z.t_series(10) == cleared_t_series(z, 10), (name, variant)

    def test_cleared_fraction_matches_per_term_assembly(self):
        names = catalog.sample_names() + ["gk(9,+,-)", "gk(10,-,-)", "hk(9,+)"]
        for name in names:
            res = catalog.get(name)
            for variant in VARIANTS:
                z = denef_loeser(res, variant)
                assert (z.num, z.den) == per_term_cleared(z), (name, variant)

    def test_coefficients_match_per_stratum_loop(self):
        ladder = [f"gk(14,{a},{b})" for a in "+-" for b in "+-"]
        ladder += [f"hk({k},{s})" for k in (13, 14) for s in "+-"]
        resolutions = [catalog.get(name) for name in catalog.sample_names() + ladder]
        # one value on strata of sizes 1 and 2 takes two (u-1) exponents
        point = Atom("point_fixed")
        resolutions.append(
            ResolutionData(
                "shared value",
                (Divisor(1, 2, 2, True), Divisor(2, 1, 1, False)),
                GroupSpec(1),
                (StratumEntry({1}, point, point), StratumEntry({1, 2}, point, point)),
            )
        )
        # parsed: {1} and {2} hold equal but distinct expression objects, and
        # the parser's one point_fixed node is shared by {3} and {1, 2}
        point = {"kind": "atom", "name": "point_fixed"}
        minus_point = {"kind": "closed_complement", "closed_part": point,
                       "whole": {"kind": "atom", "name": "circle_with_fixed_point"}}
        parsed = resolution_from_json({
            "name": "parsed values",
            "group": {"order": 1},
            "divisors": [{"id": i, "N": 2 * i, "nu": i + 1, "zero_fiber": True} for i in (1, 2, 3)],
            "strata": [
                {"I": [1], "beta": minus_point, "beta_plus": minus_point},
                {"I": [2], "beta": minus_point, "beta_plus": minus_point},
                {"I": [3], "beta": point, "beta_minus": point},
                {"I": [1, 2], "beta": point, "beta_plus": point, "beta_minus": point},
            ],
        })
        first, second, third, crossing = parsed.strata
        assert first.beta == second.beta and first.beta is not second.beta
        assert third.beta is crossing.beta is third.beta_minus is crossing.beta_plus
        resolutions.append(parsed)
        for res in resolutions:
            for variant in VARIANTS:
                got = denef_loeser(res, variant).terms
                assert got == per_stratum_terms(res, variant), (res.name, variant)

    def test_one_beta_evaluation_per_distinct_value(self, monkeypatch):
        calls = []
        evaluate = zeta.beta_value

        def counting(expr):
            calls.append(expr)
            return evaluate(expr)

        monkeypatch.setattr(zeta, "beta_value", counting)
        res = catalog.get("gk(14,+,-)")
        denef_loeser(res)
        distinct = {st.beta for st in res.strata}
        assert len(calls) == len(distinct) < len(res.strata)
        # compare shares one memo between its sides: a fixture against its
        # mutant, with one nu changed, evaluates the fixture's values only,
        # and an unequal pair each distinct value of both once
        mutant = dataclasses.replace(res, divisors=tuple(
            dataclasses.replace(d, nu=d.nu + 1) if d.id == 1 else d for d in res.divisors))
        other = catalog.get("y4-x2_Z2")
        for lhs, rhs in ((res, mutant), (res, other), (other, res)):
            calls.clear()
            distinguish(lhs, rhs)
            both = {st.beta for st in lhs.strata + rhs.strata}
            assert len(calls) == len(set(calls)) == len(both)
        assert len(both) < len(distinct) + len(other.strata)

    def test_parsed_tree_against_its_built_in_tree_evaluates_each_value_once(self, monkeypatch):
        calls = []
        evaluate = zeta.beta_value

        def counting(expr):
            calls.append(expr)
            return evaluate(expr)

        monkeypatch.setattr(zeta, "beta_value", counting)
        for name in ("gk(14,+,-)", "hk(13,-)", "-x2-y4_Z2", "A-boundary_f"):
            built = catalog.get(name)
            parsed = parse(serialize(built))
            # built-in trees hold the parser's own atom nodes
            atoms = [(a.beta, b.beta) for a, b in zip(built.strata, parsed.strata)
                     if isinstance(a.beta, Atom)]
            assert atoms and all(a is b for a, b in atoms), name
            for variant in populated_variants(built):
                calls.clear()
                assert distinguish(parsed, built, variant).equal, (name, variant)
                field = zeta._EXPR_FIELD[variant]
                distinct = {getattr(st, field) for st in built.strata} - {None}
                assert len(calls) == len(distinct), (name, variant)

    def test_expansion_matches_numeric_long_division(self):
        for name in ("y4-x2_Z2", "x4-y2_Z2", "-x2-y4_Z2", "A-boundary_f"):
            z = denef_loeser(catalog.get(name))
            assert series_values_match(z, z.t_series(10)), name


class TestDistinguish:
    def test_separating_pair(self):
        rep = distinguish(
            catalog.get("y4-x2_Z2"), catalog.get("x4-y2_Z2"), "naive", 8
        )
        assert not rep.equal
        assert rep.first_differing_T_order == 4
        assert rep.lhs_coeff == RatFunc((1, 0, 1), (0, 0, 0, 1))
        assert rep.rhs_coeff == RatFunc((-1, 1), (0, 0, 1))

    def test_self_comparison(self):
        res = catalog.get("A-boundary_f")
        rep = distinguish(res, res, "naive", 6)
        assert rep.equal and rep.first_differing_T_order is None

    def test_zero_variants_compare_equal(self):
        res = catalog.get("x2+y2_Z2")
        rep = distinguish(res, res, "minus", 6)
        assert rep.equal

    def test_unequal_with_no_witness_in_window(self):
        # both series vanish through T^1, yet the fractions differ
        rep = distinguish(
            catalog.get("x2k_Z2(1)"), catalog.get("x2k_Z2(2)"), "naive", 1
        )
        assert not rep.equal
        assert rep.first_differing_T_order is None
        assert rep.lhs_coeff is None and rep.rhs_coeff is None

    def test_trivial_reencodings_equal(self):
        rep = distinguish(
            catalog.get("y4-x2_triv"), catalog.get("x4-y2_triv"), "naive", 8
        )
        assert rep.equal

    def test_report_json_shape(self):
        rep = distinguish(
            catalog.get("y4-x2_Z2"), catalog.get("x4-y2_Z2"), "naive", 8
        )
        doc = rep.to_json()
        assert doc["equal"] is False
        assert doc["first_differing_T_order"] == 4
        assert doc["lhs_coeff"]["num"] == ["1", "0", "1"]


def fixed_singletons(res):
    """Ids i with a stratum {i} whose divisor every group element fixes."""
    moved = {i for g in generated_group(res) for i in g if g[i] != i}
    return [i for st in res.strata if len(st.divisors) == 1 for i in st.divisors - moved]


def wrong_nu(res):
    """``res`` with its last divisor's nu raised by one."""
    last = res.divisors[-1]
    return dataclasses.replace(
        res, divisors=res.divisors[:-1] + (dataclasses.replace(last, nu=last.nu + 1),)
    )


class TestEqualityOnTheDifference:
    def test_agrees_with_the_two_sided_expansion_on_fixture_pairs(self):
        zetas = [
            (v, denef_loeser(catalog.get(name), v))
            for name in catalog.sample_names()
            for v in VARIANTS
        ]
        for va, za in zetas:
            for vb, zb in zetas:
                if va == vb:
                    assert za.first_difference(zb) == two_sided_first_difference(za, zb)

    def test_point_blowups_are_certified_equal(self):
        blown_any = 0
        for name in catalog.sample_names():
            res = catalog.get(name)
            z = denef_loeser(res)
            for i in fixed_singletons(res):
                blown = blow_up_fixed_point(res, i)
                assert validate(blown) == [], (name, i)
                zb = denef_loeser(blown)
                assert z.first_difference(zb) is None, (name, i)
                assert two_sided_first_difference(z, zb) is None, (name, i)
                assert distinguish(res, blown).equal and distinguish(blown, res).equal
                bad = denef_loeser(wrong_nu(blown))
                diff = z.first_difference(bad)
                assert diff is not None and diff == two_sided_first_difference(z, bad)
                blown_any += 1
        assert blown_any > 20

    def test_blown_up_separating_pair_still_differs_at_t4(self):
        f = catalog.get("y4-x2_Z2")
        h = blow_up_fixed_point(blow_up_fixed_point(catalog.get("x4-y2_Z2"), 1), 5)
        for lhs, rhs in ((f, h), (h, f)):
            rep = distinguish(lhs, rhs, "naive", 8)
            assert not rep.equal and rep.first_differing_T_order == 4
            za, zb = denef_loeser(lhs), denef_loeser(rhs)
            assert za.first_difference(zb) == two_sided_first_difference(za, zb)

    @pytest.mark.parametrize("k", [20, 40, 60])
    def test_gk_against_two_blowups(self, k):
        res = catalog.get(f"gk({k},+,-)")
        blown = blow_up_fixed_point(blow_up_fixed_point(res, 1), k + 3)
        assert distinguish(res, blown).equal
        rep = distinguish(res, wrong_nu(blown), "naive", 8)
        assert not rep.equal and rep.first_differing_T_order is not None


class TestInvariances:
    def test_stratum_order_independence(self):
        rng = random.Random(7)
        for name in ("y4-x2_Z2", "gk(4,+,-)", "A-boundary_f"):
            res = catalog.get(name)
            base = denef_loeser(res)
            for _ in range(10):
                strata = list(res.strata)
                rng.shuffle(strata)
                shuffled = dataclasses.replace(res, strata=tuple(strata))
                again = denef_loeser(shuffled)
                assert again.num == base.num and again.den == base.den

    def test_orbit_representative_independence(self):
        res = catalog.get("y4-x2_Z2")
        base = denef_loeser(res)
        strata = list(res.strata)
        strata[-1] = dataclasses.replace(strata[-1], divisors=frozenset({2, 4}))
        alt = dataclasses.replace(res, strata=tuple(strata))
        assert denef_loeser(alt) == base

    def test_specialization_sanity(self):
        # cross-multiplied equality agrees with integer evaluation
        rng = random.Random(11)
        za = denef_loeser(catalog.get("y4-x2_Z2"))
        zb = denef_loeser(catalog.get("x4-y2_Z2"))
        hand = displayed_y4_x2()
        saw_difference = False
        for _ in range(20):
            u0 = rng.randint(2, 12)
            t0 = rng.randint(1, 12)
            lhs = eval_at(za.num, u0, t0) * eval_at(hand.den, u0, t0)
            rhs = eval_at(hand.num, u0, t0) * eval_at(za.den, u0, t0)
            assert lhs == rhs
            cross_ab = eval_at(za.num, u0, t0) * eval_at(zb.den, u0, t0)
            cross_ba = eval_at(zb.num, u0, t0) * eval_at(za.den, u0, t0)
            if cross_ab != cross_ba:
                saw_difference = True
        assert saw_difference


@st.composite
def repeated_term_sums(draw):
    """Up to 8 terms drawn from small pools of coefficients and factors, so
    that both repeat; the coefficients' numerators repeat over different
    denominators, and a coefficient may come as an equal but distinct copy."""
    coeffs = draw(st.lists(st.builds(
        RatFunc,
        st.sampled_from([(1,), (-1,), (0, 1), (1, 1), (-1, 1), (0, 0, 2)]),
        st.sampled_from([(1,), (-1, 1), (0, 1), (0, -1, 1)]),
    ), min_size=1, max_size=4))
    pool = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 30)), min_size=1, max_size=4))
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        coeff = draw(st.sampled_from(coeffs))
        if draw(st.booleans()):
            coeff = RatFunc(coeff.num, coeff.den)
        terms.append((coeff, draw(st.lists(st.sampled_from(pool), max_size=4))))
    return terms


class TestDisplayAndJson:
    def test_display_mentions_every_factor(self):
        text = display(denef_loeser(catalog.get("y4-x2_Z2")))
        assert "u^-2 T^2" in text and "u^-3 T^4" in text and "u^-1 T^1" in text
        assert text.count("] + ") == 3  # four summands

    def test_display_matches_per_term_loop(self):
        ladder = [f"gk({k},{a},{b})" for k in range(3, 15) for a in "+-" for b in "+-"]
        ladder += [f"hk({k},{s})" for k in range(3, 15) for s in "+-"]
        for name in catalog.sample_names() + ladder:
            res = catalog.get(name)
            for variant in populated_variants(res):
                z = denef_loeser(res, variant)
                assert display(z) == per_term_display(z), (name, variant)

    @settings(max_examples=150, deadline=None)
    @given(repeated_term_sums())
    # one numerator over two denominators
    @example([(RatFunc((0, 1), (-1, 1)), [(2, 2)]), (RatFunc((0, 1)), [(2, 2)])])
    def test_display_matches_per_term_loop_on_repeated_terms(self, terms):
        z = ZetaRational(terms)
        assert display(z) == per_term_display(z)

    def test_display_formats_each_distinct_coefficient_once(self, monkeypatch):
        z = denef_loeser(catalog.get("gk(14,+,-)"))
        want = per_term_display(z)
        calls = []
        text = RatFunc.__str__

        def counting(self):
            calls.append(self)
            return text(self)

        monkeypatch.setattr(RatFunc, "__str__", counting)
        assert display(z) == want
        assert len(z.terms) == 29 and len(calls) == len(set(calls)) == 3

    def test_zeta_json_bundle(self):
        doc = zeta_json(catalog.get("x2+y2_Z2"), "naive", expand_order=4)
        z = denef_loeser(catalog.get("x2+y2_Z2"))
        assert doc == {"variant": "naive", "rational": z, "series": z.t_series(4), "display": display(z)}
        assert zeta_json(catalog.get("x2+y2_Z2"), "naive")["series"] is None

    def test_deterministic_output(self):
        a = zeta_json(catalog.get("A-boundary_f"), "naive", 6)
        b = zeta_json(catalog.get("A-boundary_f"), "naive", 6)
        assert _emit(a) == _emit(b)
