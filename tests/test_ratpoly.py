import pytest
from helpers import (
    cleared_equal,
    cleared_t_series,
    euclid_gcd,
    fraction_divmod,
    per_term_cleared,
    prs_canonical,
    recurrence_laurent,
    series_values_match,
    term,
    two_sided_first_difference,
    zsum,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from equizeta import catalog
from equizeta.errors import DivisionByZero, NotExpandable, ZeroDenominator
from equizeta.ratpoly import (
    MAX_EXPANSION,
    BiPoly,
    RatFunc,
    TSeries,
    ZetaRational,
    _common_den,
    _expansion_work,
    _grouped,
    _lcm_fold,
    _t_bound,
    pcontent,
    pdivexact,
    pgcd,
    pmonomial,
    pmul,
    ppow,
    ptrim,
)
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
        assert z.to_json() == ZetaRational().to_json()


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
            assert full.truncate(m) == z.t_series(m)

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
        # the cleared fraction expands the whole sum through dT
        z = denef_loeser(catalog.get(name), "naive")
        groups = _grouped(_common_den(z.terms), z.terms)
        bound = _t_bound(factors for _, factors in z.terms)
        assert _expansion_work(groups, bound) == work < MAX_EXPANSION

    def test_work_is_the_box_bound_summed_over_groups(self):
        groups = {(): (1,), ((1, 2),): (1,), ((1, 1), (2, 3)): (1,)}
        assert _expansion_work(groups, 10) == 1 + 5 + 10 * 3


class TestSeriesContainer:
    def test_round_trip(self):
        s = TSeries((RatFunc(0), RatFunc(1), PT))
        assert TSeries.from_json(s.to_json()) == s

    def test_order(self):
        s = TSeries((RatFunc(0), RatFunc(1)))
        assert s.order == 1


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


# (num, den) pairs shaped like series coefficients and worse: a power of u
# planted on num, den or both, a common (u-1)^b and a wide random common
# factor, constant and pure u^k denominators, and either leading sign
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
    wide,
)


@st.composite
def canonical_inputs(draw):
    num = pmul(draw(u_free), pmonomial(draw(st.integers(0, 6))))
    den = draw(st.one_of(
        st.builds(pmul, u_free, st.builds(pmonomial, st.integers(0, 6))),
        st.builds(lambda c: (c,), st.integers(-9, 9).filter(bool)),
        st.builds(pmonomial, st.integers(1, 12), signs),
    ))
    shared = pmul(draw(common), pmonomial(draw(st.integers(0, 4))))
    return pmul(num, shared), pmul(den, shared)


@settings(max_examples=200, deadline=None)
@given(st.one_of(canonical_inputs(), st.tuples(coeffs, nonzero)))
def test_canonical_form_matches_the_full_prs(pair):
    num, den = pair
    r = RatFunc(num, den)
    assert (r.num, r.den) == prs_canonical(num, den)


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


small_coeffs = st.builds(
    RatFunc,
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.sampled_from([(1,), (-1, 1), (1, -2, 1), (0, 1), (2,)]),
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


@st.composite
def cancelling_term_lists(draw):
    """Term sums with a repeated factor and negated copies of some terms."""
    terms = draw(term_lists)
    if terms and draw(st.booleans()):
        coeff, factors = terms[0]
        terms[0] = (coeff, factors + factors[:1])
    cancelled = draw(st.integers(0, len(terms)))
    return terms + [(-coeff, factors) for coeff, factors in terms[:cancelled]]


@settings(max_examples=80, deadline=None)
@given(cancelling_term_lists())
def test_cleared_fraction_matches_per_term_assembly(terms):
    z = ZetaRational(terms)
    assert (z.num, z.den) == per_term_cleared(z)
