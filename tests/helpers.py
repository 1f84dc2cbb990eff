"""Shared test helpers: hand-encoded closed forms and independent oracles."""

from collections import Counter
from fractions import Fraction
from math import gcd

from equizeta.errors import NotExpandable
from equizeta.gspace import beta_value
from equizeta.ratpoly import (
    BiPoly,
    RatFunc,
    TSeries,
    ZetaRational,
    _common_den,
    _factor_max,
    pdivexact,
    pmul,
    pprimitive,
)


def term(coef, factors):
    """The one-term sum coef * prod_i T^N_i / (u^nu_i - T^N_i).

    ``coef`` is a RatFunc, or a {(u_exp, 0): c} term dict for a polynomial
    in u; ``factors`` is a list of (nu, N) pairs.
    """
    if not isinstance(coef, RatFunc):
        coeffs = [0] * (max(ue for ue, _ in coef) + 1)
        for (ue, _), c in coef.items():
            coeffs[ue] = c
        coef = RatFunc.poly(coeffs)
    return ZetaRational([(coef, factors)])


def zsum(*parts):
    return ZetaRational([t for p in parts for t in p.terms])


# -- polynomial division over Q, the references for the integer routines -------

def fraction_divmod(num, den):
    """Division with remainder over Fraction coefficient lists."""
    num = [Fraction(c) for c in num]
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    d = len(den) - 1
    lead = Fraction(den[-1])
    for k in range(len(num) - 1, d - 1, -1):
        if num[k] == 0:
            continue
        c = num[k] / lead
        q[k - d] = c
        for j, cd in enumerate(den):
            num[k - d + j] -= c * cd
    while num and num[-1] == 0:
        num.pop()
    return q, num


def euclid_gcd(a, b):
    """Primitive gcd with positive leading coefficient, by Euclid over Q."""
    fa, fb = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while fb:
        _, fa = fraction_divmod(fa, fb)
        fa, fb = fb, fa
    if not fa:
        return ()
    mult = 1
    for c in fa:
        mult = mult * c.denominator // gcd(mult, c.denominator)
    return pprimitive(tuple(int(c * mult) for c in fa))


def recurrence_laurent(r: RatFunc, k_min: int) -> list:
    """Coefficients of u^top .. u^k_min of r, by the power-series recurrence
    in v = u^-1 over Q; NotExpandable if one is not an integer."""
    if r.is_zero():
        return []
    top = (len(r.num) - 1) - (len(r.den) - 1)
    if k_min > top:
        return []
    n_rev = [Fraction(c) for c in reversed(r.num)]
    d_rev = [Fraction(c) for c in reversed(r.den)]
    out = []
    for j in range(top - k_min + 1):
        acc = n_rev[j] if j < len(n_rev) else Fraction(0)
        for i in range(1, min(j, len(d_rev) - 1) + 1):
            acc -= d_rev[i] * out[j - i]
        out.append(acc / d_rev[0])
    if any(c.denominator != 1 for c in out):
        raise NotExpandable("expansion has non-integer coefficients")
    return [int(c) for c in out]


# -- the cleared fraction, by the cross-multiplication the engine replaced ----

def eval_at(bipoly, u0, t0):
    return sum(c * u0**ue * t0**te for (ue, te), c in bipoly.terms.items())


def eval_fraction(r: RatFunc, x) -> Fraction:
    def at(p):
        return sum(Fraction(c) * Fraction(x) ** k for k, c in enumerate(p))

    return at(r.num) / at(r.den)


def per_term_cleared(z: ZetaRational):
    """(num, den) by the per-term assembly that the expansion replaced: each
    term, over den_u, times its missing (u^nu - T^N) factors one BiPoly
    product at a time, and the parts summed."""
    factor_max = _factor_max(z.terms)
    den_u = _common_den(z.terms)
    den = BiPoly({(k, 0): c for k, c in enumerate(den_u)})
    for (nu, N), count in sorted(factor_max.items()):
        for _ in range(count):
            den = den * BiPoly({(nu, 0): 1, (0, N): -1})
    num = Counter()
    for coeff, factors in z.terms:
        scaled = pmul(coeff.num, pdivexact(den_u, coeff.den))
        t_total = sum(N for _, N in factors)
        part = BiPoly({(k, t_total): c for k, c in enumerate(scaled)})
        for (nu, N), count in sorted((factor_max - Counter(factors)).items()):
            for _ in range(count):
                part = part * BiPoly({(nu, 0): 1, (0, N): -1})
        num.update(part.terms)
    num = BiPoly(num)
    if not num.terms:
        return BiPoly(), BiPoly({(0, 0): 1})
    return num, den


def per_stratum_terms(res, variant):
    """The engine's terms by the loop the memo replaced: one beta_value per
    stratum, then (u-1) multiplied in one RatFunc product at a time."""
    u_minus_1 = RatFunc.poly((-1, 1))
    dmap = res.divisor_map()
    terms = []
    for st in res.strata:
        expr = {"naive": st.beta, "plus": st.beta_plus, "minus": st.beta_minus}[variant]
        if expr is None:
            continue
        coeff = beta_value(expr)
        if coeff.is_zero():
            continue
        for _ in range(len(st.divisors) - (0 if variant == "naive" else 1)):
            coeff = coeff * u_minus_1
        terms.append((coeff, [(dmap[i].nu, dmap[i].N) for i in st.divisors]))
    return ZetaRational(terms).terms


def cleared_equal(a: ZetaRational, b: ZetaRational) -> bool:
    """Equality of the cleared fractions by bivariate cross-multiplication."""
    return a.num * b.den == b.num * a.den


def _t_profile(bipoly):
    """Coefficients grouped by T-exponent, as RatFunc polynomials in u."""
    byt = {}
    for (ue, te), c in bipoly.terms.items():
        row = byt.setdefault(te, [0] * (ue + 1))
        row.extend([0] * (ue + 1 - len(row)))
        row[ue] = c
    return {te: RatFunc.poly(row) for te, row in byt.items()}


def cleared_t_series(z: ZetaRational, order: int) -> TSeries:
    """T-series of the cleared fraction num/den by RatFunc long division."""
    nprof = _t_profile(z.num)
    dprof = _t_profile(z.den)
    coeffs = []
    for n in range(order + 1):
        acc = nprof.get(n, RatFunc(0))
        for j in range(1, n + 1):
            if j in dprof:
                acc = acc - dprof[j] * coeffs[n - j]
        coeffs.append(acc / dprof[0])
    return TSeries(tuple(coeffs))


# -- the worked examples' closed forms, term by term ----------------------------

def displayed_y4_x2():
    return zsum(
        term({(2, 0): 1}, [(2, 2)]),
        term({(2, 0): 1, (1, 0): -1, (0, 0): 1}, [(3, 4)]),
        term({(2, 0): 1, (1, 0): -1}, [(2, 2), (3, 4)]),
        term({(2, 0): 1, (1, 0): -2, (0, 0): 1}, [(3, 4), (1, 1)]),
    )


def displayed_x4_y2():
    return zsum(
        term({(2, 0): 1}, [(2, 2)]),
        term({(2, 0): 1, (1, 0): -2}, [(3, 4)]),
        term({(2, 0): 1, (1, 0): -1}, [(2, 2), (3, 4)]),
        term({(2, 0): 2, (1, 0): -2}, [(3, 4), (1, 1)]),
    )


def displayed_x2k(k, variant):
    if variant == "naive":
        return term({(1, 0): 1}, [(1, 2 * k)])
    if variant == "plus":
        return term({(0, 0): 1}, [(1, 2 * k)])
    return ZetaRational()


def displayed_x2_plus_y2(variant):
    if variant == "naive":
        return term({(2, 0): 1, (1, 0): 1}, [(2, 2)])
    if variant == "plus":
        return term(RatFunc((0, 1, 1), (-1, 1)), [(2, 2)])
    return ZetaRational()


def displayed_minus_x2_minus_y4(variant):
    if variant == "naive":
        return zsum(
            term({(2, 0): 1}, [(2, 2)]),
            term({(2, 0): 1}, [(3, 4)]),
            term({(2, 0): 1, (1, 0): -1}, [(2, 2), (3, 4)]),
        )
    if variant == "minus":
        return zsum(
            term({(1, 0): 1}, [(2, 2)]),
            term({(1, 0): 1}, [(3, 4)]),
            term({(1, 0): 2}, [(2, 2), (3, 4)]),
        )
    return ZetaRational()


def displayed_gk_mixed(k):
    """Mixed-sign family: x^(2k) and y^2 with opposite signs, k >= 3."""
    parts = [term({(2, 0): 1}, [(2, 2)])]
    for j in range(2, k):
        parts.append(term({(2, 0): 1, (1, 0): -1}, [(j + 1, 2 * j)]))
    for j in range(1, k):
        parts.append(
            term({(2, 0): 1, (1, 0): -1}, [(j + 1, 2 * j), (j + 2, 2 * j + 2)])
        )
    if k % 2 == 1:
        parts.append(term({(2, 0): 1, (1, 0): -1, (0, 0): 1}, [(k + 1, 2 * k)]))
        parts.append(
            term({(2, 0): 1, (1, 0): -2, (0, 0): 1}, [(k + 1, 2 * k), (1, 1)])
        )
    else:
        parts.append(term({(2, 0): 1, (1, 0): -2}, [(k + 1, 2 * k)]))
        parts.append(term({(2, 0): 2, (1, 0): -2}, [(k + 1, 2 * k), (1, 1)]))
    return zsum(*parts)


def displayed_a_boundary():
    return zsum(
        term({(2, 0): 1}, [(2, 3)]),
        term({(2, 0): 1}, [(3, 4)]),
        term({(2, 0): 1}, [(5, 8)]),
        term({(2, 0): 1, (1, 0): -1}, [(7, 12)]),
        term({(2, 0): 1, (1, 0): -1}, [(3, 4), (5, 8)]),
        term({(2, 0): 1, (1, 0): -1}, [(7, 12), (5, 8)]),
        term({(2, 0): 1, (1, 0): -1}, [(7, 12), (2, 3)]),
        term({(2, 0): 1, (1, 0): -1}, [(7, 12), (1, 1)]),
    )


# -- independent numeric oracle for T-series ---------------------------------

def numeric_t_series(z: ZetaRational, u0: int, order: int):
    """Coefficients of the T-expansion of z at u = u0, by plain long division
    over Fraction -- no RatFunc machinery involved."""
    def poly_in_t(bp):
        out = [Fraction(0)] * (order + 1)
        for (ue, te), c in bp.terms.items():
            if te <= order:
                out[te] += Fraction(c) * u0**ue
        return out

    num = poly_in_t(z.num)
    den = poly_in_t(z.den)
    assert den[0] != 0
    coeffs = []
    for n in range(order + 1):
        acc = num[n]
        for j in range(1, n + 1):
            acc -= den[j] * coeffs[n - j]
        coeffs.append(acc / den[0])
    return coeffs


def series_values_match(z: ZetaRational, series, u_points=(2, 3, 5)) -> bool:
    """Whether a symbolic TSeries equals the numeric expansion pointwise."""
    for u0 in u_points:
        numeric = numeric_t_series(z, u0, series.order)
        for n in range(series.order + 1):
            if eval_fraction(series[n], u0) != numeric[n]:
                return False
    return True


# -- the arc oracle's orthant count, by enumeration ------------------------------

def enumerated_orthants(weights, sign, target):
    """How many sign patterns of the leading coefficients (one bit per support
    coordinate, set for negative) give sign * prod rho_i^(N_i) the sign
    ``target``: the 2^|S| loop the closed form replaces."""
    solvable = 0
    for mask in range(1 << len(weights)):
        prod = sign
        for j, w in enumerate(weights):
            if (mask >> j) & 1 and w % 2 == 1:
                prod = -prod
        if prod == target:
            solvable += 1
    return solvable
