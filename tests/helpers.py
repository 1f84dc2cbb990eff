"""Shared test helpers: hand-encoded closed forms and independent oracles."""

import dataclasses
from collections import Counter
from fractions import Fraction
from math import gcd

from equizeta.cohomology import F2Matrix
from equizeta.errors import NotExpandable
from equizeta.gspace import Atom, ClosedComplement, beta_value
from equizeta.ratpoly import (
    BiPoly,
    RatFunc,
    TSeries,
    ZetaRational,
    _common_den,
    _expand,
    _factor_max,
    _grouped,
    _laurent_over,
    _t_bound,
    pcontent,
    pdivexact,
    pgcd,
    pmul,
    pprimitive,
    ptrim,
)
from equizeta.resolution import Divisor, GroupSpec, StratumEntry


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


def prs_canonical(num, den):
    """(num, den) in canonical form with the primitive PRS run on the full
    num and den, powers of u included: the reference for RatFunc."""
    num, den = ptrim(num), ptrim(den)
    if not num:
        return (), (1,)
    g = pgcd(num, den)
    if g != (1,):
        num = pdivexact(num, g)
        den = pdivexact(den, g)
    c = gcd(pcontent(num), pcontent(den))
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    return num, den


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


def eval_fraction(r: RatFunc, x: int) -> Fraction:
    """r at the integer x, by Horner's rule on num and den."""
    def at(p):
        acc = 0
        for c in reversed(p):
            acc = acc * x + c
        return acc

    return Fraction(at(r.num), at(r.den))


def per_term_cleared(z: ZetaRational):
    """(num, den) by the per-term assembly that the expansion replaced: each
    term, over den_u, times its missing (u^nu - T^N) factors one BiPoly
    product at a time, and the parts summed."""
    factor_max = _factor_max(factors for _, factors in z.terms)
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


def two_sided_first_difference(a: ZetaRational, b: ZetaRational):
    """``first_difference`` by the two-sided expansion it replaced: each side
    over one shared u-denominator through dT of both sides' factors, and the
    union of their T-orders walked upwards."""
    both = a.terms + b.terms
    den_u = _common_den(both)
    bound = _t_bound(factors for _, factors in both)
    mine = _expand(_grouped(den_u, a.terms), bound)
    theirs = _expand(_grouped(den_u, b.terms), bound)
    for n in sorted(mine.keys() | theirs.keys()):
        lhs, rhs = mine.get(n, {}), theirs.get(n, {})
        if lhs != rhs:
            return n, _laurent_over(lhs, den_u), _laurent_over(rhs, den_u)
    return None


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


# -- a second resolution of the same germ ------------------------------------------

def blow_up_fixed_point(res, i):
    """``res`` blown up at a group-fixed point of E_i^o, naive values only.

    The new divisor (N_i, nu_i + 1) is fixed by the group and lies over the
    origin.  Stratum {i} loses a point_fixed, {new} is the circle minus the
    point where E_i meets it, and {i, new} is that point_fixed; this is the
    identity g_i = u g_new + (u-1) g_i g_new for g = T^N / (u^nu - T^N).  The
    touched and the new strata carry no cover values.
    """
    dmap = res.divisor_map()
    new = max(dmap) + 1
    point = Atom("point_fixed")
    (at,) = [k for k, st in enumerate(res.strata) if st.divisors == {i}]
    strata = list(res.strata)
    strata[at] = StratumEntry({i}, ClosedComplement(strata[at].beta, point))
    strata += [
        StratumEntry({new}, ClosedComplement(Atom("circle_with_fixed_point"), point)),
        StratumEntry({i, new}, point),
    ]
    return dataclasses.replace(
        res,
        divisors=res.divisors + (Divisor(new, dmap[i].N, dmap[i].nu + 1, True),),
        group=GroupSpec(res.group.order, tuple(g + (new,) for g in res.group.generators)),
        strata=tuple(strata),
    )


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
    tail = [(j, c) for j, c in enumerate(den) if j and c]
    coeffs = []
    for n in range(order + 1):
        acc = num[n]
        for j, c in tail:
            if j > n:
                break
            acc -= c * coeffs[n - j]
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


# -- the cohomology norm, by the loop the doubling replaced -----------------------

def summed_norm(module):
    """N = s + s^2 + ... + s^d, one matrix product per power."""
    acc = F2Matrix.zero(module.dim, module.dim)
    power = F2Matrix.identity(module.dim)
    for _ in range(module.group_order):
        power = power @ module.action
        acc = acc + power
    return acc


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


# -- the arc oracle's order vectors, by enumeration ------------------------------

def order_vectors(weights, n):
    """All k with k_i >= 1 and sum k_i * weights_i == n, one at a time: the
    recursion that the counting table in ``arcs`` replaces."""
    if not weights:
        if n == 0:
            yield ()
        return
    head, rest = weights[0], weights[1:]
    floor = sum(rest)
    k = 1
    while head * k <= n - floor:
        for tail in order_vectors(rest, n - head * k):
            yield (k,) + tail
        k += 1


def enumerated_affine_sum(germ, n):
    """Sum of u^(affine dimension) over the order vectors of arc order n, as
    an integer polynomial."""
    support = germ.support()
    weights = [germ.exponents[i] for i in support]
    off_support = n * (germ.d - len(support))
    dims = Counter(
        sum(n - ki for ki in k) + off_support for k in order_vectors(weights, n)
    )
    coeffs = [0] * (max(dims, default=-1) + 1)
    for dim, count in dims.items():
        coeffs[dim] = count
    return tuple(coeffs)


def enumerated_arc_beta(germ, action, n, variant):
    """The order-n stratum value: its leading-coefficient factor times the
    enumerated affine sum.  The naive factor is the point times (u-1)^|S|;
    the signed ones are ``arcs._sign_factor``, whose orthant count
    ``enumerated_orthants`` checks."""
    from equizeta.arcs import _sign_factor

    if variant == "naive":
        wfac = RatFunc(1) if action.trivial else RatFunc((0, 1), (-1, 1))
        for _ in germ.support():
            wfac = wfac * RatFunc.poly((-1, 1))
    else:
        wfac = _sign_factor(germ, action, 1 if variant == "plus" else -1)
    return wfac * RatFunc.poly(enumerated_affine_sum(germ, n))


def enumerated_oracle_series(germ, action, variant, order):
    """``oracle_series`` from the enumerated strata: T^n scaled by u^-nd."""
    coeffs = [RatFunc(0)]
    for n in range(1, order + 1):
        coeffs.append(
            enumerated_arc_beta(germ, action, n, variant)
            * RatFunc.monomial(-n * germ.d)
        )
    return TSeries(coeffs)


# -- cohomology page and series, one degree and one anti-diagonal at a time -------

def per_degree_cohomology_dim(module, n):
    """dim H^n from the per-degree formulae, on the summed norm."""
    s_plus_1 = module.action + F2Matrix.identity(module.dim)
    if n == 0:
        return s_plus_1.nullity()
    norm = summed_norm(module)
    if n % 2 == 0:
        return s_plus_1.nullity() - norm.rank()
    return norm.nullity() - s_plus_1.rank()


def per_degree_e2_page(homology, p_min):
    """The E2 dimensions, one cohomology degree per entry."""
    return {
        (p, q): per_degree_cohomology_dim(module, -p)
        for q, module in homology
        for p in range(p_min, 1)
        if per_degree_cohomology_dim(module, -p)
    }


def scanned_betti_series(page, tail):
    """``betti_series`` with one full page scan per anti-diagonal, or the
    message of the first tail mismatch."""
    n0 = tail.stable_below
    checks = [(n, tail.tail_dim) for n in range(n0 - 3, n0)]
    checks += sorted(tail.explicit.items())
    for n, want in checks:
        if page.antidiagonal(n) != want:
            return f"anti-diagonal at degree {n} has dimension {page.antidiagonal(n)}"
    total = RatFunc(0)
    if page.dims:
        for n in range(n0, max(p + q for p, q in page.dims) + 1):
            if page.antidiagonal(n):
                total = total + RatFunc.monomial(n, page.antidiagonal(n))
    if tail.tail_dim:
        total = total + RatFunc.monomial(n0, tail.tail_dim) / RatFunc.poly((-1, 1))
    return total
