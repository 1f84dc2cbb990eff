"""Shared test helpers: hand-encoded closed forms and independent oracles."""

import dataclasses
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd, prod

from operator import add

from equizeta import cleared, ratpoly
from equizeta.cohomology import F2Matrix, SpectralPage
from equizeta.errors import InvalidInput, NotExpandable, RankTooLarge, TailMismatch
from equizeta.gspace import (
    _FIXED_ATOMS,
    Atom,
    ClosedComplement,
    DisjointUnion,
    ProductWithAffine,
    ProductWithPuncturedLines,
    Rational,
    atom_value,
)
from equizeta.ratpoly import (
    BiPoly,
    RatFunc,
    TSeries,
    ZetaRational,
    _add_shifted,
    _byte_width,
    _check_expansion,
    _common_den,
    _digits,
    _expand,
    _factor_max,
    _grouped,
    _l1,
    _laurent_over,
    _t_bound,
    _width,
    _within_bits,
    pcontent,
    pdivexact,
    pgcd,
    pmul,
    ppow,
    pprimitive,
    ptrim,
)
from equizeta.errors import InvalidResolution, SchemaError
from equizeta.gspace import _unreduced, expr_from_json
from equizeta.resolution import (
    MAX_DIVISORS,
    MAX_GROUP_ORDER,
    Divisor,
    GroupSpec,
    ResolutionData,
    StratumEntry,
    _generator_maps,
    generated_group,
    require,
    subset_orbit,
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


def big_coprime_pair():
    """Two degree-24 integer polynomials with random coefficients of up to
    300 digits, seeded: coprime, joint content 1, a positive leading
    coefficient and no root 0 or 1, so that their fraction is its own
    canonical form.  The primitive PRS takes over a second to show that they
    are coprime."""
    rng = random.Random(24)

    def poly():
        return tuple(rng.randrange(-10**300, 10**300) for _ in range(24)) + (
            rng.randrange(1, 10**300),
        )

    return poly(), poly()


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


def prs_lcm_fold(polys):
    """LCM over Z of u-polynomials with positive leading coefficients, one
    full primitive PRS per step: the reference for ``_lcm_fold``."""
    out = (1,)
    for p in polys:
        c = gcd(pcontent(out), pcontent(p))
        out = pdivexact(pmul(out, p), tuple(c * x for x in pgcd(out, p)))
    return out


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
    """(num, den) by per-term assembly, independent of the prefix-product
    recurrence: each term, over den_u, times its missing (u^nu - T^N) factors
    one BiPoly product at a time, and the parts summed."""
    factor_max = Counter(_factor_max(factors for _, factors in z.terms))
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


def cleared_width(z: ZetaRational) -> int:
    """The bits that a coefficient of z's cleared fraction, or of any
    polynomial on the way to it, needs: one more than the bit length of
    max(sum_g |P_g|_1, |den_u|_1) * 2^(sum M_f), its bound."""
    den_u = _common_den(z.terms)
    l1 = max(sum(sum(map(abs, p)) for p in _grouped(den_u, z.terms).values()),
             sum(map(abs, den_u)))
    return (l1 << sum(_factor_max(f for _, f in z.terms).values())).bit_length() + 1


def bipoly_json(p: BiPoly) -> list:
    """p's terms as the CLI prints them: {"u", "t", "c"} objects in (t, u)
    order, c a decimal string."""
    terms = sorted(p.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return [{"u": ue, "t": te, "c": str(c)} for (ue, te), c in terms]


def cleared_json(num: BiPoly, den: BiPoly) -> dict:
    return {"num": bipoly_json(num), "den": bipoly_json(den)}


def reference_rational_text(z: ZetaRational) -> str:
    """``compute --format rational`` stdout, less its newline, from the
    per-term assembly and ``json.dumps``."""
    return json.dumps(cleared_json(*per_term_cleared(z)), indent=2, sort_keys=True)


def folded_beta_value(expr) -> RatFunc:
    """The series of a G-space expression by a step-by-step RatFunc fold,
    every partial result canonical: the reference for ``beta_value``."""
    if isinstance(expr, Atom):
        return atom_value(expr.name)
    if isinstance(expr, Rational):
        return expr.value
    if isinstance(expr, DisjointUnion):
        total = RatFunc(0)
        for part in expr.parts:
            total = total + folded_beta_value(part)
        return total
    if isinstance(expr, ClosedComplement):
        return folded_beta_value(expr.whole) - folded_beta_value(expr.closed_part)
    if isinstance(expr, ProductWithAffine):
        return folded_beta_value(expr.base) * RatFunc.monomial(expr.n)
    if isinstance(expr, ProductWithPuncturedLines):
        base = folded_beta_value(expr.base)
        return RatFunc(pmul(base.num, ppow((-1, 1), expr.m)), base.den)
    raise TypeError(f"not a G-space expression: {expr!r}")


def per_stratum_terms(res, variant):
    """The engine's terms by the loop the memo replaced: one step-by-step
    fold per stratum, then (u-1) multiplied in one RatFunc product at a
    time."""
    u_minus_1 = RatFunc.poly((-1, 1))
    dmap = res.divisor_map()
    terms = []
    for st in res.strata:
        expr = {"naive": st.beta, "plus": st.beta_plus, "minus": st.beta_minus}[variant]
        if expr is None:
            continue
        coeff = folded_beta_value(expr)
        if coeff.is_zero():
            continue
        for _ in range(len(st.divisors) - (0 if variant == "naive" else 1)):
            coeff = coeff * u_minus_1
        terms.append((coeff, [(dmap[i].nu, dmap[i].N) for i in st.divisors]))
    return ZetaRational(terms).terms


def per_term_display(z: ZetaRational) -> str:
    """``zeta.display`` by the loop its memo replaced: every term's
    coefficient and factors formatted anew."""
    if not z.terms:
        return "0"
    parts = []
    for coeff, factors in z.terms:
        text = str(coeff)
        if " " in text or "/" in text:
            text = f"({text})"
        pieces = [text]
        for nu, N in factors:
            pieces.append(f"[u^-{nu} T^{N} / (1 - u^-{nu} T^{N})]")
        parts.append(" * ".join(pieces))
    return " + ".join(parts)


def unpacked(rows: dict, w: int) -> dict:
    """Packed T-rows {t: (low, v)} of digit width w as {t: {u: c}} with no
    zero entries.  Each digit comes off as the low w bits, moved into
    [-2^(w-1), 2^(w-1)) with a carry, independently of ``ratpoly._digits``."""
    base, mask = 1 << w, (1 << w) - 1
    out = {}
    for t, (low, v) in rows.items():
        row, e = {}, low
        while v:
            c = v & mask
            v >>= w
            if c >= base >> 1:
                c -= base
                v += 1
            if c:
                row[e] = c
            e += 1
        out[t] = row
    return out


def packed(rows: dict, w: int) -> dict:
    """{t: {u: c}} rows as packed T-rows {t: (low, v)} of digit width w."""
    return {
        t: (min(row), sum(c << w * (e - min(row)) for e, c in row.items()))
        for t, row in rows.items()
    }


def row_digit_count(rows: dict, w: int) -> int:
    """The nonzero digits of packed rows {j: (low, v)} of digit width w,
    read off by ``ratpoly._digits``."""
    return sum(sum(map(bool, _digits(v, w))) for _, v in rows.values())


def counted_within_cap(layout, rows: dict) -> dict:
    """``cleared._Layout.within_cap`` that counts every step, whatever the
    layout's span, on the terms read off digit by digit (``unpacked``), with
    neither ``_nonzero_digits``, ``ratpoly``'s bit rule nor ``_Layout.terms``:
    rows, or InvalidInput once they hold more than MAX_CLEARED_TERMS nonzero
    terms, or once each row, packed alone at the exact width from its lowest
    term to its highest, would take more than MAX_PACKED_BITS bits in all.
    The caps are read from ``cleared`` and ``ratpoly`` at each call."""
    exact = layout.exact
    read = unpacked(rows, layout.w)
    if sum(map(len, read.values())) > cleared.MAX_CLEARED_TERMS:
        raise InvalidInput(
            f"the cleared fraction would hold more than MAX_CLEARED_TERMS = "
            f"{cleared.MAX_CLEARED_TERMS} terms; the strata hold too many distinct factors or "
            "too large multiplicities"
        )
    bits = sum(
        sum(c << exact * (u - min(row)) for u, c in row.items()).bit_length()
        for row in read.values()
    )
    if bits > ratpoly.MAX_PACKED_BITS:
        raise ratpoly._too_many_bits()
    return rows


def merged_bands(low_a: int, a: int, low_b: int, b: int, w: int, spare: int):
    """The sum of two bands of one packed row as (low, v, spare), by the rule
    that ``ratpoly._band_sum`` replaced: the empty digits between the bands
    charged to spare before the shift, and no trim."""
    if low_b < low_a:
        low_a, a, low_b, b = low_b, b, low_a, a
    gap = low_b - low_a - a.bit_length() // w - 1
    if gap > 0:
        spare -= gap
        if spare < 0:
            raise ratpoly._too_many_bits()
    return low_a, a + (b << w * (low_b - low_a)), spare


def reference_add_shifted(acc: dict, rows: dict, poly: tuple, w: int, exact: int) -> dict:
    """``ratpoly._add_shifted`` with its own mask, add and trim for bands of
    equal low, and ``merged_bands`` for the others; MAX_PACKED_BITS is read
    from ``ratpoly`` at each call."""
    if not any(poly):
        return acc
    low_p, p = ratpoly._pack(poly, w)
    mask = (1 << w) - 1
    spare = ratpoly.MAX_PACKED_BITS // exact - (len(poly) - 1 - low_p) * len(rows)
    if spare < 0:
        raise ratpoly._too_many_bits()
    for t, (low, v) in rows.items():
        low += low_p
        v *= p
        if t in acc:
            low_a, a = acc[t]
            if low == low_a:
                v += a
                if not v & mask:
                    if not v:
                        del acc[t]
                        continue
                    zeros = ((v & -v).bit_length() - 1) // w
                    v >>= w * zeros
                    low += zeros
            else:
                low, v, spare = merged_bands(low_a, a, low, v, w, spare)
        acc[t] = low, v
    return acc


def laurent_row(row: dict, den_u) -> RatFunc:
    """A {u: c} row divided by den_u, canonical."""
    if not row:
        return RatFunc(0)
    low = min(row)
    return _laurent_over(low, tuple(row.get(e, 0) for e in range(low, max(row) + 1)), den_u)


def two_sided_first_difference(a: ZetaRational, b: ZetaRational):
    """``first_difference`` by the two-sided expansion it replaced: each side
    over one shared u-denominator through dT of both sides' factors, and the
    union of their T-orders walked upwards."""
    both = a.terms + b.terms
    den_u = _common_den(both)
    bound = _t_bound(factors for _, factors in both)
    mine = unpacked(*_expand(_grouped(den_u, a.terms), bound)[:2])
    theirs = unpacked(*_expand(_grouped(den_u, b.terms), bound)[:2])
    for n in sorted(mine.keys() | theirs.keys()):
        lhs, rhs = mine.get(n, {}), theirs.get(n, {})
        if lhs != rhs:
            return n, laurent_row(lhs, den_u), laurent_row(rhs, den_u)
    return None


def shifted_copy_expand(groups: dict, order: int):
    """``_expand`` by the shifted copies that the recurrence replaced: a
    group's series times T^N / (u^nu - T^N) is the sum of order // N copies
    of it, the m-th shifted by u^(-m nu) T^(m N), each added by one
    ``_add_shifted`` call with the polynomial 1."""
    _check_expansion(groups, order)
    exact = _width(sum(
        _l1(poly) * prod(order // N for _, N in factors) for factors, poly in groups.items()
    ))
    w = _byte_width(exact)
    out = {}
    for factors, poly in groups.items():
        series = {0: (0, 1)}
        for nu, N in factors:
            product = {}
            for m in range(1, order // N + 1):
                copy = {t + m * N: (low - m * nu, v)
                        for t, (low, v) in series.items() if t + m * N <= order}
                _within_bits(_add_shifted(product, copy, (1,), w, exact), w, exact)
            series = product
        _within_bits(_add_shifted(out, series, poly, w, exact), w, exact)
    return out, w, exact


def flat_add_shifted(acc: dict, rows: dict, poly) -> dict:
    """``_add_shifted`` on a flat {(T exponent, u exponent): coeff} map: every
    product term added one at a time, and the zeros dropped at the end."""
    out = Counter({(t, e): c for t, row in acc.items() for e, c in row.items()})
    for t, row in rows.items():
        for e, c in row.items():
            for i, p in enumerate(poly):
                out[(t, e + i)] += c * p
    return {key: c for key, c in out.items() if c}


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


def term_series_at(z: ZetaRational, u0: int, order: int) -> list:
    """T^0..T^order coefficients of z at u = u0 straight from its terms, over
    Fraction: each factor T^N / (u0^nu - T^N) as the geometric series
    sum_{m>=1} u0^(-m nu) T^(m N), multiplied out and summed -- neither the
    cleared fraction nor the engine's expansion is involved."""
    total = [Fraction(0)] * (order + 1)
    for coeff, factors in z.terms:
        series = [eval_fraction(coeff, u0)] + [Fraction(0)] * order
        for nu, N in factors:
            geometric = [Fraction(0)] * (order + 1)
            for m in range(1, order // N + 1):
                geometric[m * N] = Fraction(1, u0 ** (m * nu))
            series = [
                sum(series[i] * geometric[n - i] for i in range(n + 1)) for n in range(order + 1)
            ]
        total = [a + b for a, b in zip(total, series)]
    return total


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


def reference_order_counts(germ, order, seed=(1,)):
    """The table C[n][m] of ``arcs._order_counts`` as lists, by the same
    recurrence added up entry by entry: each of the |S| passes sets
    C_i[n][m] = C_(i-1)[n-N_i][m-1] + C_i[n-N_i][m-1], over rows of
    order // min N_i + len(seed) entries."""
    weights = [germ.exponents[i] for i in germ.support()]
    width = order // min(weights) + len(seed)
    zero = [0] * width
    table = [list(seed) + zero[len(seed):]] + [zero] * order
    for w in weights:
        new = [zero] * min(w, order + 1)
        for n in range(w, order + 1):
            row = [0]
            row += map(add, table[n - w], new[n - w])
            row.pop()  # m = width is beyond any order-n vector
            new.append(row)
        table = new
    return table


def table_rows(rows: list, w: int) -> list:
    """The packed rows of ``arcs._order_counts``, of digit width w, as
    {m: C[n][m]} dicts with no zero entries, read by ``unpacked``."""
    return list(unpacked({n: (0, v) for n, v in enumerate(rows)}, w).values())


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

def f2_from_rows(rows) -> F2Matrix:
    """The GF(2) matrix of integer rows, each entry taken mod 2."""
    cols = len(rows[0]) if rows else 0
    data = tuple(sum(1 << j for j, v in enumerate(row) if v % 2) for row in rows)
    return F2Matrix(len(rows), cols, data)


def nullity(m: F2Matrix) -> int:
    return m.cols - m.rank()


def per_degree_cohomology_dim(module, n):
    """dim H^n from the per-degree formulae, on the summed norm."""
    s_plus_1 = module.action + F2Matrix.identity(module.dim)
    if n == 0:
        return nullity(s_plus_1)
    norm = summed_norm(module)
    if n % 2 == 0:
        return nullity(s_plus_1) - norm.rank()
    return nullity(norm) - s_plus_1.rank()


def per_degree_e2_page(homology, p_min):
    """The E2 dimensions, one cohomology degree per entry."""
    return {
        (p, q): per_degree_cohomology_dim(module, -p)
        for q, module in homology
        for p in range(p_min, 1)
        if per_degree_cohomology_dim(module, -p)
    }


def scanned_betti_series(page, tail):
    """``betti_series`` with one full scan of the page's entries per
    anti-diagonal, or the message of the first tail mismatch.  It reads only
    ``page.dims``, the plain dict of entries."""
    dims = page.dims

    def antidiagonal(n):
        return sum(d for (p, q), d in dims.items() if p + q == n)

    n0 = tail.stable_below
    checks = [(n, tail.tail_dim, "tail") for n in range(n0 - 3, n0)]
    checks += [(n, want, "explicit") for n, want in sorted(tail.explicit.items())]
    for n, want, what in checks:
        if antidiagonal(n) != want:
            return (f"anti-diagonal at degree {n} has dimension {antidiagonal(n)}, "
                    f"{what} declares {want}")
    total = RatFunc(0)
    if dims:
        for n in range(n0, max(p + q for p, q in dims) + 1):
            if antidiagonal(n):
                total = total + RatFunc.monomial(n, antidiagonal(n))
    if tail.tail_dim:
        total = total + RatFunc.monomial(n0, tail.tail_dim) / RatFunc.poly((-1, 1))
    return total


def subtracted_page(homology, p_min, ranks) -> dict:
    """The per-degree E2 dimensions with each declared rank subtracted from a
    plain dict, lowest page number first; RankTooLarge as ``apply_differentials``
    words it."""
    dims = per_degree_e2_page(homology, p_min)
    for r, p, q, rank in sorted(ranks, key=lambda entry: entry[0]):
        src, tgt = (p, q), (p - r, q + r - 1)
        avail = min(dims.get(src, 0), dims.get(tgt, 0))
        if rank > avail:
            raise RankTooLarge(f"d^{r} at {src} declared rank {rank} but only {avail} available")
        for key in (src, tgt):
            if rank:
                dims[key] -= rank
    return {key: d for key, d in dims.items() if d}


def reference_pipeline(homology, p_min, ranks, tail):
    """``run_pipeline`` on a well-formed pipeline by a second path: the
    per-degree page, plain dict subtraction and the scanned series."""
    series = scanned_betti_series(SpectralPage(subtracted_page(homology, p_min, ranks)), tail)
    if isinstance(series, str):
        raise TailMismatch(series)
    return series


# -- listings and views that only the tests need ------------------------------------

def atom_table(max_affine: int = 8):
    """Every catalog atom with its value, in a deterministic order; the affine
    families through dimension ``max_affine``."""
    rows = list(_FIXED_ATOMS.items())
    for family in ("affine", "affine_trivial"):
        rows += [(f"{family}({n})", atom_value(f"{family}({n})")) for n in range(max_affine + 1)]
    return rows


def canonical_rep(orbit):
    """The least sorted tuple of an orbit of divisor subsets."""
    return min(tuple(sorted(s)) for s in orbit)


def subset_orbits(res):
    """Canonical representative and orbit size for each declared stratum."""
    group = generated_group(res)
    orbits = [subset_orbit(st.divisors, group) for st in res.strata]
    return [(canonical_rep(orbit), len(orbit)) for orbit in orbits]


def truncate(series: TSeries, order: int) -> TSeries:
    """The series through T^order; ValueError past its own order."""
    if order > series.order:
        raise ValueError("cannot extend a truncated series")
    return TSeries(series.coeffs[: order + 1])


# -- the resolution front end as it was before its fast paths -------------------

def reference_resolution_from_json(obj) -> ResolutionData:
    """``resolution_from_json`` by ``require`` calls field by field, before
    the fast path for well-formed documents and the refusal of a divisor id
    repeated within a stratum, which this reads as one."""
    name = require(obj, "name", str, "resolution")
    group_obj = require(obj, "group", dict, "resolution")
    order = require(group_obj, "order", int, "group")
    if order < 1:
        raise SchemaError("group.order: must be >= 1")
    gens = []
    for gi, gen in enumerate(require(group_obj, "generators", list, "group", [])):
        if not isinstance(gen, list) or any(
            isinstance(x, bool) or not isinstance(x, int) for x in gen
        ):
            raise SchemaError(f"group.generators[{gi}]: expected array of ids")
        gens.append(tuple(gen))
    divisors = []
    for di, dv in enumerate(require(obj, "divisors", list, "resolution")):
        where = f"divisors[{di}]"
        did = require(dv, "id", int, where)
        N = require(dv, "N", int, where)
        nu = require(dv, "nu", int, where)
        zf = require(dv, "zero_fiber", bool, where, False)
        if N < 1 or nu < 1:
            raise SchemaError(f"{where}: multiplicities must be >= 1")
        divisors.append(Divisor(did, N, nu, zf))
    known = {d.id for d in divisors}
    strata = []
    for si, st in enumerate(require(obj, "strata", list, "resolution")):
        where = f"strata[{si}]"
        I = require(st, "I", list, where)
        if any(isinstance(x, bool) or not isinstance(x, int) for x in I):
            raise SchemaError(f"{where}.I: expected array of divisor ids")
        bad = set(I) - known
        if bad:
            raise SchemaError(f"{where}.I: unknown divisor ids {sorted(bad)}")
        beta = expr_from_json(require(st, "beta", dict, where))
        plus = st.get("beta_plus")
        minus = st.get("beta_minus")
        strata.append(StratumEntry(
            frozenset(I),
            beta,
            expr_from_json(plus) if plus is not None else None,
            expr_from_json(minus) if minus is not None else None,
        ))
    return ResolutionData(name, tuple(divisors), GroupSpec(order, tuple(gens)), tuple(strata))


def dict_closure_group(res):
    """``generated_group`` by composing dicts, one per permutation."""
    limit = min(res.group.order, MAX_GROUP_ORDER)
    ids = sorted(d.id for d in res.divisors)
    identity = {i: i for i in ids}
    seen = {tuple(identity[i] for i in ids): identity}
    frontier = [identity]
    gens = _generator_maps(res)
    while frontier:
        current = frontier.pop()
        for gen in gens:
            composed = {i: gen.get(current[i], current[i]) for i in ids}
            key = tuple(composed[i] for i in ids)
            if key not in seen:
                seen[key] = composed
                if len(seen) > limit:
                    raise InvalidResolution([f"generators span more than {limit} permutations"])
                frontier.append(composed)
    return list(seen.values())


def reference_validate(res) -> list:
    """``validate`` with every orbit keyed by its least image as a sorted
    tuple, each divisor's N, nu and zero_fiber compared one at a time, and
    each stabiliser found from whole images of the stratum."""
    diags = []
    ids = [d.id for d in res.divisors]
    if len(set(ids)) != len(ids):
        return ["duplicate divisor ids"]
    if len(ids) > MAX_DIVISORS:
        diags.append(f"more than {MAX_DIVISORS} divisors")
    if res.group.order > MAX_GROUP_ORDER:
        diags.append(f"group order above {MAX_GROUP_ORDER}")
    dmap = res.divisor_map()
    id_set = set(ids)
    generators_ok = True
    for gi, gen in enumerate(res.group.generators):
        if len(gen) != len(ids) or set(gen) != id_set:
            diags.append(f"generator {gi} is not a bijection on divisor ids")
            generators_ok = False
            continue
        for i, j in zip(sorted(ids), gen):
            a, b = dmap[i], dmap[j]
            for field in ("N", "nu", "zero_fiber"):
                if getattr(a, field) != getattr(b, field):
                    diags.append(f"generator {gi} does not preserve {field}: divisor {i} -> {j}")
    group = None
    if generators_ok:
        try:
            group = dict_closure_group(res)
        except InvalidResolution as exc:
            diags.extend(exc.diagnostics)
    if group is not None and res.group.order % len(group):
        diags.append(
            f"generators span {len(group)} permutations, not dividing {res.group.order}"
        )
    zero_ids = {d.id for d in res.divisors if d.zero_fiber}
    first_in_orbit = {}
    for si, st in enumerate(res.strata):
        if not st.divisors:
            diags.append(f"stratum {si} has an empty divisor set")
            continue
        unknown = st.divisors - id_set
        if unknown:
            diags.append(f"stratum {si} references unknown divisors {sorted(unknown)}")
            continue
        if not (st.divisors & zero_ids):
            diags.append(f"stratum {si} does not meet the zero fiber and must be omitted")
        if group is not None:
            rep = canonical_rep(subset_orbit(st.divisors, group))
            sj = first_in_orbit.setdefault(rep, si)
            if sj != si:
                diags.append(f"duplicate orbit: strata {sj} and {si} lie in the same orbit")
            stabiliser = [g for g in group if subset_orbit(st.divisors, [g]) == {st.divisors}]
            moved = sorted({i for g in stabiliser for i in st.divisors if g[i] != i})
            if moved:
                diags.append(
                    f"stratum {si}: its stabiliser permutes divisors {moved}, and only a "
                    "stabiliser that fixes each divisor of a stratum is supported"
                )
    return diags


def reference_beta_value(expr) -> RatFunc:
    """``beta_value`` with every value canonicalised by ``RatFunc``'s gcd
    step."""
    return RatFunc(*_unreduced(expr))
