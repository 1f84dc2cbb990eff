"""Exact rational-function arithmetic.

Univariate integer polynomials in u are plain tuples of ints in ascending
powers with no trailing zeros (the empty tuple is 0).  On top of those sit:

* ``RatFunc``      -- reduced fractions of integer polynomials in u,
* ``ZetaRational`` -- sums of coeff * prod T^N / (u^nu - T^N) terms, whose
  T-expansion gives the series and certified equality, and whose factors,
  multiplied out, give the cleared fraction as sparse T-rows
  {T exponent: {u exponent: coeff}}, which the CLI prints directly; all
  three add up their rows through one in-place adder, ``_add_shifted``,
* ``BiPoly``       -- a (u, T) map view of those rows, built only on request,
* ``TSeries``      -- truncated power series in T with ``RatFunc`` coefficients.

Everything is immutable and uses arbitrary-precision integers only: one long
division over Z serves exact quotients and Laurent expansions, and gcds run
as a primitive pseudo-remainder sequence, so no rational coefficient and no
floating point appears anywhere in this package.

Canonicalisation strips the two primes that the engine's denominators are
built from before any gcd: the power of u, read from the low zero
coefficients, and the power of u - 1 that num and den share, found by
synthetic division at the root u = 1 (the coefficients sum to 0 exactly when
u - 1 divides).  The primitive PRS runs only on what is left of num and den,
and only when both of those are non-constant.  Series coefficients are
Laurent polynomials over small denominators such as u^s, and G-space values
are fractions over powers of u and u - 1, so most of them need no PRS at all.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import gcd, prod
from typing import Iterable, Sequence

from .errors import (
    DivisionByZero,
    InvalidInput,
    NotExpandable,
    SchemaError,
    ZeroDenominator,
)


# ---------------------------------------------------------------------------
# tuple-based univariate polynomials
# ---------------------------------------------------------------------------

def ptrim(coeffs: Iterable[int]) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ptrim(out)


def pneg(a: tuple) -> tuple:
    return tuple(-c for c in a)


def pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return ptrim(out)


def ppow(a: tuple, k: int) -> tuple:
    """a^k for k >= 0, by repeated squaring."""
    if k < 0:
        raise ValueError("polynomial power must be non-negative")
    out = (1,)
    while k:
        if k & 1:
            out = pmul(out, a)
        k >>= 1
        if k:
            a = pmul(a, a)
    return out


def pmonomial(k: int, c: int = 1) -> tuple:
    if c == 0:
        return ()
    return (0,) * k + (c,)


def pcontent(a: tuple) -> int:
    g = 0
    for c in a:
        g = gcd(g, abs(c))
    return g


def pprimitive(a: tuple) -> tuple:
    """Content 1 and positive leading coefficient; () stays ()."""
    if not a:
        return ()
    g = pcontent(a)
    if a[-1] < 0:
        g = -g
    return tuple(c // g for c in a)


def _zdivmod(a: tuple, b: tuple):
    """Long division over Z from the top power down: (q, r) with a = q*b + r
    and deg r < deg b, or None once a quotient coefficient is not an integer.

    ``b`` must be nonzero.
    """
    r = list(a)
    d = len(b) - 1
    lead = b[-1]
    q = [0] * max(len(r) - d, 0)
    for k in range(len(r) - 1, d - 1, -1):
        c, rem = divmod(r[k], lead)
        if rem:
            return None
        if c:
            q[k - d] = c
            for j in range(d):
                r[k - d + j] -= c * b[j]
    return tuple(q), ptrim(r[:d])


def pgcd(a: tuple, b: tuple) -> tuple:
    """Primitive gcd with positive leading coefficient (primitive PRS over Z).

    Each step replaces (a, b) by (b, primitive part of the pseudo-remainder
    of a by b), the remainder of lead(b)^(deg a - deg b + 1) * a, which is
    an integer polynomial.
    """
    a, b = pprimitive(a), pprimitive(b)
    while b:
        scale = b[-1] ** max(len(a) - len(b) + 1, 0)
        _, r = _zdivmod(tuple(scale * c for c in a), b)
        a, b = b, pprimitive(r)
    return a


def pdivexact(a: tuple, b: tuple) -> tuple:
    """Exact quotient a / b; raises if b does not divide a over the integers."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    qr = _zdivmod(a, b)
    if qr is None or qr[1]:
        raise ValueError("inexact polynomial division")
    return qr[0]


def _decimals(coeffs: Iterable[int]) -> list:
    """``[str(c) for c in coeffs]``; InvalidInput for a coefficient with more
    digits than the interpreter converts (``sys.get_int_max_str_digits()``)."""
    try:
        return [str(c) for c in coeffs]
    except ValueError as exc:
        raise InvalidInput(f"a coefficient of the result is too long to print: {exc}") from exc


def pstr(a: tuple, var: str = "u") -> str:
    """Human-readable form, descending powers: ``u^2 - u + 1``."""
    if not a:
        return "0"
    digits = _decimals(abs(c) for c in a)
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        if k == 0:
            body = digits[0]
        else:
            v = var if k == 1 else f"{var}^{k}"
            body = v if abs(c) == 1 else f"{digits[k]}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# reduced rational functions of u
# ---------------------------------------------------------------------------

def _valuation(p: tuple) -> int:
    """The largest v with u^v dividing the nonzero polynomial p: its number of
    low zero coefficients."""
    v = 0
    while not p[v]:
        v += 1
    return v


def _over_u_minus_1(p: tuple):
    """p / (u-1) when u - 1 divides the nonzero p, else None.

    u - 1 divides exactly when the coefficients sum to 0, and the quotient
    comes by synthetic division from the top: q_(k-1) = p_k + q_k."""
    if sum(p):
        return None
    q = []
    acc = 0
    for c in reversed(p[1:]):
        acc += c
        q.append(acc)
    return tuple(reversed(q))


def _cofactors(a: tuple, b: tuple):
    """(a / g, b / g) for g = pgcd(a, b), a and b nonzero: the one gcd step.

    The powers of u and of u - 1 come off first: each side's whole power of
    u, counted in its low zero coefficients, and the power of u - 1 the two
    share, by synthetic division at u = 1 of both while both are divisible.
    Both factors are prime, so what is left, A and B, has no common factor u
    or u - 1, g is u^min (u-1)^min gcd(A, B), and the primitive PRS runs on
    A and B only, and not at all when either is a constant."""
    va, vb = _valuation(a), _valuation(b)
    v = min(va, vb)
    a, b = a[va:], b[vb:]
    while len(a) > 1 and len(b) > 1:
        qa, qb = _over_u_minus_1(a), _over_u_minus_1(b)
        if qa is None or qb is None:
            break
        a, b = qa, qb
    if len(a) > 1 and len(b) > 1:
        g = pgcd(a, b)
        if g != (1,):
            a, b = pdivexact(a, g), pdivexact(b, g)
    return (0,) * (va - v) + a, (0,) * (vb - v) + b


def _canonical(num, den):
    """(num, den) reduced to the ``RatFunc`` representative.

    ``_cofactors`` divides out the gcd, stripping the powers of u and of
    u - 1 before it runs a PRS; then the joint integer content comes off and
    den's leading coefficient is made positive.
    """
    num = ptrim(num)
    den = ptrim(den)
    if not den:
        raise ZeroDenominator("denominator is the zero polynomial")
    if not num:
        return (), (1,)
    num, den = _cofactors(num, den)
    c = gcd(pcontent(num), pcontent(den))
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    return num, den


class RatFunc:
    """Canonical reduced fraction of integer polynomials in u.

    The representative is unique: gcd(num, den) is a unit over Q, the joint
    integer content of (num, den) is 1, and den has a positive leading
    coefficient.  This makes structural equality and hashing meaningful.
    The powers of u and of u - 1 in gcd(num, den) are removed by counting
    low zero coefficients and by synthetic division at u = 1, and the rest
    of the gcd comes from what is left of num and den (``_canonical``).
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        if isinstance(num, RatFunc) or isinstance(den, RatFunc):
            raise TypeError("nest RatFunc via arithmetic, not the constructor")
        if isinstance(num, int):
            num = (num,)
        if isinstance(den, int):
            den = (den,)
        num, den = _canonical(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("RatFunc is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def poly(cls, coeffs) -> "RatFunc":
        return cls(tuple(coeffs), (1,))

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "RatFunc":
        """c * u^k, with negative k allowed."""
        if k >= 0:
            return cls(pmonomial(k, c), (1,))
        return cls((c,), pmonomial(-k))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- ring/field operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, int):
            return RatFunc(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(
            padd(pmul(self.num, other.den), pmul(other.num, self.den)),
            pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(pneg(self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(pmul(self.num, other.num), pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division of rational functions by zero")
        return RatFunc(pmul(self.num, other.den), pmul(self.den, other.num))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- expansion ------------------------------------------------------------

    def laurent(self, k_min: int) -> list:
        """Coefficients of the expansion in Z[u][[u^-1]].

        Returns the integer coefficients of u^k for k from the top exponent
        deg(num) - deg(den) down to ``k_min``.  Empty when ``k_min`` exceeds
        the top exponent.
        """
        # the quotient of num * u^-k_min by den, shifted so both stay
        # polynomials, holds exactly the coefficients of u^top .. u^k_min
        qr = _zdivmod(
            pmul(self.num, pmonomial(max(0, -k_min))),
            pmul(self.den, pmonomial(max(0, k_min))),
        )
        if qr is None:
            raise NotExpandable("expansion has non-integer coefficients")
        return list(reversed(qr[0]))

    # -- presentation -----------------------------------------------------------

    def __str__(self) -> str:
        if self.den == (1,):
            return pstr(self.num)
        n = pstr(self.num)
        if len([c for c in self.num if c]) > 1:
            n = f"({n})"
        return f"{n}/({pstr(self.den)})"

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"num": _decimals(self.num), "den": _decimals(self.den)}

    @classmethod
    def from_json(cls, obj) -> "RatFunc":
        if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
            raise SchemaError("rational function must be {num, den}")
        return cls(_ints_from_json(obj["num"]), _ints_from_json(obj["den"]))


def _ints_from_json(seq) -> tuple:
    if not isinstance(seq, (list, tuple)):
        raise SchemaError("polynomial must be an array of integer strings")
    out = []
    for c in seq:
        if isinstance(c, bool) or not isinstance(c, (int, str)):
            raise SchemaError(f"bad polynomial coefficient {c!r}")
        try:
            out.append(int(c))
        except ValueError as exc:
            raise SchemaError(f"bad polynomial coefficient {c!r}") from exc
    return tuple(out)


# ---------------------------------------------------------------------------
# sparse bivariate polynomials in (u, T)
# ---------------------------------------------------------------------------

class BiPoly:
    """Integer polynomial in (u, T) stored as {(u_exp, t_exp): coeff}.

    ``ZetaRational.num`` and ``.den`` build it from the cleared fraction's
    rows on first access; printing reads the rows and builds none."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (ue, te), c in dict(terms).items():
                if ue < 0 or te < 0:
                    raise ValueError("BiPoly exponents must be non-negative")
                if c:
                    clean[(int(ue), int(te))] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("BiPoly is immutable")

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return BiPoly()
        out = {}
        for (ua, ta), ca in self.terms.items():
            for (ub, tb), cb in other.terms.items():
                k = (ua + ub, ta + tb)
                v = out.get(k, 0) + ca * cb
                if v:
                    out[k] = v
                else:
                    del out[k]
        return BiPoly(out)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"BiPoly({self.terms!r})"


# ---------------------------------------------------------------------------
# zeta functions as sums of per-stratum terms
# ---------------------------------------------------------------------------

def _lcm_fold(polys):
    """LCM over Z of u-polynomials with positive leading coefficients:
    out * p / (c g) with g = pgcd(out, p) from ``_cofactors`` and c the gcd
    of their contents."""
    out = (1,)
    for p in polys:
        c = gcd(pcontent(out), pcontent(p))
        rest = _cofactors(out, p)[1]
        out = pmul(out, rest if c == 1 else tuple(x // c for x in rest))
    return out


def _common_den(terms) -> tuple:
    """LCM of the terms' coefficient denominators, each folded once in order."""
    return _lcm_fold(dict.fromkeys(coeff.den for coeff, _ in terms))


def _factor_max(factor_tuples) -> Counter:
    """Each distinct (nu, N) factor at its largest multiplicity in one tuple."""
    out = Counter()
    for factors in factor_tuples:
        for key, count in Counter(factors).items():
            out[key] = max(out[key], count)
    return out


def _t_bound(factor_tuples) -> int:
    """T-degree of the common denominator prod (u^nu - T^N)^multiplicity."""
    return sum(N * count for (_, N), count in _factor_max(factor_tuples).items())


def _grouped(den_u: tuple, terms, negated=()) -> dict:
    """den_u * (sum(terms) - sum(negated)) as {factor tuple: u-polynomial}:
    terms sharing a factor tuple add up and cancelled groups are dropped.
    den_u must be a multiple of every coefficient's denominator."""
    groups = {}
    for sign, part in ((1, terms), (-1, negated)):
        for coeff, factors in part:
            scaled = pmul(coeff.num, pdivexact(den_u, coeff.den))
            groups[factors] = padd(groups.get(factors, ()), pmul((sign,), scaled))
    return {factors: poly for factors, poly in groups.items() if poly}


# Cap on the work of one ``_expand`` call, which the T-series and equality
# use and the cleared fraction does not: the lattice points m >= 1 with
# sum m_i N_i <= order, bounded per group by the box prod (order // N_i) and
# summed over the groups.  The catalog's largest tree, gk(64,+,+), needs about
# 4.3 million through its dT; a stratum pairing N = 10^8 with N = 1 needs
# 4*10^8 and would exhaust memory, so it fails at once with InvalidInput
# (exit 2) instead.
MAX_EXPANSION = 1 << 24

# Cap on the (u, T) terms of any one polynomial that ``ZetaRational._cleared``
# holds while it builds num / den, counted after each step.  A step at most
# doubles a polynomial, so memory stays within a small multiple of the cap.
# The catalog's largest polynomials on the way are gk(62,+,-) at 83,324 terms,
# hk(129,+) at 47,891 and gk(64,+,+) at 45,758.  Sixteen divisors whose N
# have distinct subset sums, with every pair a stratum, pass it within a
# second and fail with InvalidInput (exit 2); twice the cap lets them print
# 17 MB of JSON at 241 MB peak RSS.
MAX_CLEARED_TERMS = 1 << 17


def _expansion_work(groups: dict, order: int) -> int:
    """The box bound on the lattice points that ``_expand`` visits."""
    return sum(prod(order // N for _, N in factors) for factors in groups)


def _check_expansion(groups: dict, order: int):
    """InvalidInput when expanding groups through T^order would exceed
    MAX_EXPANSION."""
    if _expansion_work(groups, order) > MAX_EXPANSION:
        raise InvalidInput(
            f"the T-expansion would visit more than MAX_EXPANSION = {MAX_EXPANSION} "
            "lattice points; the divisor multiplicities or the order are too large"
        )


def _expand(groups: dict, order: int) -> dict:
    """Nonzero T^0..T^order coefficients of a ``_grouped`` sum, sparse in T:
    {T exponent: {u exponent: int}}.  Each factor T^N / (u^nu - T^N) is the
    geometric series sum_{m>=1} u^(-m nu) T^(m N), so a coefficient is a sum
    of shifted copies, added row by row.  InvalidInput, before anything is
    built, when the work would exceed MAX_EXPANSION."""
    _check_expansion(groups, order)
    out = {}
    for factors, poly in groups.items():
        series = {0: {0: 1}}
        for nu, N in factors:
            product = {}
            for m in range(1, order // N + 1):
                _add_shifted(product, series, (1,), m * N, -m * nu, order)
            series = product
        _add_shifted(out, series, poly, 0)
    return out


def _within_cap(rows: dict) -> dict:
    """rows, or InvalidInput once they hold more than MAX_CLEARED_TERMS
    (u, T) terms."""
    if sum(map(len, rows.values())) > MAX_CLEARED_TERMS:
        raise InvalidInput(
            f"the cleared fraction would hold more than MAX_CLEARED_TERMS = {MAX_CLEARED_TERMS} "
            "terms; the strata hold too many distinct factors or too large multiplicities"
        )
    return rows


def _times_factor(rows: dict, nu: int, N: int) -> dict:
    """rows * (u^nu - T^N), sparse in T as {T exponent: {u exponent: int}}
    with no zero entries and no empty rows: out[t] = u^nu rows[t] - rows[t-N].
    Its own loop, not ``_add_shifted``: through the adder the closed_form bench
    lost 3 of 3 pairs, 698-720 -> 666-691 jobs/s (2-core host, Python 3.11)."""
    out = {t: {e + nu: c for e, c in row.items()} for t, row in rows.items()}
    for t, row in rows.items():
        acc = out.setdefault(t + N, {})
        for e, c in row.items():
            v = acc.get(e, 0) - c
            if v:
                acc[e] = v
            else:
                del acc[e]
        if not acc:
            del out[t + N]
    return _within_cap(out)


def _add_shifted(acc: dict, rows: dict, poly: tuple, t_shift: int, u_shift=0, t_max=None):
    """acc += poly(u) u^u_shift T^t_shift rows in place, through T^t_max when
    given, in the sparse form of ``_times_factor``; returns acc.  The one
    accumulation loop over the T-rows; it checks no cap."""
    nonzero = [(i + u_shift, p) for i, p in enumerate(poly) if p]
    for t, row in rows.items():
        t += t_shift
        if t_max is not None and t > t_max:
            continue
        target = acc.setdefault(t, {})
        for i, p in nonzero:
            for e, c in row.items():
                v = target.get(e + i, 0) + c * p
                if v:
                    target[e + i] = v
                else:
                    del target[e + i]
        if not target:
            del acc[t]
    return acc


def _bipoly(rows: dict) -> BiPoly:
    """The sparse T-rows of ``_times_factor`` as a BiPoly."""
    return BiPoly({(e, t): c for t, row in rows.items() for e, c in row.items()})


def _laurent_over(laurent: dict, den_u: tuple) -> RatFunc:
    """The Laurent polynomial sum c_e u^e divided by den_u, canonical."""
    if not laurent:
        return RatFunc(0)
    low = min(laurent)
    num = [0] * (max(laurent) - low + 1)
    for e, c in laurent.items():
        num[e - low] = c
    if low >= 0:
        return RatFunc(pmul(pmonomial(low), tuple(num)), den_u)
    return RatFunc(tuple(num), pmul(pmonomial(-low), den_u))


class ZetaRational:
    """A zeta function as the sum of coeff * prod T^N / (u^nu - T^N) terms.

    ``terms`` holds (RatFunc coefficient, sorted tuple of (nu, N) factors)
    pairs in the order given.  The T-series, equality and the cleared
    fraction ``num / den`` all derive from them.  Equality is certified on
    the difference Delta, both sides' terms grouped by factor tuple over one
    u-denominator with the cancelled groups dropped.  Delta is P / D with
    deg_T P <= deg_T D = dT(Delta), the sum of N times the largest multiplicity
    over Delta's distinct (nu, N), and D(u, 0) != 0: P = 0 if Delta's series
    vanishes through T^dT(Delta).
    """

    def __init__(self, terms=()):
        object.__setattr__(
            self,
            "terms",
            tuple((coeff, tuple(sorted(factors))) for coeff, factors in terms),
        )

    def __setattr__(self, *args):
        raise AttributeError("ZetaRational is immutable")

    def is_zero(self) -> bool:
        return self == ZetaRational()

    def first_difference(self, other: "ZetaRational"):
        """(n, own T^n coefficient, other's) at the smallest differing n.

        None when equal.  Otherwise n is Delta's (class docstring) lowest
        nonzero T-order through dT(Delta).  Delta is expanded through windows
        that start at its lowest T-shift, at least 1, and double up to
        dT(Delta), stopping at the first that holds a nonzero row, so only an
        equal pair pays for the whole dT(Delta); an empty Delta takes one
        window, through T^0.  InvalidInput, before the first window, when the
        whole dT(Delta) would exceed MAX_EXPANSION.  Only this side is
        expanded, through n; the other's coefficient is this one's less
        Delta's, over the same u-denominator."""
        den_u = _common_den(self.terms + other.terms)
        delta = _grouped(den_u, self.terms, other.terms)
        bound = _t_bound(delta)
        _check_expansion(delta, bound)
        lowest = min((sum(N for _, N in factors) for factors in delta), default=0)
        window = min(max(lowest, 1), bound)
        rows = _expand(delta, window)
        while not rows and window < bound:
            window = min(2 * window, bound)
            rows = _expand(delta, window)
        if not rows:
            return None
        n = min(rows)
        own = _expand(_grouped(den_u, self.terms), n).get(n, {})
        theirs = _add_shifted({n: dict(own)}, {n: rows[n]}, (-1,), 0).get(n, {})
        return n, _laurent_over(own, den_u), _laurent_over(theirs, den_u)

    def __eq__(self, other):
        if not isinstance(other, ZetaRational):
            return NotImplemented
        return self.first_difference(other) is None

    def t_series(self, order: int) -> "TSeries":
        """Unique power-series expansion in T through T^order."""
        if order < 0:
            raise ValueError("order must be non-negative")
        den_u = _common_den(self.terms)
        rows = _expand(_grouped(den_u, self.terms), order)
        return TSeries(tuple(_laurent_over(rows.get(n, {}), den_u) for n in range(order + 1)))

    @cached_property
    def _cleared(self):
        """(num, den) with den = den_u * prod_f x_f^M_f, x_f = u^nu - T^N.

        With the distinct factors f_1 < ... < f_K at their largest
        multiplicities M_i, num = sum_g P_g T^N_g prod_f x_f^(M_f - m_g(f))
        over the ``_grouped`` groups g, where m_g(f) is the multiplicity of f
        in g and N_g the sum of N over g.  One pass over the factors builds
        it, with no T-series and no division, keeping one partial sum for
        each set of factors that its groups still hold.  Step i multiplies
        the prefix Pre = prod_(j<i) x_j^M_j by x_i^M_i and each partial sum by
        x_i^(M_i - m(f_i)), and merges the sums that hold the same factors
        after f_i.  A group whose first factor is f_i then joins the sum for
        the rest of its factors as P_g T^N_g Pre x_i^(M_i - m_g(f_i)), so all
        the groups that hold the same factors from some point on share the
        products after it.  The sum that holds no factor is num, and
        den = den_u * Pre_K; (0, 1) when every group cancels.  Both come as
        sparse T-rows {T exponent: {u exponent: coeff}} with no zero entries
        and no empty rows.
        Not gcd-reduced: bivariate gcds are expensive and nothing needs them.
        InvalidInput as soon as a polynomial on the way holds more than
        MAX_CLEARED_TERMS terms.
        """
        den_u = _common_den(self.terms)
        groups = _grouped(den_u, self.terms)
        if not groups:
            return {}, {0: {0: 1}}
        factors = sorted(_factor_max(factors for _, factors in self.terms).items())
        index = {f: i for i, (f, _) in enumerate(factors)}
        pending = {(): {}}  # (factor index, multiplicity) pairs still held -> partial sum
        joining = {}  # index of the first factor -> [(held pairs, poly, T shift)]
        for group, poly in groups.items():
            held = tuple((index[f], m) for f, m in Counter(group).items())
            shift = sum(N for _, N in group)
            if held:
                joining.setdefault(held[0][0], []).append((held, poly, shift))
            else:
                _within_cap(_add_shifted(pending[()], {0: {0: 1}}, poly, shift))
        prefix = {0: {0: 1}}
        for i, ((nu, N), count) in enumerate(factors):
            merged = {}
            for held, rows in pending.items():
                m = held[0][1] if held and held[0][0] == i else 0
                for _ in range(count - m):
                    rows = _times_factor(rows, nu, N)
                rest = held[1:] if m else held
                if rest in merged:
                    _within_cap(_add_shifted(merged[rest], rows, (1,), 0))
                else:
                    merged[rest] = rows
            powers = [prefix]  # prefix * x_i^k for k = 0 .. M_i
            for _ in range(count):
                powers.append(_times_factor(powers[-1], nu, N))
            for held, poly, shift in joining.get(i, ()):
                joined = merged.setdefault(held[1:], {})
                _within_cap(_add_shifted(joined, powers[count - held[0][1]], poly, shift))
            pending, prefix = merged, powers[-1]
        num = pending[()]
        if not num:
            return num, {0: {0: 1}}
        return num, _within_cap(_add_shifted({}, prefix, den_u, 0))

    @cached_property
    def num(self) -> BiPoly:
        return _bipoly(self._cleared[0])

    @cached_property
    def den(self) -> BiPoly:
        return _bipoly(self._cleared[1])

    def __repr__(self):
        return f"ZetaRational({self.terms!r})"


# ---------------------------------------------------------------------------
# truncated T-series
# ---------------------------------------------------------------------------

class TSeries:
    """Truncated series sum_{n=0..order} c_n T^n with RatFunc coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[RatFunc]):
        if not coeffs:
            raise ValueError("a TSeries holds at least the T^0 coefficient")
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *args):
        raise AttributeError("TSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> RatFunc:
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj) -> "TSeries":
        if not isinstance(obj, dict) or "coeffs" not in obj:
            raise SchemaError("series must be {order, coeffs}")
        coeffs = [RatFunc.from_json(c) for c in obj["coeffs"]]
        if obj.get("order") is not None and obj["order"] != len(coeffs) - 1:
            raise SchemaError("series order does not match coefficient count")
        return cls(coeffs)

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if not c.is_zero():
                parts.append(f"({c}) T^{n}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"TSeries({self.coeffs!r})"
