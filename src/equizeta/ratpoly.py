"""Exact rational-function arithmetic.

Univariate integer polynomials in u are plain tuples of ints in ascending
powers with no trailing zeros (the empty tuple is 0).  On top of those sit:

* ``RatFunc``      -- reduced fractions of integer polynomials in u,
* ``ZetaRational`` -- sums of coeff * prod T^N / (u^nu - T^N) terms, whose
  T-expansion gives the series and certified equality, and whose factors,
  multiplied out, give the cleared fraction, which the CLI prints directly,
* ``BiPoly``       -- a (u, T) map view of the cleared fraction, built only
  on request,
* ``TSeries``      -- truncated power series in T, each coefficient held as
  its Laurent row (below) and built as a ``RatFunc`` only on request.

Everything is immutable and uses arbitrary-precision integers only: one long
division over Z serves exact quotients and Laurent expansions, and gcds run
as a primitive pseudo-remainder sequence, so no rational coefficient and no
floating point appears anywhere in this package.

Both the T-expansion and the cleared fraction hold a polynomial in (u, T)
in one packed format, defined in the packed-row section below, by Kronecker
substitution (Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", JSC 2009): coefficients are the balanced digits
|c| < 2^(w-1) of one int, v = sum_i c_i 2^(w i), so a shift is an offset, a
sum one aligned add, and a product one int product.  Every operation is
evaluation at 2^w, so the digits read back are the coefficients as long as
those fit.  Each ``_expand`` and ``cleared.cleared_fraction`` call derives
the exact width (``_width``) from an L1 bound on every coefficient it can
produce, and stores the digits at its ``_byte_width``, 8 to 64 bits or
whole bytes, so that ``_digits`` reads them off in C.  The caps count bits
at the exact width: ``_exact_bits`` converts the stored bit lengths, once
their cheap total has passed MAX_PACKED_BITS, and every budget of empty
digits starts from MAX_PACKED_BITS // exact.  Two drivers use the format.
The T-expansion, sparse in T, holds packed T-rows {T exponent: (low, v)},
one int per row over the u-band of that row, multiplies by each factor
through a one-step recurrence (``_times_geometric``), and sums the groups
through one in-place adder, ``_add_shifted``, which sums two bands of one
row by ``_band_sum``: it charges the gap between them and trims the low
digits that cancel.  The cleared fraction, a product of binomials
u^nu - T^N, is one int over all its rows under a skewed map that keeps
each row clear of the next where its rows are dense and its span proves
both caps, so that a product by a binomial is one shift and one
subtraction, and these same packed rows elsewhere (``cleared``).

Canonicalisation strips the two primes that the engine's denominators are
built from before any gcd: the power of u, read from the low zero
coefficients, and the power of u - 1 that num and den share, found by
synthetic division at the root u = 1 (the coefficients sum to 0 exactly when
u - 1 divides).  The primitive PRS runs only on what is left of num and den,
only when both of those are non-constant, and only when Euclid on their
images modulo the prime 2^61 - 1 does not already show them coprime.
A value's one canonical form as a Laurent row is (low, poly, den), the value
u^low poly(u) / den(u) with poly(0) != 0 and den(0) != 0, and zero
(0, (), (1,)); ``_laurent_row`` is the one rule that canonicalises a row,
and ``_laurent_over`` builds the value of its row.  Laurent polynomials over
the denominator 1 or u - 1 (the engine's series coefficients, the arc
oracle's, the G-space values and the affine atoms) and canonical values
times a power of u - 1 are canonical by construction and skip the gcd step
altogether (``RatFunc._reduced``), so ``_canonical`` serves parsed
``rational`` values and the public ``RatFunc`` arithmetic only.  A series
keeps its coefficients' rows, which compare as the values do, and the CLI
writes them to JSON without building a ``RatFunc``.
"""

from __future__ import annotations

import sys
from functools import cached_property
from itertools import repeat
from math import gcd, prod
from operator import add, itemgetter, lshift, sub
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


def _too_long_to_print(exc: ValueError) -> InvalidInput:
    """The error for a coefficient with more digits than the interpreter
    converts (``sys.get_int_max_str_digits()``), from the ValueError that
    converting it raised."""
    return InvalidInput(f"a coefficient of the result is too long to print: {exc}")


def _decimals(coeffs: Iterable[int]) -> list:
    """``[str(c) for c in coeffs]``; ``_too_long_to_print`` for a coefficient
    too long to convert."""
    try:
        return [str(c) for c in coeffs]
    except ValueError as exc:
        raise _too_long_to_print(exc) from exc


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


# The Mersenne prime 2^61 - 1, the modulus of the coprimality test.
_P = (1 << 61) - 1


def _rem_mod_p(a: list, b: list) -> list:
    """The remainder of a by b over GF(_P), coefficient lists in ascending
    powers with b's leading one nonzero, trimmed."""
    a = a[:]
    d = len(b) - 1
    inv = pow(b[-1], -1, _P)
    for k in range(len(a) - 1, d - 1, -1):
        c = a[k] * inv % _P
        if c:
            for j in range(d):
                a[k - d + j] = (a[k - d + j] - c * b[j]) % _P
    del a[d:]
    while a and not a[-1]:
        a.pop()
    return a


def _coprime_mod_p(a: tuple, b: tuple) -> bool:
    """True when the non-constant a and b are coprime over Q by their images
    mod _P: _P does not divide lc(a) and Euclid over GF(_P) ends on a
    constant.  The primitive gcd g of a and b has lc(g) dividing lc(a), so
    g mod _P keeps its degree and divides both images.  False only says
    that this prime cannot tell."""
    if not a[-1] % _P:
        return False
    x, y = [c % _P for c in a], list(ptrim(c % _P for c in b))
    while y:
        x, y = y, _rem_mod_p(x, y)
    return len(x) == 1


def _cofactors(a: tuple, b: tuple):
    """(a / g, b / g) for g = pgcd(a, b), a and b nonzero: the one gcd step.

    The powers of u and of u - 1 come off first: each side's whole power of
    u, counted in its low zero coefficients, and the power of u - 1 the two
    share, by synthetic division at u = 1 of both while both are divisible.
    Both factors are prime, so what is left, A and B, has no common factor u
    or u - 1, and g is u^min (u-1)^min gcd(A, B).  The primitive PRS runs on
    A and B only: not when either is a constant, and not when their images
    mod 2^61 - 1 show them coprime (``_coprime_mod_p``)."""
    va, vb = _valuation(a), _valuation(b)
    v = min(va, vb)
    a, b = a[va:], b[vb:]
    while len(a) > 1 and len(b) > 1:
        qa, qb = _over_u_minus_1(a), _over_u_minus_1(b)
        if qa is None or qb is None:
            break
        a, b = qa, qb
    if len(a) > 1 and len(b) > 1 and not _coprime_mod_p(a, b):
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
    def _reduced(cls, num: tuple, den: tuple) -> "RatFunc":
        """num/den with no gcd step, for a pair already in the canonical
        form that ``__init__`` computes: trimmed, coprime, of joint integer
        content 1 and with den's leading coefficient positive (0 is
        ((), (1,))).  The caller guarantees that invariant."""
        self = object.__new__(cls)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

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


def _times_u_minus_1(r: RatFunc, e: int) -> RatFunc:
    """r * (u-1)^e for e >= 0 with no gcd step: up to e factors u - 1 cancel
    from r's den (``_over_u_minus_1``), and the rest multiply its num.  The
    den left is coprime to num, and to u - 1 whenever a factor u - 1 joins
    num; u - 1 is primitive with a positive leading coefficient, so neither
    the joint content nor den's sign changes, and the result is canonical."""
    num, den = r.num, r.den
    if not num:
        return r
    while e:
        q = _over_u_minus_1(den)
        if q is None:
            break
        den = q
        e -= 1
    for _ in range(e):  # num * (u - 1): coefficient k is num[k-1] - num[k]
        num = tuple(map(sub, (0,) + num, num + (0,)))
    return RatFunc._reduced(num, den)


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
    terms on first access; printing reads the terms and builds none."""

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
    of their contents, folded from the first polynomial ((1,) for none)."""
    polys = iter(polys)
    out = next(polys, (1,))
    for p in polys:
        c = gcd(pcontent(out), pcontent(p))
        rest = _cofactors(out, p)[1]
        out = pmul(out, rest if c == 1 else tuple(x // c for x in rest))
    return out


def _common_den(terms) -> tuple:
    """LCM of the terms' coefficient denominators, each folded once in order."""
    return _lcm_fold(dict.fromkeys(coeff.den for coeff, _ in terms))


def _factor_max(factor_tuples) -> dict:
    """Each distinct (nu, N) factor at its largest multiplicity in one tuple."""
    out = {}
    for factors in factor_tuples:
        for key in factors:
            count = factors.count(key)
            if count > out.get(key, 0):
                out[key] = count
    return out


def _t_bound(factor_tuples) -> int:
    """T-degree of the common denominator prod (u^nu - T^N)^multiplicity."""
    return sum(N * count for (_, N), count in _factor_max(factor_tuples).items())


def _grouped(den_u: tuple, terms, negated=()) -> dict:
    """den_u * (sum(terms) - sum(negated)) as {factor tuple: u-polynomial}:
    terms sharing a factor tuple add up and cancelled groups are dropped.
    den_u must be a multiple of every coefficient's denominator, and each
    distinct denominator divides it once.  A coefficient whose denominator
    is den_u itself, quotient 1, adds its numerator as it is."""
    groups = {}
    quotients = {}
    for negate, part in ((False, terms), (True, negated)):
        for coeff, factors in part:
            if coeff.den not in quotients:
                quotients[coeff.den] = pdivexact(den_u, coeff.den)
            quotient = quotients[coeff.den]
            scaled = coeff.num if quotient == (1,) else pmul(coeff.num, quotient)
            if negate:
                scaled = pneg(scaled)
            groups[factors] = padd(groups[factors], scaled) if factors in groups else scaled
    return {factors: poly for factors, poly in groups.items() if poly}


# Cap on one ``_expand`` call, which the T-series and equality use and the
# cleared fraction does not: the lattice points m >= 1 with sum m_i N_i <=
# order, which a group's series coefficients count, bounded per group by the
# box prod (order // N_i) and summed over the groups.  ``_expand`` no longer
# visits them, but the box still sets its width and this cap its refusals.
# The catalog's largest tree, gk(64,+,+), needs about 4.3 million through its
# dT; a stratum pairing N = 10^8 with N = 1 needs 4*10^8 and fails at once
# with InvalidInput (exit 2).  ``t_series`` also holds its order + 1
# coefficients to this cap, since a huge N leaves the box empty at any order.
MAX_EXPANSION = 1 << 24

# Cap on the bits of the packed rows of any one polynomial that ``_expand``
# or ``cleared.cleared_fraction`` holds, 16 MiB, read at each check.  A
# packed row stores every power of u in its band, zero or not, so this
# bounds memory where ``cleared.MAX_CLEARED_TERMS``, which counts nonzero
# terms, does not: a divisor with nu = 10^9 beside one with nu = 1 puts the
# two ends of a row 10^9 digits apart, and fails at once with InvalidInput
# (exit 2).  The
# catalog's largest polynomial, on the way to gk(62,+,-), holds 5.8 million
# bits in its rows.  A series coefficient read off a row is charged the same
# way for the dense u-tuples it would be stored in (``_check_span``): the
# one term u^(-1-10^9) T^2 of a single stratum on those two divisors is
# refused there.
MAX_PACKED_BITS = 1 << 27


def _expansion_work(groups: dict, order: int) -> int:
    """The box bound on the lattice points that the groups' series count."""
    return sum(prod(order // N for _, N in factors) for factors in groups)


def _check_expansion(groups: dict, order: int):
    """InvalidInput when expanding groups through T^order would exceed
    MAX_EXPANSION."""
    if _expansion_work(groups, order) > MAX_EXPANSION:
        raise InvalidInput(
            f"the T-expansion would visit more than MAX_EXPANSION = {MAX_EXPANSION} "
            "lattice points; the divisor multiplicities or the order are too large"
        )


def _width(bound: int) -> int:
    """The exact digit width for packed coefficients at most ``bound`` in
    absolute value, so that |c| < 2^(w-1); at least 2, so that the seed row 1
    fits.  The caps count digits at this width; ``_byte_width`` stores them."""
    return max(bound, 1).bit_length() + 1


def _byte_width(exact: int) -> int:
    """The digit width that stores digits of the exact width ``exact``: 8,
    16, 32 or 64 bits, so that a digit is a machine integer, and whole bytes
    above 64, where a power of two would cost up to twice the bits in every
    product."""
    return max(8, 1 << (exact - 1).bit_length()) if exact <= 64 else -(-exact // 8) * 8


def _exact_bits(sizes, w: int, exact: int) -> int:
    """The bits that packed values of the bit lengths ``sizes``, stored at
    the width w, take at the exact width: a value of b bits holds b // w
    digits below its top one, whose b % w bits are the same at either
    width.  The stored bits bound it from above, so it is only worth a pass
    once they exceed MAX_PACKED_BITS."""
    return sum(b // w * exact + b % w for b in sizes)


def _l1(poly: tuple) -> int:
    return sum(map(abs, poly))


def _pack(poly: tuple, w: int) -> tuple:
    """The nonzero u-polynomial ``poly`` as the packed row (low, v)."""
    low = _valuation(poly)
    v = 0
    for c in reversed(poly[low:]):
        v = (v << w) + c
    return low, v


# The machine-integer formats of 8-, 16-, 32- and 64-bit digits, on a host
# whose bytes cast to them in order.
_DIGIT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}

# Byte j of a 64-bit machine word, j = 0 the lowest, sits at index
# _BYTE_SLOTS[j] of the word's bytes on this host.
_BYTE_SLOTS = range(8) if sys.byteorder == "little" else range(7, -1, -1)

# The byte that extends the sign of a two's complement integer whose top
# byte is the index: 0x00 below 0x80 and 0xff from it on.
_SIGN_EXTENSION = bytes(128) + b"\xff" * 128


def _digits(v: int, w: int):
    """The balanced base-2^w digits of v, lowest first, as a sequence of
    ints taken off in C; w is a ``_byte_width``.  With 2^(w-1) added to
    every digit and xor-ed off again, each w-bit chunk of v is its digit in
    two's complement, so a machine-size digit is a cast of v's bytes.  For a
    wider one, strided copies move the chunks' bytes, and copies of each top
    byte's sign, into 64-bit words that cast to machine integers, the top
    word signed, and the digit is the sum of its words' shifts."""
    size = w // 8
    n = v.bit_length() // w + 1
    halves = int.from_bytes((1 << (w - 1)).to_bytes(size, "little") * n, "little")
    chunks = ((v + halves) ^ halves).to_bytes(n * size, "little")
    if size in _DIGIT_FORMATS:
        return memoryview(chunks).cast(_DIGIT_FORMATS[size])
    sign = chunks[size - 1::size].translate(_SIGN_EXTENSION)
    digits = None
    for q in reversed(range(0, size, 8)):
        word = bytearray(8 * n)
        for j, slot in enumerate(_BYTE_SLOTS, q):
            word[slot::8] = chunks[j::size] if j < size else sign
        if digits is None:
            digits = memoryview(word).cast("q")
        else:
            digits = map(add, map(lshift, digits, repeat(64)), memoryview(word).cast("Q"))
    return list(digits)


def _row_poly(row: tuple, w: int) -> tuple:
    """A packed row as (low, u-polynomial tuple): the Laurent polynomial
    u^low * poly(u).  The top digit that ``_digits`` reads off a nonzero v
    is nonzero, so only v = 0 needs trimming."""
    low, v = row
    return low, tuple(_digits(v, w)) if v else ()


def _too_many_bits():
    return InvalidInput(
        f"a polynomial's packed rows would hold more than MAX_PACKED_BITS = {MAX_PACKED_BITS} "
        "bits; the divisors' nu or the coefficients' powers of u lie too far apart"
    )


def _within_bits(rows: dict, w: int, exact: int) -> dict:
    """rows, or InvalidInput once they hold more than MAX_PACKED_BITS bits
    at the exact width."""
    sizes = list(map(int.bit_length, map(itemgetter(1), rows.values())))
    if sum(sizes) > MAX_PACKED_BITS and _exact_bits(sizes, w, exact) > MAX_PACKED_BITS:
        raise _too_many_bits()
    return rows


def _expand(groups: dict, order: int):
    """Nonzero T^0..T^order coefficients of a ``_grouped`` sum, sparse in T,
    as (packed rows, w).  Each group's series, the product of its factors
    T^N / (u^nu - T^N), is built one factor at a time by
    ``_times_geometric`` and then multiplied by its P_g into the sum, one
    ``_add_shifted`` call per group.  A coefficient of a group's series
    counts lattice points, at most its box prod (order // N), so the exact
    width comes from sum_g |P_g|_1 * box_g, and w is its ``_byte_width``.
    InvalidInput, before anything is built, when the box would exceed
    MAX_EXPANSION, and as soon as the rows would hold more than
    MAX_PACKED_BITS bits at the exact width.  Returns (rows, w, exact)."""
    _check_expansion(groups, order)
    exact = _width(sum(
        _l1(poly) * prod(order // N for _, N in factors) for factors, poly in groups.items()
    ))
    w = _byte_width(exact)
    out = {}
    for factors, poly in groups.items():
        series = {0: (0, 1)}
        for nu, N in factors:
            series = _times_geometric(series, nu, N, order, w, exact)
        _within_bits(_add_shifted(out, series, poly, w, exact), w, exact)
    return out, w, exact


def _times_geometric(series: dict, nu: int, N: int, order: int, w: int, exact: int) -> dict:
    """S * T^N / (u^nu - T^N) through T^order for the packed rows S of width
    w, whose coefficients are non-negative.  The product P = S * sum_{m>=1}
    u^(-m nu) T^(m N) satisfies P_t = u^(-nu) (S_(t-N) + P_(t-N)), so one
    ascending walk over each residue class of t mod N, from its lowest row
    of S, builds it with at most one aligned add per row, and u^(-nu) is a
    change of low.  No coefficient cancels, so each sum is nonzero.
    InvalidInput, before the add that would allocate them, once the empty
    digits between the bands of the rows summed exceed MAX_PACKED_BITS
    bits, and once the rows built hold more than that, both at the exact
    width.  The rows are recounted at the exact width only when their stored
    bits outgrow the room that the last recount left below the cap, a room
    that each recount shrinks by a factor <= 1 - exact / w <= 3/4."""
    product = {}
    spare = MAX_PACKED_BITS // exact
    bits, limit = 0, MAX_PACKED_BITS
    for t in sorted(series):
        if t + N > order:
            break
        if t in product:  # the walk from a lower row of its class passed it
            continue
        low, v = series[t]
        while True:
            t += N
            low -= nu
            product[t] = low, v
            bits += v.bit_length()
            if bits > limit:
                room = MAX_PACKED_BITS - _exact_bits(
                    (b.bit_length() for _, b in product.values()), w, exact
                )
                if room < 0:
                    raise _too_many_bits()
                limit = bits + room
            if t + N > order:
                break
            if t in series:
                low, v, spare = _band_sum(low, v, *series[t], w, spare)
    return product


def _band_sum(low_a: int, a: int, low_b: int, b: int, w: int, spare: int):
    """The sum of the packed rows (low_a, a) and (low_b, b) of width w, two
    bands of one row, as (low, v, spare): one aligned shift and one int add.
    This is the one band-sum rule of both packed drivers.  spare counts the
    empty digits that MAX_PACKED_BITS still allows at the exact width; the
    digits between the top of the lower band and the bottom of the higher
    one are charged to it before the shift, and InvalidInput is raised once
    it falls below 0.  Bands with the same low may cancel there: the low
    digits that cancel are trimmed off, and v = 0 when every digit does."""
    if low_b < low_a:
        low_a, a, low_b, b = low_b, b, low_a, a
    gap = low_b - low_a - a.bit_length() // w - 1
    if gap > 0:
        spare -= gap
        if spare < 0:
            raise _too_many_bits()
    v = a + (b << w * (low_b - low_a))
    if low_a < low_b or v & ((1 << w) - 1) or not v:
        return low_a, v, spare
    zeros = ((v & -v).bit_length() - 1) // w
    return low_a + zeros, v >> w * zeros, spare


def _add_shifted(acc: dict, rows: dict, poly: tuple, w: int, exact: int) -> dict:
    """acc += poly(u) rows in place, on packed rows of width w whose digits
    have the exact width ``exact``; returns acc.  A product by poly is one
    int product, and a sum of two rows one aligned shift and one int add.
    It checks neither cap on its result, but raises InvalidInput, before
    allocating them, once the empty digits that the product by poly and the
    sums of rows whose bands lie apart open would exceed MAX_PACKED_BITS
    bits at the exact width."""
    if not any(poly):
        return acc
    low_p, p = _pack(poly, w)
    spare = MAX_PACKED_BITS // exact - (len(poly) - 1 - low_p) * len(rows)
    if spare < 0:
        raise _too_many_bits()
    for t, (low, v) in rows.items():
        low += low_p
        v *= p
        if t in acc:
            low, v, spare = _band_sum(*acc[t], low, v, w, spare)
            if not v:
                del acc[t]
                continue
        acc[t] = low, v
    return acc


def _bipoly(terms: list) -> BiPoly:
    """An interleaved [c, t, u, ...] term list as a BiPoly."""
    return BiPoly(dict(zip(zip(terms[2::3], terms[1::3]), terms[::3])))


# The Laurent row of 0.
_ZERO_ROW = (0, (), (1,))


def _laurent_row(low: int, poly: tuple, den_u: tuple) -> tuple:
    """The Laurent row (low, poly, den) of u^low * poly(u) / den_u, for a
    trimmed poly and a nonzero den_u: poly(0) != 0, den(0) != 0, and
    u^low poly / den for low >= 0, or poly / (u^-low den) below, is the
    canonical ``RatFunc`` of the value (``_row_value``), so equal values
    have equal rows; 0 is ``_ZERO_ROW``.

    Over den_u = 1 and over den_u = u - 1 it needs no gcd step.  Over u - 1,
    a poly that u - 1 divides is divided by synthetic division first and is
    then over 1.  Once poly's valuation has moved into low, poly has no
    factor u, and over u - 1 none of u - 1 either; den_u is primitive with a
    positive leading coefficient, and its only prime factors are u and
    u - 1.  So the row is already canonical.  Any other den_u goes through
    the gcd step."""
    if not poly:
        return _ZERO_ROW
    if den_u == (-1, 1):
        quotient = _over_u_minus_1(poly)
        if quotient is not None:
            poly, den_u = quotient, (1,)
    elif den_u != (1,):
        if low >= 0:
            return _row_of(RatFunc((0,) * low + poly, den_u))
        return _row_of(RatFunc(poly, (0,) * -low + den_u))
    v = _valuation(poly)
    return low + v, poly[v:], den_u


def _row_of(r: RatFunc) -> tuple:
    """The Laurent row of the canonical value r: the powers of u come off
    num and den, and at most one of them has any."""
    num, den = r.num, r.den
    if not num:
        return _ZERO_ROW
    a, b = _valuation(num), _valuation(den)
    return a - b, num[a:], den[b:]


def _row_value(row: tuple) -> RatFunc:
    """The value of the Laurent row ``row``, canonical with no gcd step."""
    low, poly, den = row
    if low < 0:
        return RatFunc._reduced(poly, (0,) * -low + den)
    return RatFunc._reduced((0,) * low + poly, den)


def _laurent_over(low: int, poly: tuple, den_u: tuple) -> RatFunc:
    """The value of u^low * poly(u) / den_u, canonical: the value of its
    ``_laurent_row``."""
    return _row_value(_laurent_row(low, poly, den_u))


def _check_span(low: int, size: int, den_u: tuple, exact: int):
    """InvalidInput when u^low times a polynomial of ``size`` coefficients,
    over den_u, would hold more than MAX_PACKED_BITS bits at the exact width
    ``exact`` in the dense tuples of its value, which its JSON lists digit
    for digit, counted as a packed row of as many digits as the longer of
    them: the numerator, u^max(low, 0) times the polynomial, or the
    denominator, u^max(-low, 0) den_u.  A series coefficient's own digits
    were charged as its row was built, but not the powers of u between the
    row and u^0."""
    if max(max(low, 0) + size, max(-low, 0) + len(den_u)) * exact > MAX_PACKED_BITS:
        raise _too_many_bits()


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
        Delta's, over the same u-denominator; ``_check_span`` charges the
        span of the two, at Delta's exact width, before either is built."""
        den_u = _common_den(self.terms + other.terms)
        delta = _grouped(den_u, self.terms, other.terms)
        bound = _t_bound(delta)
        _check_expansion(delta, bound)
        lowest = min((sum(N for _, N in factors) for factors in delta), default=0)
        window = min(max(lowest, 1), bound)
        rows, w, exact = _expand(delta, window)
        while not rows and window < bound:
            window = min(2 * window, bound)
            rows, w, exact = _expand(delta, window)
        if not rows:
            return None
        n = min(rows)
        low_d, diff = _row_poly(rows[n], w)
        own, own_w, _ = _expand(_grouped(den_u, self.terms), n)
        low_o, mine = _row_poly(own.get(n, (low_d, 0)), own_w)
        low = min(low_o, low_d)
        _check_span(low, max(low_o + len(mine), low_d + len(diff)) - low, den_u, exact)
        theirs = padd((0,) * (low_o - low) + mine, pneg((0,) * (low_d - low) + diff))
        return n, _laurent_over(low_o, mine, den_u), _laurent_over(low, theirs, den_u)

    def __eq__(self, other):
        if not isinstance(other, ZetaRational):
            return NotImplemented
        return self.first_difference(other) is None

    def t_series(self, order: int) -> "TSeries":
        """Unique power-series expansion in T through T^order.  InvalidInput,
        before any coefficient is built, when its order + 1 coefficients
        alone would exceed MAX_EXPANSION, and before a coefficient whose
        dense u-tuples would hold more than MAX_PACKED_BITS bits
        (``_check_span``)."""
        if order < 0:
            raise ValueError("order must be non-negative")
        if order + 1 > MAX_EXPANSION:
            raise InvalidInput(
                f"a T-series through T^{order} would hold more than "
                f"MAX_EXPANSION = {MAX_EXPANSION} coefficients; the order is too large"
            )
        den_u = _common_den(self.terms)
        rows, w, exact = _expand(_grouped(den_u, self.terms), order)
        out = [_ZERO_ROW] * (order + 1)
        for n, row in rows.items():
            low, poly = _row_poly(row, w)
            _check_span(low, len(poly), den_u, exact)
            out[n] = _laurent_row(low, poly, den_u)
        return TSeries._from_rows(out)

    @cached_property
    def _cleared(self):
        """(layout, num, den): ``cleared.cleared_fraction`` of the terms,
        imported here since that module builds on this one."""
        from .cleared import cleared_fraction

        return cleared_fraction(self.terms)

    def cleared_terms(self):
        """(num, den) of the cleared fraction, each as one interleaved list
        [c, t, u, c, t, u, ...] of its nonzero terms in (t, u) order."""
        layout, *polys = self._cleared
        return tuple(map(layout.terms, polys))

    @cached_property
    def num(self) -> BiPoly:
        return _bipoly(self._cleared[0].terms(self._cleared[1]))

    @cached_property
    def den(self) -> BiPoly:
        return _bipoly(self._cleared[0].terms(self._cleared[2]))

    def __repr__(self):
        return f"ZetaRational({self.terms!r})"


# ---------------------------------------------------------------------------
# truncated T-series
# ---------------------------------------------------------------------------

class TSeries:
    """Truncated series sum_{n=0..order} c_n T^n with RatFunc coefficients.

    ``rows`` holds each coefficient as its Laurent row (``_laurent_row``),
    the one form a value has, so equality and hashing compare rows.  The
    ``RatFunc`` coefficients are built from the rows on first request, by
    ``coeffs``, ``[n]``, ``to_json`` or ``str``; the CLI writes a series
    straight from its rows.
    """

    __slots__ = ("rows", "_coeffs")

    def __init__(self, coeffs: Sequence[RatFunc]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a TSeries holds at least the T^0 coefficient")
        object.__setattr__(self, "rows", tuple(map(_row_of, coeffs)))
        object.__setattr__(self, "_coeffs", coeffs)

    @classmethod
    def _from_rows(cls, rows) -> "TSeries":
        """The series of the Laurent rows ``rows``, at least one, which the
        caller guarantees are canonical (``_laurent_row``)."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "_coeffs", None)
        return self

    def __setattr__(self, *args):
        raise AttributeError("TSeries is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients as ``RatFunc``s, built once."""
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", tuple(map(_row_value, self.rows)))
        return self._coeffs

    @property
    def order(self) -> int:
        return len(self.rows) - 1

    def __getitem__(self, n: int) -> RatFunc:
        return _row_value(self.rows[n])

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj) -> "TSeries":
        """A series from {order, coeffs}: SchemaError unless coeffs is a
        non-empty array and order, if given, is the integer len(coeffs) - 1."""
        coeffs = obj.get("coeffs") if isinstance(obj, dict) else None
        if not isinstance(coeffs, list) or not coeffs:
            raise SchemaError("series must be {order, coeffs} with at least one coefficient")
        coeffs = [RatFunc.from_json(c) for c in coeffs]
        order = obj.get("order")
        if order is not None and (type(order) is not int or order != len(coeffs) - 1):
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
