"""Direct arc-space computation for invariant normal-crossing monomial germs.

For f = sign * prod x_i^(N_i) under a coordinatewise sign involution, the
truncated arcs whose composition with f has exact order n split into strata
indexed by the order vector k of the arc coordinates on the support S of f
(k_i >= 1, sum k_i N_i = n).  Each stratum is a product of punctured lines
(the leading coefficients), affine spaces (the higher coefficients and the
off-support coordinates), and a point, so the two proved product rules
evaluate it exactly.  This never touches the closed-form engine, which makes
it the ground-truth oracle for the monomial fixtures.

A stratum's affine part has dimension sum (n - k_i) + n (d - |S|) = n d - m
with m = sum k_i, so the order-n value is the leading-coefficient factor W
times sum_m counts[n][m] u^(n d - m), where counts[n][m] is the number of
order vectors with sum k_i N_i = n and sum k_i = m.  The vectors are counted,
never listed: ``_order_counts`` builds the table for every n <= order one
support coordinate at a time.  Coordinate i contributes the geometric series
x^w y / (1 - x^w y) in x^n y^m (w = N_i), so the table C_i over the first i
coordinates satisfies C_i = x^w y (C_(i-1) + C_i), that is
C_i[n][m] = C_(i-1)[n-w][m-1] + C_i[n-w][m-1].  With C_0 = 1 at (0, 0) that
gives the counts.  The recurrence is linear, so ``oracle_series`` starts it
instead from W's numerator: u^k P(u), with P(0) != 0, laid reversed along m
as the n = 0 row (C_0[0][m] = P_(deg P - m), y standing for 1/u).  Row n of
the last table then already holds P(u) sum_m counts[n][m] u^-m, reversed, so
no per-order product with W remains.  Each row is one int in the packed
format of ``ratpoly``, entry m its base-2^w digit m, so the table is |S|
passes of order + 1 int additions and shifts, on rows of
order // min N_i + deg P + 1 digits, and no recursion.  The table is
bounded before it is built: above ``MAX_ORACLE_CELLS`` the request is an
``InvalidInput``.

For the signed variants the punctured-line factor is replaced by the set of
leading-coefficient tuples solving sign * prod rho_i^(N_i) = +1 or -1.  That
set is handled by orthant decomposition: an orthant is solvable exactly when
its sign pattern satisfies the equation, its solution set is a copy of
R^(|S|-1), and the involution permutes orthants through the sign flips.
Exact for constant units only, which is all a monomial germ has.

Every coefficient is built canonical, with no gcd step.  W is built
canonical over 1 or u - 1: (u - 1)^|S| or u (u - 1)^(|S|-1) over 1 for the
naive variant, and c u^k over 1 or u - 1 for the signed ones.  The counts are
non-negative, so a nonzero row times W.num does not vanish at u = 1 when
W.den = u - 1 (W.num is then a positive multiple of u^|S|).  The order-n
coefficient, a Laurent polynomial in u over W.den, is then canonical once its
valuation is moved into the power of u, which is what
``ratpoly._laurent_row`` does for the engine's series coefficients too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Tuple

from .errors import InvalidInput, NotInvariant
from .gspace import MAX_AFFINE
from .ratpoly import (
    RatFunc,
    TSeries,
    _ZERO_ROW,
    _byte_width,
    _digits,
    _laurent_row,
    _pack,
    _valuation,
    _width,
    pmonomial,
    ppow,
)

# Cap on the oracle's work, counted before anything is built as
# (|S| + 1) * (order + 1) * (order // min N_i + len(seed)) cells, seed being
# W's numerator less its power of u (one coefficient for the signed variants,
# |S| or |S| + 1 for the naive one): |S| passes build the seeded order-vector
# table and one reads the coefficients out of it, whose printed size grows
# with the table's.  A cell is one digit of w bits in a packed row, w the
# byte width of |seed|_1 * prod max(1, order // N_i), so the table holds at
# most (order + 1) * (order // min N_i + len(seed)) * w bits.  x*y*z on the
# trivial group passes at --order 1000 (about 30 ms in process on a shared
# 2-core host, most of it writing 6.6 MB of JSON; about 10 ms builds the
# series) and is refused from 1022 on, its signed variants from 1024 on.  A
# zero W builds no table but is held to the cap of a one-coefficient seed:
# x^2 y^2 z^2's minus variant on the trivial group is refused from 1448 on.
MAX_ORACLE_CELLS = 1 << 22


@dataclass(frozen=True)
class MonomialGerm:
    """f = sign * x_1^(N_1) * ... * x_d^(N_d) on (R^d, 0), d <= MAX_AFFINE."""

    exponents: Tuple[int, ...]
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if len(self.exponents) > MAX_AFFINE:
            raise InvalidInput(f"at most {MAX_AFFINE} exponents")
        if not self.exponents or all(n == 0 for n in self.exponents):
            raise InvalidInput("at least one exponent must be positive")
        if any(n < 0 for n in self.exponents):
            raise InvalidInput("exponents must be non-negative")
        if self.sign not in (1, -1):
            raise InvalidInput("sign must be +1 or -1")

    @property
    def d(self) -> int:
        return len(self.exponents)

    def support(self) -> Tuple[int, ...]:
        return tuple(i for i, n in enumerate(self.exponents) if n)


@dataclass(frozen=True)
class SignAction:
    """Generator of Z/2 acting by x_i -> eps_i * x_i; or the trivial group."""

    eps: Tuple[int, ...] = ()
    trivial: bool = False

    def __post_init__(self):
        object.__setattr__(self, "eps", tuple(self.eps))
        if not self.trivial and any(e not in (1, -1) for e in self.eps):
            raise InvalidInput("eps entries must be +1 or -1")


def is_invariant(germ: MonomialGerm, action: SignAction) -> bool:
    """Whether f survives precomposition with the action."""
    if action.trivial:
        return True
    if len(action.eps) != germ.d:
        return False
    total = 1
    for e, n in zip(action.eps, germ.exponents):
        total *= e**n
    return total == 1


def _require_invariant(germ, action):
    if not action.trivial and len(action.eps) != germ.d:
        raise InvalidInput(f"sign action of length {len(action.eps)} for {germ.d} exponents")
    if not is_invariant(germ, action):
        raise NotInvariant("germ is not invariant under the given sign action")


def _check_cells(weights: list, order: int, seed_len: int):
    """InvalidInput when the order-vector table seeded with ``seed_len``
    coefficients would exceed MAX_ORACLE_CELLS cells."""
    cells = (len(weights) + 1) * (order + 1) * (order // min(weights) + seed_len)
    if cells > MAX_ORACLE_CELLS:
        raise InvalidInput(
            f"arc order {order} needs {cells} table cells, "
            f"above the cap of {MAX_ORACLE_CELLS}"
        )


def _order_counts(germ: MonomialGerm, order: int, seed: tuple = (1,)) -> tuple:
    """The table C[n][m], for n <= order, by the recurrence in the module
    docstring started from ``seed`` as the n = 0 row, as (rows, w): row n
    is one int whose balanced base-2^w digit m is C[n][m], the packed form
    of ``ratpoly``.  The default seed 1 gives counts[n][m].

    An order-n vector over the first i coordinates has k_j <= order // N_j,
    so no count exceeds prod max(1, order // N_i), no entry exceeds |seed|_1
    times that, and w is the ``_byte_width`` that stores such digits.  A
    pass is then one int add and one shift per row, and digit m of row n is
    0 past n // min N_i + len(seed) - 1, the largest m an order-n vector
    reaches after the seed's shift.
    """
    weights = [germ.exponents[i] for i in germ.support()]
    _check_cells(weights, order, len(seed))
    bound = sum(map(abs, seed)) * prod(max(1, order // n) for n in weights)
    w = _byte_width(_width(bound))
    table = [_pack(seed, w)[1]] + [0] * order
    for n_i in weights:
        new = [0] * min(n_i, order + 1)
        for n in range(n_i, order + 1):
            new.append((table[n - n_i] + new[n - n_i]) << w)
        table = new
    return table, w


def _leading_factor(germ: MonomialGerm, action: SignAction, variant: str) -> RatFunc:
    """W: the series of the leading-coefficient tuples, which every order
    vector shares, built canonical.  Naive: (u - 1)^|S| punctured lines,
    times the point u / (u - 1) under a sign action."""
    if variant == "naive":
        s_count = len(germ.support())
        if action.trivial:
            return RatFunc._reduced(ppow((-1, 1), s_count), (1,))
        return RatFunc._reduced((0,) + ppow((-1, 1), s_count - 1), (1,))
    return _sign_factor(germ, action, 1 if variant == "plus" else -1)


def _arc_beta(germ: MonomialGerm, action: SignAction, n: int, variant: str) -> RatFunc:
    """W * sum_m counts[n][m] u^(n d - m): the T^n coefficient of
    ``oracle_series`` with its u^-nd scaling undone."""
    if n < 1:
        raise ValueError("arc order must be positive")
    return oracle_series(germ, action, variant, n)[n] * RatFunc.monomial(n * germ.d)


def arc_beta_naive(germ: MonomialGerm, action: SignAction, n: int) -> RatFunc:
    """Series of the order-n arc stratum, any nonzero leading coefficient."""
    return _arc_beta(germ, action, n, "naive")


def _solvable_orthants(germ: MonomialGerm, target: int) -> int:
    """How many of the 2^|S| orthants of the leading coefficients solve
    sign * prod rho_i^(N_i) = target: flipping a coordinate of odd weight
    flips the product, so then half do; otherwise all or none do."""
    support = germ.support()
    if any(germ.exponents[i] % 2 for i in support):
        return 1 << (len(support) - 1)
    return 1 << len(support) if germ.sign == target else 0


def _sign_factor(germ: MonomialGerm, action: SignAction, target: int) -> RatFunc:
    """Series of the leading-coefficient solution set W for one sign: each
    solvable orthant carries a copy of R^(|S|-1)."""
    support = germ.support()
    s_count = len(support)
    solvable = _solvable_orthants(germ, target)
    if not solvable:
        return RatFunc._reduced((), (1,))
    if action.trivial:
        return RatFunc._reduced(pmonomial(s_count - 1, solvable), (1,))
    if all(action.eps[i] == 1 for i in support):
        # every solvable orthant is pointwise fixed
        return RatFunc._reduced(pmonomial(s_count, solvable), (-1, 1))
    # the involution flips at least one support sign, so solvable orthants
    # come in free swapped pairs
    return RatFunc._reduced(pmonomial(s_count - 1, solvable // 2), (1,))


def arc_beta_signed(
    germ: MonomialGerm, action: SignAction, n: int, sign: str
) -> RatFunc:
    """Series of the order-n arc stratum with leading coefficient +1 or -1."""
    if sign not in ("plus", "minus"):
        raise ValueError("sign must be 'plus' or 'minus'")
    return _arc_beta(germ, action, n, sign)


def oracle_series(
    germ: MonomialGerm, action: SignAction, variant: str, order: int
) -> TSeries:
    """Generating series through T^order, coefficient of T^n scaled by u^-nd.

    With W.num = u^k P(u), the order-vector table is seeded with P reversed
    (module docstring), so that coefficient is u^(k + deg P) R_n(1/u) / W.den
    for the table's row n, R_n(y) = sum_m C[n][m] y^m.  ``_read_row`` turns
    each row into that coefficient's Laurent row with no gcd step, and the
    series holds those rows; no ``RatFunc`` is built unless asked for.  A
    zero W (no leading coefficients of that sign) makes every coefficient
    the zero row: the table it would seed with 0 is checked against the cap
    but not built.
    """
    if variant not in ("naive", "plus", "minus"):
        raise ValueError(f"bad variant {variant!r}")
    _require_invariant(germ, action)
    if order < 0:
        raise ValueError("order must be non-negative")
    wfac = _leading_factor(germ, action, variant)
    if not wfac.num:
        _check_cells([germ.exponents[i] for i in germ.support()], order, 1)
        return TSeries._from_rows([_ZERO_ROW] * (order + 1))
    k = _valuation(wfac.num)
    seed = wfac.num[k:][::-1]
    top = k + len(seed) - 1
    rows, w = _order_counts(germ, order, seed)
    return TSeries._from_rows([_read_row(v, w, top, wfac.den) for v in rows])


def _read_row(v: int, w: int, top: int, den: tuple) -> tuple:
    """The Laurent row (``ratpoly._laurent_row``) of u^top R(1/u) / den for
    the packed table row v of width w, R its polynomial in y (module
    docstring).

    R(1/u) is u^-hi times the row's nonzero band lo..hi reversed, a
    polynomial with nonzero ends: lo is the count of v's trailing zero
    digits, and ``_digits`` reads the band off at C speed."""
    if not v:
        return _ZERO_ROW
    lo = ((v & -v).bit_length() - 1) // w
    band = _digits(v >> w * lo, w)
    return _laurent_row(top - lo - len(band) + 1, tuple(band[::-1]), den)
