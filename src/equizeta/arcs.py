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
C_i[n][m] = C_(i-1)[n-w][m-1] + C_i[n-w][m-1], starting from C_0 = 1 at
(0, 0).  That is O(|S| * order^2) integer additions and no recursion.  The
table is bounded before it is built: above ``MAX_ORACLE_CELLS`` the request
is an ``InvalidInput``.

For the signed variants the punctured-line factor is replaced by the set of
leading-coefficient tuples solving sign * prod rho_i^(N_i) = +1 or -1.  That
set is handled by orthant decomposition: an orthant is solvable exactly when
its sign pattern satisfies the equation, its solution set is a copy of
R^(|S|-1), and the involution permutes orthants through the sign flips.
Exact for constant units only, which is all a monomial germ has.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Tuple

from .errors import InvalidInput, NotInvariant
from .gspace import MAX_AFFINE
from .ratpoly import RatFunc, TSeries, pmul, ppow

_POINT = RatFunc((0, 1), (-1, 1))
_U_MINUS_1 = RatFunc.poly((-1, 1))

# Cap on the oracle's work, counted before anything is built as
# (|S| + 1) * (order + 1) * (order // min N_i + 1) cells: |S| passes build the
# order-vector table and one reads the coefficients out of it, whose printed
# size grows with the table's.  x*y*z passes at --order 1000 (about 1 s, 6.6 MB
# of JSON) and is refused from 1024 on.
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
    if not is_invariant(germ, action):
        raise NotInvariant("germ is not invariant under the given sign action")


def _order_counts(germ: MonomialGerm, order: int) -> list:
    """counts[n][m], for n <= order, by the recurrence in the module docstring.

    Row n lists m = 0 .. n // min N_i, the largest m an order-n vector can
    have.
    """
    weights = [germ.exponents[i] for i in germ.support()]
    min_w = min(weights)
    width = order // min_w + 1
    cells = (len(weights) + 1) * (order + 1) * width
    if cells > MAX_ORACLE_CELLS:
        raise InvalidInput(
            f"arc order {order} needs {cells} table cells, "
            f"above the cap of {MAX_ORACLE_CELLS}"
        )
    zero = [0] * width
    table = [[1] + zero[1:]] + [zero] * order
    for w in weights:
        new = [zero] * min(w, order + 1)
        for n in range(w, order + 1):
            row = [0]
            row += map(add, table[n - w], new[n - w])
            row.pop()  # m = width is beyond any order-n vector
            new.append(row)
        table = new
    return [row[: n // min_w + 1] for n, row in enumerate(table)]


def _leading_factor(germ: MonomialGerm, action: SignAction, variant: str) -> RatFunc:
    """W: the series of the leading-coefficient tuples, which every order
    vector shares."""
    if variant == "naive":
        point = RatFunc(1) if action.trivial else _POINT
        punct = ppow((-1, 1), len(germ.support()))
        return RatFunc(pmul(punct, point.num), point.den)
    return _sign_factor(germ, action, 1 if variant == "plus" else -1)


def _arc_beta(germ: MonomialGerm, action: SignAction, n: int, variant: str) -> RatFunc:
    """W * sum_m counts[n][m] u^(n d - m), read off row n of the table."""
    _require_invariant(germ, action)
    if n < 1:
        raise ValueError("arc order must be positive")
    row = _order_counts(germ, n)[n]
    affine = [0] * (n * germ.d - len(row) + 1) + row[::-1]
    wfac = _leading_factor(germ, action, variant)
    return RatFunc(pmul(wfac.num, affine), wfac.den)


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
        return RatFunc(0)
    if action.trivial:
        return RatFunc.monomial(s_count - 1, solvable)
    if all(action.eps[i] == 1 for i in support):
        # every solvable orthant is pointwise fixed
        return RatFunc.monomial(s_count, solvable) / _U_MINUS_1
    # the involution flips at least one support sign, so solvable orthants
    # come in free swapped pairs
    return RatFunc.monomial(s_count - 1, solvable // 2)


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

    With top = n // min N_i, that coefficient is
    W.num * sum_m counts[n][m] u^(top - m) / (W.den * u^top): one
    canonicalisation per order, and W once per call.
    """
    if variant not in ("naive", "plus", "minus"):
        raise ValueError(f"bad variant {variant!r}")
    _require_invariant(germ, action)
    if order < 0:
        raise ValueError("order must be non-negative")
    counts = _order_counts(germ, order)
    wfac = _leading_factor(germ, action, variant)
    return TSeries(
        [RatFunc(pmul(wfac.num, row[::-1]), (0,) * (len(row) - 1) + wfac.den)
         for row in counts]
    )
