"""Direct arc-space computation for invariant normal-crossing monomial germs.

For f = sign * prod x_i^(N_i) under a coordinatewise sign involution, the
truncated arcs whose composition with f has exact order n split into strata
indexed by the order vector k of the arc coordinates on the support of f
(k_i >= 1, sum k_i N_i = n).  Each stratum is a product of punctured lines
(the leading coefficients), affine spaces (the higher coefficients and the
off-support coordinates), and a point, so the two proved product rules
evaluate it exactly.  This never touches the closed-form engine, which makes
it the ground-truth oracle for the monomial fixtures.

For the signed variants the punctured-line factor is replaced by the set of
leading-coefficient tuples solving sign * prod rho_i^(N_i) = +1 or -1.  That
set is handled by orthant decomposition: an orthant is solvable exactly when
its sign pattern satisfies the equation, its solution set is a copy of
R^(|S|-1), and the involution permutes orthants through the sign flips.
Exact for constant units only, which is all a monomial germ has.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Tuple

from .errors import InvalidInput, NotInvariant
from .ratpoly import RatFunc, TSeries, pmul, ppow

_POINT = RatFunc((0, 1), (-1, 1))
_U_MINUS_1 = RatFunc.poly((-1, 1))


@dataclass(frozen=True)
class MonomialGerm:
    """f = sign * x_1^(N_1) * ... * x_d^(N_d) on (R^d, 0)."""

    exponents: Tuple[int, ...]
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))
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


def _order_vectors(exps, n):
    """All k with k_i >= 1 and sum k_i * exps_i == n (support weights only)."""
    if not exps:
        if n == 0:
            yield ()
        return
    head = exps[0]
    k = 1
    while head * k <= n - sum(exps[1:]):
        for rest in _order_vectors(exps[1:], n - head * k):
            yield (k,) + rest
        k += 1


def _affine_sum(germ, n) -> tuple:
    """Sum of u^(affine dimension) over the order vectors of arc order n, as
    an integer polynomial."""
    support = germ.support()
    weights = [germ.exponents[i] for i in support]
    off_support = n * (germ.d - len(support))
    dims = Counter(
        sum(n - ki for ki in k) + off_support for k in _order_vectors(weights, n)
    )
    coeffs = [0] * (max(dims, default=-1) + 1)
    for dim, count in dims.items():
        coeffs[dim] = count
    return tuple(coeffs)


def arc_beta_naive(germ: MonomialGerm, action: SignAction, n: int) -> RatFunc:
    """Series of the order-n arc stratum, any nonzero leading coefficient."""
    _require_invariant(germ, action)
    if n < 1:
        raise ValueError("arc order must be positive")
    point = RatFunc(1) if action.trivial else _POINT
    punct = ppow((-1, 1), len(germ.support()))
    return RatFunc(pmul(pmul(punct, point.num), _affine_sum(germ, n)), point.den)


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
    _require_invariant(germ, action)
    if n < 1:
        raise ValueError("arc order must be positive")
    wfac = _sign_factor(germ, action, 1 if sign == "plus" else -1)
    if wfac.is_zero():
        return RatFunc(0)
    return RatFunc(pmul(wfac.num, _affine_sum(germ, n)), wfac.den)


def oracle_series(
    germ: MonomialGerm, action: SignAction, variant: str, order: int
) -> TSeries:
    """Generating series through T^order, coefficient of T^n scaled by u^-nd."""
    if variant not in ("naive", "plus", "minus"):
        raise ValueError(f"bad variant {variant!r}")
    _require_invariant(germ, action)
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = [RatFunc(0)]
    for n in range(1, order + 1):
        if variant == "naive":
            beta = arc_beta_naive(germ, action, n)
        else:
            beta = arc_beta_signed(germ, action, n, variant)
        coeffs.append(beta * RatFunc.monomial(-n * germ.d))
    return TSeries(coeffs)
