"""Symbolic G-space expressions and their equivariant virtual Poincare series.

Expressions are built from a catalog of atoms (spaces whose series is known)
and the closure operations the theory actually provides: finite disjoint
unions, complements of closed invariant subsets, products with affine spaces,
and products with punctured lines.  There is deliberately no general binary
product: the series is not known to be multiplicative beyond those two rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Tuple, Union

from .errors import SchemaError, UnknownAtom
from .ratpoly import RatFunc, _laurent_over, padd, pmul, pneg, ppow


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Rational:
    value: RatFunc


@dataclass(frozen=True)
class DisjointUnion:
    parts: Tuple["GSpace", ...]

    def __init__(self, *parts):
        object.__setattr__(self, "parts", tuple(parts))


@dataclass(frozen=True)
class ClosedComplement:
    """whole minus a closed invariant part; series subtract."""

    whole: "GSpace"
    closed_part: "GSpace"


@dataclass(frozen=True)
class ProductWithAffine:
    """base x R^n (any action on the affine factor): series times u^n."""

    base: "GSpace"
    n: int


@dataclass(frozen=True)
class ProductWithPuncturedLines:
    """base x (R*)^m (actions stabilizing 0): series times (u-1)^m."""

    base: "GSpace"
    m: int


GSpace = Union[
    Atom, Rational, DisjointUnion, ClosedComplement, ProductWithAffine,
    ProductWithPuncturedLines,
]


# -- atom catalog -----------------------------------------------------------
#
# Equivariant values are for a nontrivial finite group action (the action is
# implicit in the atom name); the *_trivial atoms carry the classical virtual
# Poincare polynomial values used when the group is trivial.

_POINT = RatFunc((0, 1), (-1, 1))                 # u/(u-1)
_CIRCLE_FIXED = RatFunc((0, 1, 1), (-1, 1))       # u + 2u/(u-1)

_FIXED_ATOMS = {
    "point_fixed": _POINT,
    "point_pair_swapped": RatFunc(1),
    "circle_with_fixed_point": _CIRCLE_FIXED,
    "projective_line_G": _CIRCLE_FIXED,
    "sphere_free": RatFunc((1, 1, 1)),
    "sphere_with_fixed_point": RatFunc((0, 1, 0, 1), (-1, 1)),
    "point_trivial": RatFunc(1),
    "circle_trivial": RatFunc((1, 1)),
}

# one shared node for each fixed atom, for the parser
_FIXED_ATOM_NODES = {name: Atom(name) for name in _FIXED_ATOMS}

# affine(n), affine_trivial(n), product_affine n and product_punctured m cost
# work in proportion to their size, so all are capped at MAX_AFFINE.
MAX_AFFINE = 256
# Parsing and evaluation recurse once per level of an expression.
MAX_DEPTH = 64

_AFFINE_RE = re.compile(r"^affine(_trivial)?\((\d+)\)$")


def atom_value(name: str) -> RatFunc:
    """Series of a catalog atom; UnknownAtom for anything else.
    affine_trivial(n) is u^n and affine(n) is u^(n+1)/(u-1), both built
    canonical by ``ratpoly._laurent_over``, with no gcd step."""
    if name in _FIXED_ATOMS:
        return _FIXED_ATOMS[name]
    m = _AFFINE_RE.match(name)
    if m is None:
        raise UnknownAtom(f"unknown atom {name!r}")
    trivial, digits = m.groups()
    if len(digits) > 9 or int(digits) > MAX_AFFINE:
        raise UnknownAtom(f"atom {name!r}: affine dimension above {MAX_AFFINE}")
    if trivial:
        return _laurent_over(int(digits), (1,), (1,))
    return _laurent_over(int(digits) + 1, (1,), (-1, 1))


def beta_value(expr: GSpace) -> RatFunc:
    """Evaluate the equivariant virtual Poincare series of an expression,
    canonicalised once, by ``ratpoly._laurent_over``: catalog values lie
    over 1 or u - 1 and take no gcd step."""
    return _laurent_over(0, *_unreduced(expr))


def _sum(a: tuple, b: tuple) -> tuple:
    """(num, den) of a + b for (num, den) pairs: numerators add over an equal
    denominator, or over the other side's when one side's is 1, and any
    other sum is reduced, so degrees stay bounded."""
    if not a[0]:
        return b
    if not b[0]:
        return a
    if a[1] == b[1]:
        return padd(a[0], b[0]), a[1]
    if a[1] == (1,):
        return padd(pmul(a[0], b[1]), b[0]), b[1]
    if b[1] == (1,):
        return padd(a[0], pmul(b[0], a[1])), a[1]
    total = RatFunc(padd(pmul(a[0], b[1]), pmul(b[0], a[1])), pmul(a[1], b[1]))
    return total.num, total.den


def _unreduced(expr: GSpace) -> tuple:
    """The series of an expression as a (num, den) pair, not reduced."""
    if isinstance(expr, Atom):
        value = atom_value(expr.name)
        return value.num, value.den
    if isinstance(expr, Rational):
        return expr.value.num, expr.value.den
    if isinstance(expr, DisjointUnion):
        total = (), (1,)
        for part in expr.parts:
            total = _sum(total, _unreduced(part))
        return total
    if isinstance(expr, ClosedComplement):
        num, den = _unreduced(expr.closed_part)
        return _sum(_unreduced(expr.whole), (pneg(num), den))
    if isinstance(expr, ProductWithAffine):
        if expr.n < 0:
            raise ValueError("affine factor dimension must be non-negative")
        num, den = _unreduced(expr.base)
        if num:
            num = (0,) * expr.n + num
        return num, den
    if isinstance(expr, ProductWithPuncturedLines):
        if expr.m < 0:
            raise ValueError("punctured-line count must be non-negative")
        num, den = _unreduced(expr.base)
        return pmul(num, ppow((-1, 1), expr.m)), den
    raise TypeError(f"not a G-space expression: {expr!r}")


# -- serialization -----------------------------------------------------------

def expr_to_json(expr: GSpace) -> dict:
    if isinstance(expr, Atom):
        return {"kind": "atom", "name": expr.name}
    if isinstance(expr, Rational):
        return {"kind": "rational", "value": expr.value.to_json()}
    if isinstance(expr, DisjointUnion):
        return {"kind": "disjoint_union", "parts": [expr_to_json(p) for p in expr.parts]}
    if isinstance(expr, ClosedComplement):
        return {
            "kind": "closed_complement",
            "whole": expr_to_json(expr.whole),
            "closed_part": expr_to_json(expr.closed_part),
        }
    if isinstance(expr, ProductWithAffine):
        return {"kind": "product_affine", "base": expr_to_json(expr.base), "n": expr.n}
    if isinstance(expr, ProductWithPuncturedLines):
        return {"kind": "product_punctured", "base": expr_to_json(expr.base), "m": expr.m}
    raise TypeError(f"not a G-space expression: {expr!r}")


def expr_from_json(obj, depth: int = 1) -> GSpace:
    """Expression from JSON; SchemaError for a malformed one, or one nested
    more than MAX_DEPTH levels deep."""
    if depth > MAX_DEPTH:
        raise SchemaError(f"G-space expression nested more than {MAX_DEPTH} levels")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("G-space expression must be an object with a 'kind'")
    sub = depth + 1
    kind = obj["kind"]
    if kind == "atom":
        name = obj.get("name")
        if not isinstance(name, str):
            raise SchemaError("atom needs a string 'name'")
        if name in _FIXED_ATOM_NODES:
            return _FIXED_ATOM_NODES[name]
        try:
            atom_value(name)  # rejects unknown names early
        except UnknownAtom as exc:
            raise SchemaError(str(exc)) from exc
        return Atom(name)
    if kind == "rational":
        return Rational(RatFunc.from_json(obj.get("value")))
    if kind == "disjoint_union":
        parts = obj.get("parts")
        if not isinstance(parts, list):
            raise SchemaError("disjoint_union needs a 'parts' array")
        return DisjointUnion(*[expr_from_json(p, sub) for p in parts])
    if kind == "closed_complement":
        whole, part = obj.get("whole"), obj.get("closed_part")
        return ClosedComplement(expr_from_json(whole, sub), expr_from_json(part, sub))
    if kind == "product_affine":
        n = obj.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= MAX_AFFINE:
            raise SchemaError(f"product_affine needs an integer 'n' in 0..{MAX_AFFINE}")
        return ProductWithAffine(expr_from_json(obj.get("base"), sub), n)
    if kind == "product_punctured":
        m = obj.get("m")
        if not isinstance(m, int) or isinstance(m, bool) or not 0 <= m <= MAX_AFFINE:
            raise SchemaError(f"product_punctured needs an integer 'm' in 0..{MAX_AFFINE}")
        return ProductWithPuncturedLines(expr_from_json(obj.get("base"), sub), m)
    raise SchemaError(f"unknown G-space expression kind {kind!r}")
