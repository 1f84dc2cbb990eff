"""Built-in resolution-data fixtures for the worked examples.

Each fixture transcribes one worked example's resolution tree: divisor
multiplicities exactly as drawn, the involution's action on divisors, and the
stratum values assembled from catalog atoms.  Parametric families are
addressed by name, e.g. ``x2k_Z2(2)``, ``gk(4,+,-)`` (or the short form
``gk(4,-)`` for the sign of the y^2 term), ``hk(5,-)``.
"""

from __future__ import annotations

import re
from typing import List

from .errors import UnknownFixture
from .gspace import Atom, ClosedComplement, DisjointUnion
from .resolution import MAX_DIVISORS, Divisor, GroupSpec, ResolutionData, StratumEntry

_PT = Atom("point_fixed")
_PAIR = Atom("point_pair_swapped")
_CIRCLE = Atom("circle_with_fixed_point")
_PT_TRIV = Atom("point_trivial")
_CIRCLE_TRIV = Atom("circle_trivial")


def _circle_minus(*removed):
    """Circle with fixed points, minus the listed closed pieces."""
    if not removed:
        return _CIRCLE
    return ClosedComplement(_CIRCLE, DisjointUnion(*removed))


def _y4_x2() -> ResolutionData:
    # two blowups; the swapped pair is where the strict transform meets the
    # second exceptional divisor
    return ResolutionData(
        name="y4-x2_Z2",
        divisors=(
            Divisor(1, N=2, nu=2, zero_fiber=True),
            Divisor(2, N=4, nu=3, zero_fiber=True),
            Divisor(3, N=1, nu=1),
            Divisor(4, N=1, nu=1),
        ),
        group=GroupSpec(order=2, generators=((1, 2, 4, 3),)),
        strata=(
            StratumEntry({1}, _circle_minus(_PT)),
            StratumEntry({2}, _circle_minus(_PT, _PAIR)),
            StratumEntry({1, 2}, _PT),
            StratumEntry({2, 3}, _PAIR),
        ),
    )


def _x4_y2() -> ResolutionData:
    # same tree, but the strict transform meets the exceptional locus in two
    # points that are individually fixed
    return ResolutionData(
        name="x4-y2_Z2",
        divisors=(
            Divisor(1, N=2, nu=2, zero_fiber=True),
            Divisor(2, N=4, nu=3, zero_fiber=True),
            Divisor(3, N=1, nu=1),
            Divisor(4, N=1, nu=1),
        ),
        group=GroupSpec(order=2, generators=((1, 2, 3, 4),)),
        strata=(
            StratumEntry({1}, _circle_minus(_PT)),
            StratumEntry({2}, _circle_minus(_PT, _PT, _PT)),
            StratumEntry({1, 2}, _PT),
            StratumEntry({2, 3}, _PT),
            StratumEntry({2, 4}, _PT),
        ),
    )


def _trivial_reencoding(name: str) -> ResolutionData:
    """The same two trees with the group forgotten (classical values)."""
    def circ_minus(k):
        if k == 0:
            return _CIRCLE_TRIV
        return ClosedComplement(_CIRCLE_TRIV, DisjointUnion(*[_PT_TRIV] * k))

    return ResolutionData(
        name=name,
        divisors=(
            Divisor(1, N=2, nu=2, zero_fiber=True),
            Divisor(2, N=4, nu=3, zero_fiber=True),
            Divisor(3, N=1, nu=1),
            Divisor(4, N=1, nu=1),
        ),
        group=GroupSpec(order=1, generators=()),
        strata=(
            StratumEntry({1}, circ_minus(1)),
            StratumEntry({2}, circ_minus(3)),
            StratumEntry({1, 2}, _PT_TRIV),
            StratumEntry({2, 3}, _PT_TRIV),
            StratumEntry({2, 4}, _PT_TRIV),
        ),
    )


def _x2_plus_y2() -> ResolutionData:
    # one blowup; the positive-leading-coefficient cover is a Moebius-band
    # boundary with a non-free action, the negative one is empty
    return ResolutionData(
        name="x2+y2_Z2",
        divisors=(Divisor(1, N=2, nu=2, zero_fiber=True),),
        group=GroupSpec(order=2, generators=((1,),)),
        strata=(
            StratumEntry({1}, _CIRCLE, beta_plus=_CIRCLE, beta_minus=None),
        ),
    )


def _minus_x2_minus_y4() -> ResolutionData:
    # two exceptional circles through one fixed point; the germ is negative,
    # so only the minus covers are populated (each a Moebius-band boundary
    # minus two fixed points; two fixed points over the intersection)
    return ResolutionData(
        name="-x2-y4_Z2",
        divisors=(
            Divisor(1, N=2, nu=2, zero_fiber=True),
            Divisor(2, N=4, nu=3, zero_fiber=True),
        ),
        group=GroupSpec(order=2, generators=((1, 2),)),
        strata=(
            StratumEntry(
                {1},
                _circle_minus(_PT),
                beta_minus=_circle_minus(_PT, _PT),
            ),
            StratumEntry(
                {2},
                _circle_minus(_PT),
                beta_minus=_circle_minus(_PT, _PT),
            ),
            StratumEntry({1, 2}, _PT, beta_minus=DisjointUnion(_PT, _PT)),
        ),
    )


def _x2k(k: int) -> ResolutionData:
    # one-dimensional germ x^(2k); the origin is the single "divisor" with
    # trivial jacobian, and the leading-coefficient cover is a swapped pair
    return ResolutionData(
        name=f"x2k_Z2({k})",
        divisors=(Divisor(1, N=2 * k, nu=1, zero_fiber=True),),
        group=GroupSpec(order=2, generators=((1,),)),
        strata=(
            StratumEntry({1}, _PT, beta_plus=_PAIR, beta_minus=None),
        ),
    )


def _a_boundary() -> ResolutionData:
    # chain E2-E3-E4-E1 with the strict transform (id 5) on E4; stratum
    # values chosen to reproduce this family's known closed form
    return ResolutionData(
        name="A-boundary_f",
        divisors=(
            Divisor(1, N=3, nu=2, zero_fiber=True),
            Divisor(2, N=4, nu=3, zero_fiber=True),
            Divisor(3, N=8, nu=5, zero_fiber=True),
            Divisor(4, N=12, nu=7, zero_fiber=True),
            Divisor(5, N=1, nu=1),
        ),
        group=GroupSpec(order=2, generators=((1, 2, 3, 4, 5),)),
        strata=(
            StratumEntry({1}, _circle_minus(_PT)),
            StratumEntry({2}, _circle_minus(_PT)),
            StratumEntry({3}, _circle_minus(_PT)),
            StratumEntry({4}, _circle_minus(_PT, _PT)),
            StratumEntry({2, 3}, _PT),
            StratumEntry({3, 4}, _PT),
            StratumEntry({1, 4}, _PT),
            StratumEntry({4, 5}, _PT),
        ),
    )


def _gk(k: int, sx: str, sy: str) -> ResolutionData:
    """Chain of k exceptional divisors E_j(2j, j+1) for sx*x^(2k) + sy*y^2."""
    if not 3 <= k <= MAX_DIVISORS:  # at least k divisors
        raise UnknownFixture(f"gk fixtures require 3 <= k <= {MAX_DIVISORS}")
    mixed = sx != sy  # strict transform exists only for the mixed signs
    divisors = [Divisor(j, N=2 * j, nu=j + 1, zero_fiber=True) for j in range(1, k + 1)]
    strata: List[StratumEntry] = [StratumEntry({1}, _circle_minus(_PT))]
    for j in range(2, k):
        strata.append(StratumEntry({j}, _circle_minus(_PT, _PT)))
    if not mixed:
        gens = (tuple(range(1, k + 1)),)
        strata.append(StratumEntry({k}, _circle_minus(_PT)))
    else:
        divisors.append(Divisor(k + 1, N=1, nu=1))
        divisors.append(Divisor(k + 2, N=1, nu=1))
        if k % 2 == 1:
            # the involution exchanges the two branch points on E_k
            gens = (tuple(range(1, k + 1)) + (k + 2, k + 1),)
            strata.append(StratumEntry({k}, _circle_minus(_PT, _PAIR)))
        else:
            gens = (tuple(range(1, k + 3)),)
            strata.append(StratumEntry({k}, _circle_minus(_PT, _PT, _PT)))
    for j in range(1, k):
        strata.append(StratumEntry({j, j + 1}, _PT))
    if mixed:
        if k % 2 == 1:
            strata.append(StratumEntry({k, k + 1}, _PAIR))
        else:
            strata.append(StratumEntry({k, k + 1}, _PT))
            strata.append(StratumEntry({k, k + 2}, _PT))
    return ResolutionData(
        name=f"gk({k},{sx},{sy})",
        divisors=tuple(divisors),
        group=GroupSpec(order=2, generators=gens),
        strata=tuple(strata),
    )


def _hk(k: int, sign: str) -> ResolutionData:
    """Chains E_j(2j+1, j+1) for x^2 y + sign * y^k."""
    if not 3 <= k <= 2 * MAX_DIVISORS + 1:  # at least (k - 1) / 2 divisors
        raise UnknownFixture(f"hk fixtures require 3 <= k <= {2 * MAX_DIVISORS + 1}")
    if k % 2 == 1:
        p = (k - 1) // 2
        divisors = [
            Divisor(j, N=2 * j + 1, nu=j + 1, zero_fiber=True) for j in range(1, p + 1)
        ]
        strata: List[StratumEntry] = []
        for j in range(1, p + 1):
            removed = []
            if j > 1:
                removed.append(_PT)
            if j < p:
                removed.append(_PT)
            if j == p and sign == "-":
                removed.append(_PAIR)
            strata.append(StratumEntry({j}, _circle_minus(*removed)))
        for j in range(1, p):
            strata.append(StratumEntry({j, j + 1}, _PT))
        if sign == "-":
            # two swapped branches of the strict transform on E_p
            divisors.append(Divisor(p + 1, N=1, nu=1))
            divisors.append(Divisor(p + 2, N=1, nu=1))
            gens = (tuple(range(1, p + 1)) + (p + 2, p + 1),)
            strata.append(StratumEntry({p, p + 1}, _PAIR))
        else:
            gens = (tuple(range(1, p + 1)),)
        return ResolutionData(
            name=f"hk({k},{sign})",
            divisors=tuple(divisors),
            group=GroupSpec(order=2, generators=gens),
            strata=tuple(strata),
        )
    # k = 2p: the last two centers stack E_p(k, p+1) and E_{p+1}(2k, k+1),
    # every intersection point fixed, one strict-transform branch
    p = k // 2
    divisors = [
        Divisor(j, N=2 * j + 1, nu=j + 1, zero_fiber=True) for j in range(1, p)
    ]
    divisors.append(Divisor(p, N=k, nu=p + 1, zero_fiber=True))
    divisors.append(Divisor(p + 1, N=2 * k, nu=k + 1, zero_fiber=True))
    divisors.append(Divisor(p + 2, N=1, nu=1))
    strata = []
    for j in range(1, p):
        removed = []
        if j > 1:
            removed.append(_PT)
        if j < p - 1:
            removed.append(_PT)
        if j == p - 1:
            removed.append(_PT)  # meets E_{p+1}
        strata.append(StratumEntry({j}, _circle_minus(*removed)))
    strata.append(StratumEntry({p}, _circle_minus(_PT)))
    strata.append(StratumEntry({p + 1}, _circle_minus(_PT, _PT, _PT)))
    for j in range(1, p - 1):
        strata.append(StratumEntry({j, j + 1}, _PT))
    strata.append(StratumEntry({p - 1, p + 1}, _PT))
    strata.append(StratumEntry({p, p + 1}, _PT))
    strata.append(StratumEntry({p + 1, p + 2}, _PT))
    return ResolutionData(
        name=f"hk({k},{sign})",
        divisors=tuple(divisors),
        group=GroupSpec(order=2, generators=(tuple(range(1, p + 3)),)),
        strata=tuple(strata),
    )


_FIXED_BUILDERS = {
    "y4-x2_Z2": _y4_x2,
    "x4-y2_Z2": _x4_y2,
    "y4-x2_triv": lambda: _trivial_reencoding("y4-x2_triv"),
    "x4-y2_triv": lambda: _trivial_reencoding("x4-y2_triv"),
    "x2+y2_Z2": _x2_plus_y2,
    "-x2-y4_Z2": _minus_x2_minus_y4,
    "A-boundary_f": _a_boundary,
}

_X2K_RE = re.compile(r"^x2k_Z2\((\d{1,18})\)$")
_GK_RE = re.compile(r"^gk\((\d{1,18}),([+-]),([+-])\)$")
_GK_SHORT_RE = re.compile(r"^gk\((\d{1,18}),([+-])\)$")
_HK_RE = re.compile(r"^hk\((\d{1,18}),([+-])\)$")


def get(name: str) -> ResolutionData:
    """Fixture by name; UnknownFixture if the name matches nothing."""
    if name in _FIXED_BUILDERS:
        return _FIXED_BUILDERS[name]()
    m = _X2K_RE.match(name)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise UnknownFixture("x2k_Z2 requires k >= 1")
        return _x2k(k)
    m = _GK_RE.match(name)
    if m:
        return _gk(int(m.group(1)), m.group(2), m.group(3))
    m = _GK_SHORT_RE.match(name)
    if m:
        # short form fixes the sign of y^2; the x-sign is then +
        return _gk(int(m.group(1)), "+", m.group(2))
    m = _HK_RE.match(name)
    if m:
        return _hk(int(m.group(1)), m.group(2))
    raise UnknownFixture(f"unknown fixture {name!r}")


def names() -> List[str]:
    """Fixed fixture names followed by the parametric family patterns."""
    return list(_FIXED_BUILDERS) + [
        "x2k_Z2(k)",
        "gk(k,+,-)",
        "gk(k,-,+)",
        "gk(k,+,+)",
        "gk(k,-,-)",
        "hk(k,+)",
        "hk(k,-)",
    ]


def sample_names() -> List[str]:
    """A concrete instantiation of every family, for test sweeps."""
    out = list(_FIXED_BUILDERS)
    out += [f"x2k_Z2({k})" for k in (1, 2, 3, 4)]
    out += [f"gk({k},+,-)" for k in (3, 4, 5)]
    out += ["gk(3,+,+)", "gk(4,-,-)"]
    out += ["hk(3,-)", "hk(3,+)", "hk(4,-)", "hk(5,-)", "hk(6,+)"]
    return out
