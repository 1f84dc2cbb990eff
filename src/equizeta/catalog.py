"""Built-in resolution-data fixtures for the worked examples.

Each fixture is one worked example's resolution tree: divisor multiplicities
exactly as drawn, the involution's action on divisors, and the stratum values
assembled from catalog atoms.  ``_chain`` builds every tree that is a chain
of exceptional circles (y4-x2, x4-y2, x2+y2, -x2-y4, gk, hk) by one rule,
from the chain, the branch kinds of the strict transform and, for a germ of
one sign, that sign.  Written out by hand are x2k_Z2, whose one divisor is a
point, and A-boundary_f, whose values were fitted to a closed form and break
the chain rule.  Parametric families are addressed by name,
e.g. ``x2k_Z2(2)``, ``gk(4,+,-)`` (or the short form ``gk(4,-)`` for the
sign of the y^2 term), ``hk(5,-)``.
"""

from __future__ import annotations

import re
from typing import List

from .errors import UnknownFixture
from .gspace import _FIXED_ATOM_NODES, ClosedComplement, DisjointUnion
from .resolution import MAX_DIVISORS, Divisor, GroupSpec, ResolutionData, StratumEntry

# the parser's own atom nodes, so built-in and parsed trees share their atoms
_PT = _FIXED_ATOM_NODES["point_fixed"]
_PAIR = _FIXED_ATOM_NODES["point_pair_swapped"]
_CIRCLE = _FIXED_ATOM_NODES["circle_with_fixed_point"]
_PT_TRIV = _FIXED_ATOM_NODES["point_trivial"]
_CIRCLE_TRIV = _FIXED_ATOM_NODES["circle_trivial"]


def _circle_minus(*removed, circle=_CIRCLE):
    """The circle, minus the listed closed pieces."""
    if not removed:
        return circle
    return ClosedComplement(circle, DisjointUnion(*removed))


def _chain(name, chain, at=None, branches=(), trivial=False, sign=None) -> ResolutionData:
    """A chain of exceptional circles and the strict transform's branches.

    ``chain`` lists the exceptional divisors (id, N, nu), ids 1 to n, in
    chain order, and the branches' divisors take the next ids.  The strict
    transform meets divisor ``at`` in ``branches``, each "fixed" (one
    fixed point, one new N = nu = 1 divisor) or "pair" (two points the
    involution swaps, two new divisors).  Each divisor's stratum is its circle
    minus one fixed point per chain neighbour and its branch points; then come
    the crossings in chain order and the branch crossings.  The involution
    fixes every divisor but the swapped pairs; ``trivial`` forgets it (order
    1, classical atoms).  With no strict transform the germ has one sign,
    ``sign`` ("+" or "-"), and that sign's cover over each stratum is its
    double cover with fixed fibres: two fixed points over a crossing point,
    the circle minus 2k fixed points over the circle minus k.  The other
    sign's cover stays absent.
    """
    circle, pt = (_CIRCLE_TRIV, _PT_TRIV) if trivial else (_CIRCLE, _PT)

    def covers(c):  # (beta_plus, beta_minus): c as the sign's cover
        return () if sign is None else (c, None) if sign == "+" else (None, c)

    ids = [i for i, _, _ in chain]
    two = None if sign is None else DisjointUnion(pt, pt)
    crossings = [StratumEntry(frozenset((a, b)), pt, *covers(two)) for a, b in zip(ids, ids[1:])]
    image = sorted(ids)  # the generator: each id's image, in id order
    points = []  # where the strict transform meets E_at
    for kind in branches:
        new = len(image) + 1
        if kind == "pair":
            image += [new + 1, new]
            points.append(_PAIR)
            crossings.append(StratumEntry(frozenset((at, new)), _PAIR))
        else:
            image.append(new)
            points.append(pt)
            crossings.append(StratumEntry(frozenset((at, new)), pt))
    # the circle minus k fixed points, shared and built once for each k that
    # a stratum uses: k for a divisor with k chain neighbours, 2k for the
    # sign's cover over it
    neighbours = {i: (i != ids[0]) + (i != ids[-1]) for i in ids}
    used = set(neighbours.values())
    if sign is not None:
        used |= {2 * k for k in used}
    minus = {k: _circle_minus(*[pt] * k, circle=circle) for k in used}
    strata = []
    for i in sorted(ids):
        k = neighbours[i]
        value = _circle_minus(*[pt] * k, *points, circle=circle) if i == at else minus[k]
        strata.append(StratumEntry(frozenset((i,)), value, *covers(minus.get(2 * k))))
    divisors = [Divisor(i, N, nu, zero_fiber=True) for i, N, nu in sorted(chain)]
    divisors += [Divisor(i, N=1, nu=1) for i in range(len(ids) + 1, len(image) + 1)]
    group = GroupSpec(1) if trivial else GroupSpec(2, (tuple(image),))
    return ResolutionData(name, tuple(divisors), group, tuple(strata + crossings))


# y^4 - x^2 and x^4 - y^2 under (x, y) -> (-x, y): two blowups
_TWO_BLOWUPS = ((1, 2, 2), (2, 4, 3))


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
    """Chain of k exceptional divisors E_j(2j, j+1) for sx*x^(2k) + sy*y^2.

    Only the mixed signs have a strict transform: it meets E_k in a pair the
    involution swaps for odd k, and in two fixed points for even k."""
    if not 3 <= k <= MAX_DIVISORS:  # at least k divisors
        raise UnknownFixture(f"gk fixtures require 3 <= k <= {MAX_DIVISORS}")
    if sx != sy and k + 2 > MAX_DIVISORS:  # and two for the branches
        raise UnknownFixture(
            f"gk({k},{sx},{sy}) would have {k + 2} divisors, more than {MAX_DIVISORS}: "
            f"gk(k,{sx},{sy}) fixtures require 3 <= k <= {MAX_DIVISORS - 2}"
        )
    chain = [(j, 2 * j, j + 1) for j in range(1, k + 1)]
    branches = () if sx == sy else ("pair",) if k % 2 else ("fixed", "fixed")
    return _chain(f"gk({k},{sx},{sy})", chain, k, branches)


def _hk(k: int, sign: str) -> ResolutionData:
    """Chains E_j(2j+1, j+1) for x^2 y + sign * y^k."""
    if not 3 <= k <= 2 * MAX_DIVISORS + 1:  # at least (k - 1) / 2 divisors
        raise UnknownFixture(f"hk fixtures require 3 <= k <= {2 * MAX_DIVISORS + 1}")
    p = k // 2
    # p divisors for odd k, and two for the branches of hk(k,-); for even
    # k, p - 1 lead to the last two and one branch
    divisors = p + 2 if k % 2 == 0 or sign == "-" else p
    if divisors > MAX_DIVISORS:
        span = (f"3 <= k <= {2 * MAX_DIVISORS + 1}, and k <= {2 * MAX_DIVISORS - 4} for even k"
                if sign == "+" else f"3 <= k <= {2 * MAX_DIVISORS - 3}")
        raise UnknownFixture(
            f"hk({k},{sign}) would have {divisors} divisors, more than {MAX_DIVISORS}: "
            f"hk(k,{sign}) fixtures require {span}"
        )
    # E_1 .. E_p for odd k; for even k, E_1 .. E_(p-1) lead to the last two
    chain = [(j, 2 * j + 1, j + 1) for j in range(1, p + (k % 2))]
    if k % 2:
        # for sign -, two swapped branches of the strict transform on E_p
        return _chain(f"hk({k},{sign})", chain, p, ("pair",) if sign == "-" else ())
    # k = 2p: the last two centers stack E_p(k, p+1) and E_{p+1}(2k, k+1),
    # so the chain ends E_{p-1} - E_{p+1} - E_p, with one strict-transform
    # branch through a fixed point of E_{p+1}
    chain += [(p + 1, 2 * k, k + 1), (p, k, p + 1)]
    return _chain(f"hk({k},{sign})", chain, p + 1, ("fixed",))


_FIXED_BUILDERS = {
    "y4-x2_Z2": lambda: _chain("y4-x2_Z2", _TWO_BLOWUPS, 2, ("pair",)),
    "x4-y2_Z2": lambda: _chain("x4-y2_Z2", _TWO_BLOWUPS, 2, ("fixed", "fixed")),
    # the same two trees with the group forgotten (classical values)
    "y4-x2_triv": lambda: _chain("y4-x2_triv", _TWO_BLOWUPS, 2, ("fixed", "fixed"), True),
    "x4-y2_triv": lambda: _chain("x4-y2_triv", _TWO_BLOWUPS, 2, ("fixed", "fixed"), True),
    # one blowup of x^2 + y^2 and two of -x^2 - y^4, each germ of one sign
    "x2+y2_Z2": lambda: _chain("x2+y2_Z2", [(1, 2, 2)], sign="+"),
    "-x2-y4_Z2": lambda: _chain("-x2-y4_Z2", _TWO_BLOWUPS, sign="-"),
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
