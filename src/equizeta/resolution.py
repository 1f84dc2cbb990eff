"""Equivariant resolution data: divisors, a permutation action, strata values.

This is the input side of the zeta engine.  A divisor carries the two
multiplicities (N, nu) of the pulled-back germ and of the jacobian (plus
one), and a flag saying whether it lies over the origin.  A finite group acts
by permutations of the divisors that preserve those multiplicities, and each
stratum entry attaches a symbolic G-space value to one representative of a
G-orbit of divisor subsets.

Strata values are inputs, not derived from geometry: each worked example
computes them by its own geometric argument, and this package only consumes
the result.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from . import gspace
from .errors import InvalidResolution, ParseError, SchemaError

MAX_DIVISORS = 64
# Orbits come from enumerating the group the generators span, one
# permutation at a time, and the declared order bounds that enumeration.
MAX_GROUP_ORDER = 1024


@dataclass(frozen=True)
class Divisor:
    id: int
    N: int
    nu: int
    zero_fiber: bool = False

    def __post_init__(self):
        if self.N < 1 or self.nu < 1:
            raise ValueError("divisor multiplicities must be >= 1")


@dataclass(frozen=True)
class GroupSpec:
    """Finite group given by its order and generator permutations.

    A generator lists the image of every divisor id in ascending-id order.
    An empty generator tuple encodes a group acting trivially on divisors
    (the order may still exceed 1; the action lives in the strata values).
    """

    order: int
    generators: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("group order must be positive")
        gens = self.generators
        if type(gens) is not tuple or any(type(g) is not tuple for g in gens):
            object.__setattr__(self, "generators", tuple(tuple(g) for g in gens))


@dataclass(frozen=True)
class StratumEntry:
    divisors: FrozenSet[int]
    beta: gspace.GSpace
    beta_plus: Optional[gspace.GSpace] = None
    beta_minus: Optional[gspace.GSpace] = None

    def __post_init__(self):
        if type(self.divisors) is not frozenset:
            object.__setattr__(self, "divisors", frozenset(self.divisors))


@dataclass(frozen=True)
class ResolutionData:
    name: str
    divisors: Tuple[Divisor, ...]
    group: GroupSpec
    strata: Tuple[StratumEntry, ...]

    def __post_init__(self):
        if type(self.divisors) is not tuple:
            object.__setattr__(self, "divisors", tuple(self.divisors))
        if type(self.strata) is not tuple:
            object.__setattr__(self, "strata", tuple(self.strata))

    def divisor_map(self) -> Dict[int, Divisor]:
        return {d.id: d for d in self.divisors}


# ---------------------------------------------------------------------------
# group action on divisor ids and on subsets
# ---------------------------------------------------------------------------

def _generator_maps(res: ResolutionData) -> List[Dict[int, int]]:
    ids = sorted(d.id for d in res.divisors)
    maps = []
    for gen in res.group.generators:
        if len(gen) != len(ids):
            raise SchemaError(
                f"generator {gen!r} must list an image for each of {len(ids)} divisors"
            )
        maps.append(dict(zip(ids, gen)))
    return maps


def generated_group(res: ResolutionData) -> List[Dict[int, int]]:
    """All permutations generated by the declared generators (with identity).

    By Lagrange the generated group has at most the declared order, so the
    closure stops with InvalidResolution once it holds more permutations than
    that order (or than MAX_GROUP_ORDER).  The closure runs on each
    permutation's images of the ids in ascending order; the identity comes
    first.
    """
    limit = min(res.group.order, MAX_GROUP_ORDER)
    ids = sorted(d.id for d in res.divisors)
    gens = _generator_maps(res)
    seen = dict.fromkeys([tuple(ids)])
    frontier = list(seen)
    while frontier:
        current = frontier.pop()
        for gen in gens:
            key = tuple([gen.get(i, i) for i in current])
            if key not in seen:
                seen[key] = None
                if len(seen) > limit:
                    raise InvalidResolution([f"generators span more than {limit} permutations"])
                frontier.append(key)
    return [dict(zip(ids, key)) for key in seen]


def subset_orbit(subset: FrozenSet[int], group: List[Dict[int, int]]):
    """Orbit of a divisor subset under the generated group."""
    return {frozenset(g[i] for i in subset) for g in group}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(res: ResolutionData) -> List[str]:
    """Every violated invariant as one diagnostic string; empty means valid."""
    diags = []
    ids = [d.id for d in res.divisors]
    id_set = set(ids)
    if len(id_set) != len(ids):
        diags.append("duplicate divisor ids")
        return diags
    if len(ids) > MAX_DIVISORS:
        diags.append(f"more than {MAX_DIVISORS} divisors")
    if res.group.order > MAX_GROUP_ORDER:
        diags.append(f"group order above {MAX_GROUP_ORDER}")
    kinds = {d.id: (d.N, d.nu, d.zero_fiber) for d in res.divisors}
    ascending = sorted(ids)

    generators_ok = True
    for gi, gen in enumerate(res.group.generators):
        if len(gen) != len(ids) or set(gen) != id_set:
            diags.append(f"generator {gi} is not a bijection on divisor ids")
            generators_ok = False
            continue
        for i, j in zip(ascending, gen):
            if kinds[i] != kinds[j]:
                diags += [
                    f"generator {gi} does not preserve {field}: divisor {i} -> {j}"
                    for field, a, b in zip(("N", "nu", "zero_fiber"), kinds[i], kinds[j])
                    if a != b
                ]

    group = None
    if generators_ok:
        try:
            group = generated_group(res)
        except InvalidResolution as exc:
            diags.extend(exc.diagnostics)
    if group is not None and res.group.order % len(group):
        # the group acts through the permutations it spans, a quotient of it;
        # by Lagrange this also covers each generator's order
        diags.append(
            f"generators span {len(group)} permutations, not dividing {res.group.order}"
        )
    zero_ids = {d.id for d in res.divisors if d.zero_fiber}
    # each element but the identity, group[0], with the divisors it moves
    others = [(g, frozenset(i for i in g if g[i] != i)) for g in group[1:]] if group else []
    # each registered stratum's own subset -> its index: the registered
    # strata lie in distinct orbits, so the first image of a new stratum found
    # here names the one stratum that shares its orbit
    declared = {}
    for si, st in enumerate(res.strata):
        subset = st.divisors
        if not subset:
            diags.append(f"stratum {si} has an empty divisor set")
            continue
        if not subset <= id_set:
            diags.append(
                f"stratum {si} references unknown divisors {sorted(subset - id_set)}"
            )
            continue
        if subset.isdisjoint(zero_ids):
            diags.append(
                f"stratum {si} does not meet the zero fiber and must be omitted"
            )
        if group is None:
            continue
        # the engine values a stratum's normal torus (R*)^I as (u-1)^|I|,
        # its class when the stabiliser of I fixes each divisor of I; so each
        # element that maps I onto itself adds the divisors of I it moves
        sj = declared.get(subset)
        moved = frozenset()
        for g, moves in others:
            if moves.isdisjoint(subset):  # g fixes I pointwise
                continue
            image = frozenset([g[i] for i in subset])
            if image == subset:
                moved |= subset & moves
            elif sj is None:
                sj = declared.get(image)
        if sj is None:
            declared[subset] = si
        else:
            diags.append(f"duplicate orbit: strata {sj} and {si} lie in the same orbit")
        if moved:
            diags.append(
                f"stratum {si}: its stabiliser permutes divisors {sorted(moved)}, "
                "and only a stabiliser that fixes each divisor of a stratum is supported"
            )
    return diags


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def resolution_to_json(res: ResolutionData) -> dict:
    strata = []
    for st in res.strata:
        entry = {"I": sorted(st.divisors), "beta": gspace.expr_to_json(st.beta)}
        if st.beta_plus is not None:
            entry["beta_plus"] = gspace.expr_to_json(st.beta_plus)
        if st.beta_minus is not None:
            entry["beta_minus"] = gspace.expr_to_json(st.beta_minus)
        strata.append(entry)
    return {
        "name": res.name,
        "group": {
            "order": res.group.order,
            "generators": [list(g) for g in res.group.generators],
        },
        "divisors": [
            {"id": d.id, "N": d.N, "nu": d.nu, "zero_fiber": d.zero_fiber}
            for d in res.divisors
        ],
        "strata": strata,
    }


def serialize(res: ResolutionData) -> bytes:
    return json.dumps(resolution_to_json(res), indent=2, sort_keys=True).encode()


_JSON_TYPES = {int: "integer", bool: "boolean", str: "string", list: "array", dict: "object"}
_REQUIRED = object()


def require(obj, key, kind, where, default=_REQUIRED):
    """``obj[key]`` checked to be of JSON type ``kind`` (a boolean is not an
    integer), else SchemaError; an absent key gives ``default`` if passed."""
    if not isinstance(obj, dict) or (key not in obj and default is _REQUIRED):
        raise SchemaError(f"{where}: missing field {key!r}")
    if key not in obj:
        return default
    value = obj[key]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError(f"{where}.{key}: expected {_JSON_TYPES[kind]}")
    return value


def resolution_from_json(obj) -> ResolutionData:
    """Resolution data from a JSON document; SchemaError at the first
    malformed field, named by its path.

    Each field takes one exact type check; only a field that fails it goes
    through ``require``, which names what is wrong or accepts the value (a
    subclass of the JSON type), so no path text is built for a well-formed
    document."""
    name = require(obj, "name", str, "resolution")
    group_obj = require(obj, "group", dict, "resolution")
    order = require(group_obj, "order", int, "group")
    if order < 1:
        raise SchemaError("group.order: must be >= 1")
    gens = []
    for gi, gen in enumerate(require(group_obj, "generators", list, "group", [])):
        if type(gen) is not list or not all(type(x) is int for x in gen):
            if not isinstance(gen, list) or any(
                isinstance(x, bool) or not isinstance(x, int) for x in gen
            ):
                raise SchemaError(f"group.generators[{gi}]: expected array of ids")
        gens.append(tuple(gen))

    divisors = []
    for di, dv in enumerate(require(obj, "divisors", list, "resolution")):
        if type(dv) is dict:
            did, N, nu = dv.get("id"), dv.get("N"), dv.get("nu")
            zf = dv.get("zero_fiber", False)
        if type(dv) is not dict or not (
            type(did) is int and type(N) is int and type(nu) is int and type(zf) is bool
        ):
            where = f"divisors[{di}]"
            did = require(dv, "id", int, where)
            N = require(dv, "N", int, where)
            nu = require(dv, "nu", int, where)
            zf = require(dv, "zero_fiber", bool, where, False)
        if N < 1 or nu < 1:
            raise SchemaError(f"divisors[{di}]: multiplicities must be >= 1")
        divisors.append(Divisor(did, N, nu, zf))
    known = {d.id for d in divisors}

    strata = []
    expr = gspace.expr_from_json
    for si, st in enumerate(require(obj, "strata", list, "resolution")):
        I = st.get("I") if type(st) is dict else None
        if type(I) is not list:
            I = require(st, "I", list, f"strata[{si}]")
        if not all(type(x) is int for x in I) and any(
            isinstance(x, bool) or not isinstance(x, int) for x in I
        ):
            raise SchemaError(f"strata[{si}].I: expected array of divisor ids")
        subset = frozenset(I)
        if not subset <= known:
            raise SchemaError(f"strata[{si}].I: unknown divisor ids {sorted(subset - known)}")
        if len(subset) != len(I):
            repeated = sorted(x for x, count in Counter(I).items() if count > 1)
            raise SchemaError(f"strata[{si}].I: repeated divisor ids {repeated}")
        beta = st.get("beta")
        if type(beta) is not dict:
            beta = require(st, "beta", dict, f"strata[{si}]")
        plus, minus = st.get("beta_plus"), st.get("beta_minus")
        strata.append(StratumEntry(
            subset,
            expr(beta),
            None if plus is None else expr(plus),
            None if minus is None else expr(minus),
        ))
    return ResolutionData(name, tuple(divisors), GroupSpec(order, tuple(gens)), tuple(strata))


def load_json(data):
    """Decode UTF-8 bytes (or take a str) and parse one JSON document.

    Raises ParseError for bytes that are not UTF-8, malformed JSON, an
    integer literal longer than Python's int conversion limit (4300 digits
    by default) and nesting deeper than the recursion limit.
    """
    try:
        if isinstance(data, (bytes, bytearray)):
            data = data.decode("utf-8")
        return json.loads(data)
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal over the digit limit
        raise ParseError(str(exc)) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc


def parse(text) -> ResolutionData:
    """Parse serialized resolution data; ParseError for unreadable JSON."""
    return resolution_from_json(load_json(text))
