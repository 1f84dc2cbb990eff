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
from dataclasses import dataclass
from math import lcm
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
        object.__setattr__(
            self, "generators", tuple(tuple(g) for g in self.generators)
        )


@dataclass(frozen=True)
class StratumEntry:
    divisors: FrozenSet[int]
    beta: gspace.GSpace
    beta_plus: Optional[gspace.GSpace] = None
    beta_minus: Optional[gspace.GSpace] = None

    def __post_init__(self):
        object.__setattr__(self, "divisors", frozenset(self.divisors))


@dataclass(frozen=True)
class ResolutionData:
    name: str
    divisors: Tuple[Divisor, ...]
    group: GroupSpec
    strata: Tuple[StratumEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "divisors", tuple(self.divisors))
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
    that order (or than MAX_GROUP_ORDER).
    """
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


def _permutation_order(perm: Dict[int, int]) -> int:
    """The lcm of the cycle lengths."""
    order, seen = 1, set()
    for start in perm:
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        order = lcm(order, max(length, 1))
    return order


def subset_orbit(subset: FrozenSet[int], group: List[Dict[int, int]]):
    """Orbit of a divisor subset under the generated group."""
    return {frozenset(g[i] for i in subset) for g in group}


def _canonical_rep(orbit) -> Tuple[int, ...]:
    return min(tuple(sorted(s)) for s in orbit)


def subset_orbits(res: ResolutionData) -> List[Tuple[Tuple[int, ...], int]]:
    """Canonical representative and orbit size for each declared stratum."""
    group = generated_group(res)
    out = []
    for st in res.strata:
        orbit = subset_orbit(st.divisors, group)
        out.append((_canonical_rep(orbit), len(orbit)))
    return out


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(res: ResolutionData) -> List[str]:
    """Every violated invariant as one diagnostic string; empty means valid."""
    diags = []
    ids = [d.id for d in res.divisors]
    if len(set(ids)) != len(ids):
        diags.append("duplicate divisor ids")
        return diags
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
        gmap = dict(zip(sorted(ids), gen))
        for i, j in gmap.items():
            a, b = dmap[i], dmap[j]
            if a.N != b.N:
                diags.append(
                    f"generator {gi} does not preserve N: divisor {i} -> {j}"
                )
            if a.nu != b.nu:
                diags.append(
                    f"generator {gi} does not preserve nu: divisor {i} -> {j}"
                )
            if a.zero_fiber != b.zero_fiber:
                diags.append(
                    f"generator {gi} does not preserve zero_fiber: divisor {i} -> {j}"
                )
        if res.group.order % _permutation_order(gmap):
            diags.append(f"generator {gi} has order not dividing {res.group.order}")

    group = None
    if generators_ok:
        try:
            group = generated_group(res)
        except InvalidResolution as exc:
            diags.extend(exc.diagnostics)
    zero_ids = {d.id for d in res.divisors if d.zero_fiber}
    first_in_orbit = {}  # canonical representative -> first stratum index
    for si, st in enumerate(res.strata):
        if not st.divisors:
            diags.append(f"stratum {si} has an empty divisor set")
            continue
        unknown = st.divisors - id_set
        if unknown:
            diags.append(f"stratum {si} references unknown divisors {sorted(unknown)}")
            continue
        if not (st.divisors & zero_ids):
            diags.append(
                f"stratum {si} does not meet the zero fiber and must be omitted"
            )
        if group is not None:
            rep = _canonical_rep(subset_orbit(st.divisors, group))
            sj = first_in_orbit.setdefault(rep, si)
            if sj != si:
                diags.append(f"duplicate orbit: strata {sj} and {si} lie in the same orbit")
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

    divisors_obj = require(obj, "divisors", list, "resolution")
    divisors = []
    for di, dv in enumerate(divisors_obj):
        where = f"divisors[{di}]"
        did = require(dv, "id", int, where)
        N = require(dv, "N", int, where)
        nu = require(dv, "nu", int, where)
        zf = require(dv, "zero_fiber", bool, where, False)
        if N < 1 or nu < 1:
            raise SchemaError(f"{where}: multiplicities must be >= 1")
        divisors.append(Divisor(did, N, nu, zf))
    known = {d.id for d in divisors}

    strata_obj = require(obj, "strata", list, "resolution")
    strata = []
    for si, st in enumerate(strata_obj):
        where = f"strata[{si}]"
        I = require(st, "I", list, where)
        if any(isinstance(x, bool) or not isinstance(x, int) for x in I):
            raise SchemaError(f"{where}.I: expected array of divisor ids")
        bad = set(I) - known
        if bad:
            raise SchemaError(f"{where}.I: unknown divisor ids {sorted(bad)}")
        beta = gspace.expr_from_json(require(st, "beta", dict, where))
        plus = st.get("beta_plus")
        minus = st.get("beta_minus")
        strata.append(
            StratumEntry(
                frozenset(I),
                beta,
                gspace.expr_from_json(plus) if plus is not None else None,
                gspace.expr_from_json(minus) if minus is not None else None,
            )
        )
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
