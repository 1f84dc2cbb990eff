import dataclasses
import itertools
import json
import time

import pytest

from equizeta import catalog
from equizeta.errors import InvalidResolution, ParseError, SchemaError, UnknownFixture
from equizeta.gspace import Atom
from equizeta.resolution import (
    MAX_GROUP_ORDER,
    Divisor,
    GroupSpec,
    ResolutionData,
    StratumEntry,
    generated_group,
    parse,
    require,
    resolution_to_json,
    serialize,
    subset_orbits,
    validate,
)


def with_divisor(res, index, **changes):
    divisors = list(res.divisors)
    divisors[index] = dataclasses.replace(divisors[index], **changes)
    return dataclasses.replace(res, divisors=tuple(divisors))


class TestValidation:
    def test_every_catalog_fixture_is_valid(self):
        for name in catalog.sample_names():
            assert validate(catalog.get(name)) == [], name

    def test_generator_must_preserve_N(self):
        res = ResolutionData(
            "bad",
            (Divisor(1, 2, 1, True), Divisor(2, 4, 1, True)),
            GroupSpec(2, ((2, 1),)),
            (StratumEntry({1}, Atom("point_fixed")),),
        )
        diags = validate(res)
        assert any("does not preserve N" in d for d in diags)

    def test_duplicate_orbit_detected(self):
        res = catalog.get("y4-x2_Z2")
        extra = res.strata + (StratumEntry({2, 4}, Atom("point_pair_swapped")),)
        diags = validate(dataclasses.replace(res, strata=extra))
        assert any("duplicate orbit" in d for d in diags)

    def test_duplicate_orbit_names_the_first_stratum(self):
        res = catalog.get("y4-x2_Z2")  # stratum 3 is {2, 3}
        extra = res.strata + tuple(
            StratumEntry(I, Atom("point_pair_swapped")) for I in ({2, 4}, {2, 3}, {1, 2})
        )
        diags = validate(dataclasses.replace(res, strata=extra))
        assert diags == [
            "duplicate orbit: strata 3 and 4 lie in the same orbit",
            "duplicate orbit: strata 3 and 5 lie in the same orbit",
            "duplicate orbit: strata 2 and 6 lie in the same orbit",
        ]

    def test_many_distinct_strata_validate_in_linear_time(self):
        # 20000 distinct triples of 64 divisors; a scan over every earlier
        # stratum costs about 2 * 10^8 orbit tests here
        divisors = tuple(Divisor(i, 1, 1, True) for i in range(1, 65))
        triples = itertools.islice(itertools.combinations(range(1, 65), 3), 20000)
        strata = tuple(StratumEntry(set(t), Atom("point_fixed")) for t in triples)
        res = ResolutionData("many", divisors, GroupSpec(2, ((*range(1, 65),),)), strata)
        start = time.perf_counter()
        assert validate(res) == []
        assert time.perf_counter() - start < 2.0

    def test_generator_order_is_the_lcm_of_its_cycle_lengths(self):
        divisors = tuple(Divisor(i, 1, 1, True) for i in range(1, 6))
        strata = (StratumEntry({1}, Atom("point_fixed")),)
        gens = ((2, 1, 4, 5, 3),)  # a 2-cycle and a 3-cycle: order 6
        for order, divides in ((6, True), (12, True), (2, False), (3, False), (4, False)):
            res = ResolutionData("cycles", divisors, GroupSpec(order, gens), strata)
            diags = validate(res)
            assert any("order not dividing" in d for d in diags) != divides, order

    def test_group_closure_stops_after_the_declared_order(self):
        # a 9-cycle and a transposition span all of S_9 (362880 permutations)
        divisors = tuple(Divisor(i, 1, 1, True) for i in range(1, 10))
        gens = ((*range(2, 10), 1), (2, 1, *range(3, 10)))
        strata = (StratumEntry({1}, Atom("point_fixed")),)
        res = ResolutionData("S9", divisors, GroupSpec(18, gens), strata)
        start = time.perf_counter()
        assert validate(res) == ["generators span more than 18 permutations"]
        with pytest.raises(InvalidResolution):
            generated_group(res)
        assert time.perf_counter() - start < 0.5
        for name in catalog.sample_names():
            res = catalog.get(name)
            assert len(generated_group(res)) <= res.group.order, name

    def test_declared_group_order_is_capped(self):
        res = catalog.get("y4-x2_Z2")
        for order in (MAX_GROUP_ORDER, MAX_GROUP_ORDER * 2, 10**18):
            diags = validate(dataclasses.replace(res, group=GroupSpec(order, res.group.generators)))
            assert (diags == []) == (order <= MAX_GROUP_ORDER), order

    def test_stratum_outside_zero_fiber_rejected(self):
        res = catalog.get("y4-x2_Z2")
        extra = res.strata + (StratumEntry({3}, Atom("point_fixed")),)
        diags = validate(dataclasses.replace(res, strata=extra))
        assert any("zero fiber" in d for d in diags)

    def test_non_bijective_generator(self):
        res = ResolutionData(
            "bad",
            (Divisor(1, 1, 1, True), Divisor(2, 1, 1, True)),
            GroupSpec(2, ((1, 1),)),
            (StratumEntry({1}, Atom("point_fixed")),),
        )
        assert any("bijection" in d for d in validate(res))

    def test_multiplicity_mutations_break_swapped_fixtures(self):
        # fixtures whose group moves a divisor: perturbing N or nu on one
        # member of a moved pair must be flagged
        for name in ("y4-x2_Z2", "gk(3,+,-)", "hk(3,-)"):
            res = catalog.get(name)
            group = generated_group(res)
            moved = sorted(
                {i for g in group for i in g if g[i] != i}
            )
            assert moved, name
            target = moved[0]
            idx = next(k for k, d in enumerate(res.divisors) if d.id == target)
            bad_n = with_divisor(res, idx, N=res.divisors[idx].N + 1)
            assert any("does not preserve N" in d for d in validate(bad_n)), name
            bad_nu = with_divisor(res, idx, nu=res.divisors[idx].nu + 1)
            assert any("does not preserve nu" in d for d in validate(bad_nu)), name


class TestOrbits:
    def test_swapped_pair_orbit(self):
        res = catalog.get("y4-x2_Z2")
        orbits = dict(zip([tuple(sorted(s.divisors)) for s in res.strata],
                          subset_orbits(res)))
        assert orbits[(2, 3)] == ((2, 3), 2)
        assert orbits[(1, 2)] == ((1, 2), 1)

    def test_trivial_group_all_singletons(self):
        res = catalog.get("y4-x2_triv")
        assert all(size == 1 for _, size in subset_orbits(res))

    def test_representative_and_generator_order_independent(self):
        res = catalog.get("y4-x2_Z2")
        # replace the {2,3} representative by its partner {2,4}
        strata = list(res.strata)
        strata[-1] = dataclasses.replace(strata[-1], divisors=frozenset({2, 4}))
        alt = dataclasses.replace(res, strata=tuple(strata))
        assert subset_orbits(alt) == subset_orbits(res)
        # feed the generator twice; the generated group is unchanged
        doubled = dataclasses.replace(
            res, group=GroupSpec(2, res.group.generators * 2)
        )
        assert subset_orbits(doubled) == subset_orbits(res)


class TestSerialization:
    def test_round_trip_every_fixture(self):
        for name in catalog.sample_names():
            res = catalog.get(name)
            assert parse(serialize(res)) == res, name

    def test_truncated_json_is_parse_error(self):
        blob = serialize(catalog.get("x2+y2_Z2"))[:-20]
        with pytest.raises(ParseError):
            parse(blob)

    def test_unknown_divisor_reference_is_schema_error(self):
        doc = resolution_to_json(catalog.get("x2+y2_Z2"))
        doc["strata"][0]["I"] = [99]
        with pytest.raises(SchemaError):
            parse(json.dumps(doc))

    def test_wrong_type_is_schema_error(self):
        doc = resolution_to_json(catalog.get("x2+y2_Z2"))
        doc["divisors"][0]["N"] = "two"
        with pytest.raises(SchemaError):
            parse(json.dumps(doc))

    def test_require_reads_typed_fields(self):
        assert require({"n": 3}, "n", int, "x") == 3
        assert require({}, "n", int, "x", 5) == 5
        assert require({"n": None}, "n", object, "x") is None
        for obj, kind in (({"n": True}, int), ({"n": "3"}, int), ({"n": 3.0}, int),
                          ({"n": 1}, bool), ({"n": 3}, list), ({}, int), ([3], int)):
            with pytest.raises(SchemaError):
                require(obj, "n", kind, "x")
        with pytest.raises(SchemaError):
            require({"n": "3"}, "n", int, "x", 5)  # a default does not excuse a bad type

    def test_unknown_atom_is_schema_error(self):
        doc = resolution_to_json(catalog.get("x2+y2_Z2"))
        doc["strata"][0]["beta"] = {"kind": "atom", "name": "gremlin"}
        with pytest.raises(SchemaError):
            parse(json.dumps(doc))


class TestCatalog:
    def test_names_cover_families(self):
        names = catalog.names()
        assert "y4-x2_Z2" in names and "x2+y2_Z2" in names
        assert any(n.startswith("gk(") for n in names)
        assert any(n.startswith("hk(") for n in names)

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixture):
            catalog.get("w8_Z3")

    def test_parametric_bounds(self):
        with pytest.raises(UnknownFixture):
            catalog.get("gk(2,+,-)")
        with pytest.raises(UnknownFixture):
            catalog.get("x2k_Z2(0)")

    def test_largest_family_members_validate(self):
        for name in ("gk(64,+,+)", "gk(62,+,-)", "hk(129,+)", "hk(125,-)", "hk(124,+)"):
            res = catalog.get(name)
            assert len(res.divisors) == 64 and validate(res) == [], name

    @pytest.mark.parametrize(
        "name",
        ["gk(65,+,+)", "gk(65,-)", "hk(130,+)", "gk(1000000,+,-)", "hk(1000000,+)",
         "gk(" + "9" * 18 + ",+,-)", "x2k_Z2(" + "9" * 19 + ")", "x2k_Z2(" + "9" * 5000 + ")"],
    )
    def test_oversized_family_parameter_is_refused_at_once(self, name):
        start = time.perf_counter()
        with pytest.raises(UnknownFixture):
            catalog.get(name)
        assert time.perf_counter() - start < 0.1

    def test_every_sample_name_resolves(self):
        for name in catalog.sample_names():
            assert catalog.get(name).divisors
