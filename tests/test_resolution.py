import dataclasses
import itertools
import json
import re
import time
import tracemalloc

import pytest
from helpers import (
    dict_closure_group,
    per_stratum_terms,
    reference_beta_value,
    reference_resolution_from_json,
    reference_validate,
    subset_orbits,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_cli import call, paths, replaced, small_json, valid_documents

from equizeta import catalog, zeta
from equizeta.errors import InvalidResolution, ParseError, SchemaError, UnknownFixture
from equizeta.gspace import Atom, beta_value
from equizeta.resolution import (
    MAX_GROUP_ORDER,
    Divisor,
    GroupSpec,
    ResolutionData,
    StratumEntry,
    generated_group,
    parse,
    require,
    resolution_from_json,
    resolution_to_json,
    serialize,
    validate,
)
from equizeta.zeta import VARIANTS, denef_loeser


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
        # stratum 7 repeats stratum 4's subset, but 4, itself a duplicate,
        # is not the first of the orbit
        extra = res.strata + tuple(
            StratumEntry(I, Atom("point_pair_swapped"))
            for I in ({2, 4}, {2, 3}, {1, 2}, {2, 4})
        )
        diags = validate(dataclasses.replace(res, strata=extra))
        assert diags == [
            "duplicate orbit: strata 3 and 4 lie in the same orbit",
            "duplicate orbit: strata 3 and 5 lie in the same orbit",
            "duplicate orbit: strata 2 and 6 lie in the same orbit",
            "duplicate orbit: strata 3 and 7 lie in the same orbit",
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
            assert (validate(res) == []) == divides, order

    def test_spanned_group_size_must_divide_the_order(self):
        # (1 2) and (2 3) each have order 2, dividing 8, but together span
        # S3, whose 6 permutations no group of order 8 acts through
        divisors = tuple(Divisor(i, 1, 1, True) for i in range(1, 4))
        strata = (StratumEntry({1}, Atom("point_fixed")),)
        gens = ((2, 1, 3), (1, 3, 2))
        res = ResolutionData("S3", divisors, GroupSpec(8, gens), strata)
        assert validate(res) == ["generators span 6 permutations, not dividing 8"]
        assert validate(dataclasses.replace(res, group=GroupSpec(12, gens))) == []

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(st.permutations(range(1, n + 1)), max_size=3).map(
                lambda gens: (n, [tuple(g) for g in gens])
            )
        ),
        st.integers(1, 12),
    )
    def test_group_diagnostic_iff_the_closure_does_not_divide_the_order(self, case, order):
        n, gens = case
        # every product of two known permutations, until none is new
        group = {tuple(range(1, n + 1)), *gens}
        while True:
            products = {tuple(a[b[i] - 1] for i in range(n)) for a in group for b in group}
            if products <= group:
                break
            group |= products
        bad = len(group) > order or order % len(group) != 0
        divisors = tuple(Divisor(i, 1, 1, True) for i in range(1, n + 1))
        strata = (StratumEntry({1}, Atom("point_fixed")),)
        diags = validate(ResolutionData("random", divisors, GroupSpec(order, gens), strata))
        assert bool(diags) == bad, (gens, order, diags)
        assert all(d.startswith("generators span") for d in diags)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.lists(st.permutations(range(1, n + 1)), max_size=3),
                st.sets(st.integers(1, n), min_size=1),
            ).map(lambda case: (n, [tuple(g) for g in case[0]], frozenset(case[1])))
        ),
    )
    def test_group_closure_matches_the_closure_over_dicts(self, case):
        n, gens, subset = case
        divisors = tuple(Divisor(i, 1, 1, True) for i in range(1, n + 1))
        strata = (StratumEntry(subset, Atom("point_fixed")),)
        res = ResolutionData("random", divisors, GroupSpec(120, gens), strata)
        assert generated_group(res) == dict_closure_group(res)

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

    def test_orbit_check_holds_one_subset_per_stratum(self):
        # (Z2)^10 swaps the divisors 2k - 1 and 2k of each of ten pairs, so
        # the 56 strata taking one divisor of at least eight pairs (and none
        # of the rest, so that no swap stabilises a stratum) lie in distinct
        # orbits of 256 to 1024 subsets each.
        # Keeping every image of every stratum would hold 17664 subsets, a
        # peak near 14 MB; the check keeps one per stratum, and the peak is
        # the group's 1024 permutations, near 1.3 MB.
        divisors = tuple(Divisor(i, 1, 1, True) for i in range(1, 21))
        gens = tuple(
            tuple({2 * k - 1: 2 * k, 2 * k: 2 * k - 1}.get(i, i) for i in range(1, 21))
            for k in range(1, 11)
        )
        strata = [
            StratumEntry(
                frozenset(i for k, c in enumerate(counts, 1) for i in (2 * k - 1, 2 * k)[:c]),
                Atom("point_fixed"),
            )
            for counts in itertools.product((1, 0), repeat=10)
            if counts.count(1) >= 8
        ]
        # stratum 0 again, moved by the first generator
        moved = frozenset(gens[0][i - 1] for i in strata[0].divisors)
        strata.append(StratumEntry(moved, Atom("point_fixed")))
        res = ResolutionData("Z2^10", divisors, GroupSpec(MAX_GROUP_ORDER, gens), tuple(strata))
        tracemalloc.start()
        try:
            diags = validate(res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diags == [f"duplicate orbit: strata 0 and {len(strata) - 1} lie in the same orbit"]
        assert peak < 4 << 20, peak

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

    def test_stratum_whose_stabiliser_swaps_its_divisors_is_refused(self, monkeypatch):
        # xy under (x, y) -> (y, x): the swap maps {1, 2} onto itself, so the
        # torus (R*)^2 is not (u - 1)^2 under it; refused before any value
        doc = {"name": "xy", "group": {"order": 2, "generators": [[2, 1]]},
               "divisors": [{"id": i, "N": 1, "nu": 1, "zero_fiber": True} for i in (1, 2)],
               "strata": [{"I": [1, 2], "beta": {"kind": "atom", "name": "point_fixed"}}]}
        want = ("stratum 0: its stabiliser permutes divisors [1, 2], and only a "
                "stabiliser that fixes each divisor of a stratum is supported")
        assert validate(resolution_from_json(doc)) == [want]

        def refuse(*args):
            raise AssertionError("a value was built")

        monkeypatch.setattr(zeta, "beta_value", refuse)
        for argv in (["compute", "-"], ["compute", "-", "--format", "series", "--expand", "4"],
                     ["compare", "-", "y4-x2_Z2"]):
            assert call(argv, json.dumps(doc)) == (2, "", f"error: {want}\n"), argv

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.permutations(range(1, n + 1)), max_size=2),
                st.lists(st.sets(st.integers(1, n), min_size=1), min_size=1, max_size=4),
            )
        )
    )
    # the swap (1 2)(3 4) stabilises {1, 2}, moving it and divisors outside it
    @example((4, [(2, 1, 4, 3)], [{1, 2}, {3}, {1, 2, 3, 4}]))
    @example((3, [(2, 3, 1)], [{1, 2, 3}, {1}]))
    def test_stratum_refused_iff_its_stabiliser_moves_a_divisor(self, case):
        n, gens, subsets = case
        group = {tuple(range(1, n + 1)), *map(tuple, gens)}
        while True:
            products = {tuple(a[b[i] - 1] for i in range(n)) for a in group for b in group}
            if products <= group:
                break
            group |= products
        assume(len(group) <= 4)
        divisors = tuple(Divisor(i, 1, 1, True) for i in range(1, n + 1))
        strata = tuple(StratumEntry(I, Atom("point_fixed")) for I in subsets)
        res = ResolutionData("random", divisors, GroupSpec(len(group), tuple(gens)), strata)
        diags = validate(res)
        for si, I in enumerate(subsets):
            stabiliser = [g for g in group if {g[i - 1] for i in I} == I]
            moved = sorted({i for g in stabiliser for i in I if g[i - 1] != i})
            named = [d for d in diags if d.startswith(f"stratum {si}: its stabiliser")]
            assert named == ([f"stratum {si}: its stabiliser permutes divisors {moved}, and only "
                              "a stabiliser that fixes each divisor of a stratum is supported"]
                             if moved else []), (gens, subsets, diags)
        if not diags:
            denef_loeser(res)

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

    @pytest.mark.parametrize("entry, message", [
        (5, "divisors[1]: missing field 'id'"),
        ([], "divisors[1]: missing field 'id'"),
        (None, "divisors[1]: missing field 'id'"),
        ({}, "divisors[1]: missing field 'id'"),
        ({"N": 0, "nu": 0}, "divisors[1]: missing field 'id'"),
        ({"id": 2}, "divisors[1]: missing field 'N'"),
        ({"id": 2, "N": 1}, "divisors[1]: missing field 'nu'"),
        ({"id": "2", "N": 1, "nu": 1}, "divisors[1].id: expected integer"),
        ({"id": None, "N": "x", "nu": 1}, "divisors[1].id: expected integer"),
        ({"id": 2, "N": True, "nu": 1}, "divisors[1].N: expected integer"),
        ({"id": 2, "N": 1, "nu": 1.0}, "divisors[1].nu: expected integer"),
        ({"id": 2, "N": 0, "nu": "1"}, "divisors[1].nu: expected integer"),
        ({"id": 2, "N": 1, "nu": 1, "zero_fiber": 1}, "divisors[1].zero_fiber: expected boolean"),
        ({"id": 2, "N": 1, "nu": 1, "zero_fiber": None},
         "divisors[1].zero_fiber: expected boolean"),
        ({"id": 2, "N": 0, "nu": 1}, "divisors[1]: multiplicities must be >= 1"),
        ({"id": 2, "N": 1, "nu": -3, "zero_fiber": True},
         "divisors[1]: multiplicities must be >= 1"),
    ])
    def test_malformed_divisor_names_its_first_bad_field(self, entry, message):
        doc = resolution_to_json(catalog.get("x2+y2_Z2"))
        doc["divisors"].append(entry)
        with pytest.raises(SchemaError) as exc:
            parse(json.dumps(doc))
        assert str(exc.value) == message

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



def outcome(f, *args):
    """f(*args), or the class and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


# ids that are not a divisor's, and values equal to the id 1 of other JSON
# types, which a set of ids would take for it
foreign_ids = st.sampled_from([0, -3, 99, True, 1.0, "1", None])


@st.composite
def edited_documents(draw):
    """A valid resolution document with one edit: a subtree replaced, a
    divisor id repeated in, replaced in or shuffled within a stratum, a
    generator image changed, or a stratum's orbit declared twice."""
    _, doc = draw(valid_documents.filter(lambda job: job[0][0] == "compute"))
    edit = draw(st.sampled_from(
        ["subtree", "repeated", "foreign", "shuffled", "generator", "orbit"]))
    if edit == "subtree":
        path = draw(st.sampled_from(list(paths(doc))), label="path")
        return replaced(doc, path, draw(small_json))
    doc = json.loads(json.dumps(doc))
    strata, gens = doc["strata"], doc["group"]["generators"]
    ids = [d["id"] for d in doc["divisors"]]
    si = draw(st.integers(0, len(strata) - 1), label="stratum")
    I = strata[si]["I"]
    if edit == "repeated":
        I.insert(draw(st.integers(0, len(I))), draw(st.sampled_from(I)))
    elif edit == "foreign":
        I[draw(st.integers(0, len(I) - 1))] = draw(foreign_ids)
    elif edit == "shuffled":
        strata[si]["I"] = draw(st.permutations(I))
        doc["strata"] = draw(st.permutations(strata))
    elif edit == "generator" and gens:
        k = draw(st.integers(0, len(gens[0]) - 1))
        gens[0][k] = draw(st.sampled_from(ids) | foreign_ids)
    elif edit == "generator":
        gens.append(draw(st.permutations(ids)))
    else:
        image = dict(zip(sorted(ids), gens[0])) if gens else {i: i for i in ids}
        strata.append(dict(strata[si], I=[image[i] for i in I]))
    return doc


class TestFrontEndAgainstReference:
    """The parser, ``validate`` and the stratum values against the versions
    before their fast paths (``helpers``)."""

    @settings(max_examples=400, deadline=None)
    @given(edited_documents())
    def test_same_data_diagnostics_and_terms(self, doc):
        got = outcome(resolution_from_json, doc)
        want = outcome(reference_resolution_from_json, doc)
        if got != want:
            # the one difference: a divisor id repeated in stratum i is
            # refused where the reference read past it
            kind, message = got
            m = re.fullmatch(r"strata\[(\d+)\]\.I: repeated divisor ids \[.+\]", message)
            assert kind is SchemaError and m, (got, want)
            i = int(m.group(1))
            assert len(set(doc["strata"][i]["I"])) < len(doc["strata"][i]["I"])
            before = dict(doc, strata=doc["strata"][:i])
            assert isinstance(reference_resolution_from_json(before), ResolutionData)
            return
        if not isinstance(got, ResolutionData):
            return
        diags = validate(got)
        assert diags == reference_validate(want)
        for st_ in got.strata:
            for expr in (st_.beta, st_.beta_plus, st_.beta_minus):
                if expr is not None:
                    assert outcome(beta_value, expr) == outcome(reference_beta_value, expr)
        if not diags:
            for variant in VARIANTS:
                assert denef_loeser(got, variant).terms == per_stratum_terms(want, variant)

    def test_subclasses_of_the_json_types_read_as_before(self):
        # a field whose exact type check fails goes through ``require``,
        # which accepts a subclass of its JSON type, as the reference does
        class Obj(dict):
            pass

        class Int(int):
            pass

        res = catalog.get("y4-x2_Z2")
        doc = json.loads(serialize(res))
        doc["group"]["generators"][0] = [Int(x) for x in doc["group"]["generators"][0]]
        doc["divisors"][0] = Obj(doc["divisors"][0], N=Int(doc["divisors"][0]["N"]))
        doc["strata"][0] = Obj(doc["strata"][0], I=[Int(x) for x in doc["strata"][0]["I"]])
        doc["strata"][1]["beta"] = Obj(doc["strata"][1]["beta"])
        assert resolution_from_json(doc) == reference_resolution_from_json(doc) == res


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
        ["gk(62,+,-)", "gk(62,-,+)", "gk(62,-)", "gk(64,+,+)", "gk(64,-,-)", "gk(64,+)",
         "hk(129,+)", "hk(127,+)", "hk(125,+)", "hk(125,-)", "hk(124,+)", "hk(124,-)"],
    )
    def test_every_admitted_limit_member_validates(self, name):
        # the largest member of each family, and of each parity of hk(k,+)
        res = catalog.get(name)
        assert len(res.divisors) <= 64 and validate(res) == []

    @pytest.mark.parametrize(
        "name",
        ["gk(65,+,+)", "gk(65,-)", "hk(130,+)", "gk(1000000,+,-)", "hk(1000000,+)",
         "gk(" + "9" * 18 + ",+,-)", "x2k_Z2(" + "9" * 19 + ")", "x2k_Z2(" + "9" * 5000 + ")",
         # 65 or 66 divisors: the chain and the strict transform's branches
         "gk(63,+,-)", "gk(63,-,+)", "gk(64,+,-)", "gk(64,-,+)", "gk(64,-)", "hk(126,+)",
         "hk(126,-)", "hk(127,-)", "hk(128,+)", "hk(128,-)", "hk(129,-)"],
    )
    def test_oversized_family_parameter_is_refused_at_once(self, name):
        start = time.perf_counter()
        with pytest.raises(UnknownFixture):
            catalog.get(name)
        assert time.perf_counter() - start < 0.1

    def test_every_sample_name_resolves(self):
        for name in catalog.sample_names():
            assert catalog.get(name).divisors
