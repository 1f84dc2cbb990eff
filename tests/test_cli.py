import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equizeta import catalog, cohomology, ratpoly
from equizeta.cli import _emit, build_parser, main
from equizeta.ratpoly import TSeries, ZetaRational, pmul
from equizeta.resolution import resolution_to_json, serialize


@pytest.fixture
def run(capsys):
    def _run(*argv, stdin=None, monkeypatch=None):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def write_fixture(tmp_path, name, filename=None):
    path = tmp_path / (filename or "res.json")
    path.write_bytes(serialize(catalog.get(name)))
    return str(path)


def call(argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process ``main`` call that
    reads ``stdin`` for "-"; for use where pytest fixtures are not."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def assert_one_error(result, code):
    """The call exited ``code`` with no output and one ``error:`` line."""
    got, out, err = result
    assert (got, out) == (code, ""), (got, out, err)
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestCompute:
    def test_display_of_separating_example(self, run, tmp_path):
        path = write_fixture(tmp_path, "y4-x2_Z2")
        code, out, _ = run("compute", path, "--variant", "naive", "--format", "display")
        assert code == 0
        assert "u^-3 T^4" in out and out.count("] + ") == 3

    def test_zero_signed_variant(self, run, tmp_path):
        path = write_fixture(tmp_path, "x2+y2_Z2")
        code, out, _ = run("compute", path, "--variant", "minus")
        assert code == 0
        assert out.strip() == "0"

    def test_malformed_file_exits_3(self, run, tmp_path):
        bad = tmp_path / "malformed.json"
        bad.write_text("{ not json")
        code, _, err = run("compute", str(bad))
        assert code == 3
        assert "error" in err

    def test_schema_error_exits_3(self, run, tmp_path):
        doc = resolution_to_json(catalog.get("x2+y2_Z2"))
        doc["divisors"][0]["N"] = "two"
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps(doc))
        assert run("compute", str(bad))[0] == 3

    def test_validation_failure_exits_2(self, run, tmp_path):
        doc = resolution_to_json(catalog.get("y4-x2_Z2"))
        doc["divisors"][2]["N"] = 5  # breaks the swapped pair
        bad = tmp_path / "invalid.json"
        bad.write_text(json.dumps(doc))
        assert run("compute", str(bad))[0] == 2

    def test_missing_file_exits_3(self, run):
        assert run("compute", "no/such/file.json")[0] == 3

    def test_fixture_name_accepted(self, run):
        code, out, _ = run("compute", "x2k_Z2(2)", "--format", "rational")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "num": [{"c": "1", "t": 4, "u": 1}],
            "den": [{"c": "1", "t": 0, "u": 1}, {"c": "-1", "t": 4, "u": 0}],
        }

    def test_json_round_trips(self, run, tmp_path):
        path = write_fixture(tmp_path, "-x2-y4_Z2")
        code, out, _ = run(
            "compute", path, "--variant", "minus", "--expand", "6", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rational"]["num"] and doc["rational"]["den"]
        series = TSeries.from_json(doc["series"])
        assert series.order == 6

    def test_byte_identical_reruns(self, run, tmp_path):
        path = write_fixture(tmp_path, "A-boundary_f")
        out1 = run("compute", path, "--format", "json", "--expand", "5")[1]
        out2 = run("compute", path, "--format", "json", "--expand", "5")[1]
        assert out1 == out2

    def test_stdin_dash(self, run, monkeypatch):
        blob = serialize(catalog.get("x2+y2_Z2")).decode()
        monkeypatch.setattr("sys.stdin", io.StringIO(blob))
        code, out, _ = run("compute", "-", "--variant", "plus", "--format", "display")
        assert code == 0
        assert "u^-2 T^2" in out

    def test_series_format_requires_expand(self, run):
        assert run("compute", "x2+y2_Z2", "--format", "series")[0] == 2

    def test_negative_expand_exits_2(self, run):
        for fmt in ("series", "json", "display"):
            code, out, err = run("compute", "x2+y2_Z2", "--format", fmt, "--expand", "-1")
            assert code == 2 and not out
            assert "--expand must be non-negative" in err

    def test_group_order_below_one_exits_3(self, run, tmp_path):
        doc = resolution_to_json(catalog.get("x2+y2_Z2"))
        doc["group"]["order"] = 0
        bad = tmp_path / "order0.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run("compute", str(bad))
        assert code == 3
        assert "group.order" in err

    def test_outside_rational_atom_is_reduced(self, run, tmp_path):
        # beta = (a*g)/(b*g) with a/b = (u^2 + u)/(u - 1) and g of degree 8
        # and content 3 must act exactly as a/b
        g = (21, -6, 0, 0, 0, 9, 0, 0, 3)
        paths = []
        for num, den in (((0, 1, 1), (-1, 1)), (pmul((0, 1, 1), g), pmul((-1, 1), g))):
            doc = resolution_to_json(catalog.get("x2+y2_Z2"))
            value = {"num": [str(c) for c in num], "den": [str(c) for c in den]}
            doc["strata"][0]["beta"] = {"kind": "rational", "value": value}
            path = tmp_path / f"deg{len(den) - 1}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        assert run("compare", *paths)[0] == 0
        plain, padded = (run("compute", p, "--format", "rational") for p in paths)
        assert plain[0] == padded[0] == 0
        assert plain[1] == padded[1]

    def test_oversized_affine_atom_exits_3(self, run, tmp_path):
        doc = resolution_to_json(catalog.get("x2+y2_Z2"))
        doc["strata"][0]["beta"] = {"kind": "atom", "name": "affine(1000000000)"}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, _, err = run("compute", str(path))
        assert code == 3 and "affine dimension" in err

    def test_oversized_integer_literal_exits_3(self, run, tmp_path):
        doc = json.dumps(resolution_to_json(catalog.get("x2+y2_Z2")))
        head, tail = doc.split('"id": ', 1)
        path = tmp_path / "big.json"
        path.write_text(head + '"id": ' + "9" * 5001 + tail[tail.index(","):])
        code, _, err = run("compute", str(path))
        assert code == 3 and "4300 digits" in err

    def test_deep_nesting_exits_3(self, run, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, _, err = run("compute", str(path))
        assert code == 3 and "nested too deeply" in err

    def test_series_never_clears_the_fraction(self, run, monkeypatch):
        def refuse(*args):
            raise AssertionError("cleared fraction built on the series path")

        monkeypatch.setattr(ZetaRational, "_cleared", property(refuse))
        code, out, _ = run("compute", "gk(5,+,-)", "--format", "series", "--expand", "12")
        assert code == 0 and json.loads(out)["order"] == 12

    def test_huge_divisor_multiplicity_clears_fast(self, run):
        # x^(2k) with k = 10^9: one factor (1, 2*10^9), so dT = 2*10^9
        start = time.perf_counter()
        code, out, _ = run("compute", "x2k_Z2(1000000000)", "--format", "rational")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        doc = json.loads(out)
        assert {"c": "1", "t": 2000000000, "u": 1} in doc["num"]
        assert {"c": "-1", "t": 2000000000, "u": 0} in doc["den"]


class TestCompare:
    def test_separating_pair_exits_1(self, run, tmp_path):
        a = write_fixture(tmp_path, "y4-x2_Z2", "a.json")
        b = write_fixture(tmp_path, "x4-y2_Z2", "b.json")
        code, out, _ = run("compare", a, b, "--variant", "naive", "--order", "8")
        assert code == 1
        doc = json.loads(out)
        assert doc["equal"] is False
        assert doc["first_differing_T_order"] == 4

    def test_self_comparison_exits_0(self, run, tmp_path):
        a = write_fixture(tmp_path, "y4-x2_Z2", "a.json")
        code, out, _ = run("compare", a, a)
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_trivial_reencodings_equal(self, run):
        code, out, _ = run("compare", "y4-x2_triv", "x4-y2_triv")
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_negative_order_exits_2(self, run):
        for lhs, rhs in (("y4-x2_Z2", "y4-x2_Z2"), ("y4-x2_Z2", "x4-y2_Z2")):
            code, out, err = run("compare", lhs, rhs, "--order", "-1")
            assert code == 2 and not out
            assert "--order must be non-negative" in err

    def test_compare_never_clears_the_fraction(self, run, monkeypatch):
        def refuse(*args):
            raise AssertionError("cleared fraction built on the compare path")

        monkeypatch.setattr(ZetaRational, "_cleared", property(refuse))
        assert run("compare", "gk(6,+,-)", "gk(6,+,-)")[0] == 0
        code, out, _ = run("compare", "y4-x2_Z2", "x4-y2_Z2", "--order", "8")
        assert code == 1 and json.loads(out)["first_differing_T_order"] == 4

    def test_huge_divisor_multiplicities_compare_fast(self, run):
        # the series first differ at T^(2*10^9), far past --order, with
        # dT = 4*10^9 + 2: only the nonzero orders are ever built
        start = time.perf_counter()
        code, out, _ = run("compare", "x2k_Z2(1000000000)", "x2k_Z2(1000000001)")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        doc = json.loads(out)
        assert doc["equal"] is False and doc["first_differing_T_order"] is None


class TestParser:
    def test_one_parser_serves_successive_calls(self, run):
        assert build_parser() is build_parser()
        code, out, _ = run("compute", "x2k_Z2(2)", "--format", "rational")
        assert code == 0 and json.loads(out)["num"]
        code, out, _ = run("compare", "y4-x2_Z2", "x4-y2_Z2", "--order", "8")
        assert code == 1 and json.loads(out)["first_differing_T_order"] == 4
        code, out, _ = run("compute", "x2k_Z2(2)")
        assert code == 0 and "T^4" in out
        with pytest.raises(SystemExit):
            main(["compare", "y4-x2_Z2"])
        with pytest.raises(SystemExit):
            main(["compute", "x2k_Z2(2)", "--order", "3"])
        assert run("catalog", "list")[0] == 0


class TestOracle:
    def test_matches_library_series(self, run):
        code, out, _ = run(
            "oracle", "--exponents", "2", "--action", "-1", "--variant", "naive",
            "--order", "8",
        )
        assert code == 0
        from equizeta.arcs import MonomialGerm, SignAction, oracle_series

        want = oracle_series(MonomialGerm((2,)), SignAction((-1,)), "naive", 8)
        assert TSeries.from_json(json.loads(out)) == want

    def test_minus_variant_zero(self, run):
        code, out, _ = run(
            "oracle", "--exponents", "2", "--action", "-1", "--variant", "minus",
            "--order", "6",
        )
        assert code == 0
        series = TSeries.from_json(json.loads(out))
        assert all(c.is_zero() for c in series.coeffs)

    def test_not_invariant_exits_2(self, run):
        code, _, err = run("oracle", "--exponents", "1,1", "--action", "-1,1")
        assert code == 2
        assert "invariant" in err

    def test_negative_order_exits_2(self, run):
        code, out, err = run("oracle", "--exponents", "2", "--action", "-1", "--order", "-1")
        assert code == 2 and not out
        assert "--order must be non-negative" in err

    def test_trivial_group_flag(self, run):
        code, out, _ = run(
            "oracle", "--exponents", "3", "--trivial-group", "--order", "6"
        )
        assert code == 0


class TestCatalogAndCohomology:
    def test_list_contains_key_names(self, run):
        code, out, _ = run("catalog", "list")
        assert code == 0
        assert "y4-x2_Z2" in out and "x2+y2_Z2" in out
        assert "gk(" in out and "hk(" in out

    def test_show_round_trips(self, run):
        code, out, _ = run("catalog", "show", "gk(3,+,-)")
        assert code == 0
        from equizeta.resolution import resolution_from_json

        assert resolution_from_json(json.loads(out)) == catalog.get("gk(3,+,-)")

    def test_unknown_fixture_exits_2(self, run):
        assert run("catalog", "show", "nope_Z9")[0] == 2

    def test_sphere_free_series(self, run, tmp_path):
        path = tmp_path / "sphere_free.json"
        path.write_text(json.dumps(cohomology.sphere_free_pipeline()))
        code, out, _ = run("cohomology", str(path))
        assert code == 0
        assert out.splitlines()[0] == "u^2 + u + 1"

    def test_sphere_fixed_series(self, run, tmp_path):
        path = tmp_path / "sphere_fixed.json"
        path.write_text(json.dumps(cohomology.sphere_fixed_pipeline()))
        code, out, _ = run("cohomology", str(path))
        assert code == 0
        assert out.splitlines()[0] == "(u^3 + u)/(u - 1)"
        assert "laurent" in out

    def test_builtin_pipeline_names(self, run):
        code, out, _ = run("cohomology", "sphere_free")
        assert code == 0 and out.splitlines()[0] == "u^2 + u + 1"
        code, out, _ = run("cohomology", "circle_fixed")
        assert code == 0 and out.splitlines()[0] == "(u^2 + u)/(u - 1)"

    def test_bad_pipeline_exits_2(self, run, tmp_path):
        spec = cohomology.sphere_fixed_pipeline()
        spec["tail"]["tail_dim"] = 7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert run("cohomology", str(path))[0] == 2

    def test_oversized_integer_literal_exits_3(self, run, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"p_min": -' + "1" * 5001 + "}")
        code, _, err = run("cohomology", str(path))
        assert code == 3 and "4300 digits" in err

    def test_non_utf8_file_exits_3(self, run, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(cohomology.sphere_free_pipeline()).encode() + b" \xff")
        code, _, err = run("cohomology", str(path))
        assert code == 3 and "not UTF-8" in err


# -- the indented JSON writer against json.dumps ---------------------------------

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(max_value=-10**40)
    | st.text(alphabet=st.characters(codec=None), max_size=12)
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é€😀", "\ud800"])
)
json_docs = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


class TestEmit:
    @settings(max_examples=200, deadline=None)
    @given(json_docs)
    def test_matches_json_dumps(self, obj):
        assert _emit(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_unsorted_keys_empty_containers_and_constants(self):
        obj = {"z": [], "a": {}, "m": [True, False, None, 1, 0, -(10**50)], "B": {"y": 1, "x": "\""}}
        assert _emit(obj) == json.dumps(obj, indent=2, sort_keys=True)
        assert _emit([True, 1, False, 0]) == "[\n  true,\n  1,\n  false,\n  0\n]"

    @pytest.mark.parametrize("bad", [1.5, {1, 2}, {"k": [0.0]}, [set()], (1,)])
    def test_other_types_raise_type_error(self, bad):
        with pytest.raises(TypeError):
            _emit(bad)


# -- the error boundary: every failure is one typed error and an exit code ---------

def deep_beta_resolution(levels):
    doc = resolution_to_json(catalog.get("x2+y2_Z2"))
    beta = {"kind": "atom", "name": "point_fixed"}
    for _ in range(levels):
        beta = {"kind": "product_affine", "base": beta, "n": 0}
    doc["strata"][0]["beta"] = beta
    return json.dumps(doc)


def edited_pipeline(edit):
    spec = cohomology.sphere_free_pipeline()
    edit(spec)
    return json.dumps(spec)


class TestErrorBoundary:
    def test_deeply_nested_beta_exits_3(self):
        start = time.perf_counter()
        result = call(["compute", "-"], deep_beta_resolution(900))
        assert time.perf_counter() - start < 1.0
        assert_one_error(result, 3)
        assert "nested more than 64 levels" in result[2]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda s: s["homology"][0].update(q=[1]),
            lambda s: s["differentials"][0].update(r=[3]),
            lambda s: s["tail"].update(explicit=[1, 2]),
            lambda s: s.update(differentials=5),
            lambda s: s["homology"][0]["module"].update(action=[5]),
            lambda s: s.update(p_min="-16"),
            lambda s: s["homology"][1]["module"].update(dim=1.0),
            lambda s: s["tail"].update(tail_dim=True),
        ],
    )
    def test_malformed_pipeline_field_exits_3(self, edit):
        assert_one_error(call(["cohomology", "-"], edited_pipeline(edit)), 3)

    @pytest.mark.parametrize(
        "differential",
        [
            {"r": 2, "p": 0, "q": 2, "rank": -1},  # target (-2, 3) is off the page
            {"r": 3, "p": 0, "q": 0, "rank": -1},  # target (-3, 2) is on it
        ],
    )
    def test_negative_declared_rank_exits_3(self, differential):
        text = edited_pipeline(lambda s: s["differentials"].append(differential))
        result = call(["cohomology", "-"], text)
        assert_one_error(result, 3)
        assert "rank must be non-negative" in result[2]

    def test_oversized_fixture_number_exits_2(self):
        result = call(["compute", "x2k_Z2(" + "9" * 5000 + ")"])
        assert_one_error(result, 2)
        assert "unknown fixture" in result[2]
        code, out, _ = call(["compute", "x2k_Z2(1000000001)"])
        assert code == 0 and "T^2000000002" in out

    @pytest.mark.parametrize("name", ["gk(1000000,+,-)", "hk(1000000,+)"])
    def test_oversized_family_parameter_exits_2_at_once(self, name):
        start = time.perf_counter()
        result = call(["compute", name, "--format", "rational"])
        assert time.perf_counter() - start < 1.0
        assert_one_error(result, 2)

    @pytest.mark.parametrize("n", [9, 12, 64])
    def test_generators_spanning_more_than_the_order_exit_2_at_once(self, n):
        # an n-cycle and a transposition span all n! permutations of n
        # divisors, though each has an order dividing the declared n(n-1)
        doc = {
            "name": "hostile",
            "group": {
                "order": n * (n - 1),
                "generators": [[*range(2, n + 1), 1], [2, 1, *range(3, n + 1)]],
            },
            "divisors": [{"id": i, "N": 1, "nu": 1, "zero_fiber": True}
                         for i in range(1, n + 1)],
            "strata": [{"I": [1], "beta": {"kind": "atom", "name": "point_fixed"}}],
        }
        start = time.perf_counter()
        result = call(["compute", "-"], json.dumps(doc))
        assert time.perf_counter() - start < 1.0
        assert_one_error(result, 2)
        assert "generators span more than" in result[2]

    def test_declared_group_order_above_the_cap_exits_2(self):
        doc = resolution_to_json(catalog.get("y4-x2_Z2"))
        doc["group"]["order"] = 10**18
        result = call(["compute", "-"], json.dumps(doc))
        assert_one_error(result, 2)
        assert "group order above 1024" in result[2]

    @pytest.mark.parametrize(
        "argv",
        [["compute", "-", "--format", "rational"], ["compare", "-", "x4-y2_Z2"]],
    )
    def test_expansion_over_the_cap_exits_2_at_once(self, argv):
        # strata {2,3} and {2,4} pair N = 10^8 - 1 with the N = 1 strict
        # transforms: about 4*10^8 lattice points, which used to exhaust memory
        doc = resolution_to_json(catalog.get("x4-y2_Z2"))
        for divisor in doc["divisors"]:
            if divisor["id"] in (1, 2):
                divisor["N"] = 99999999
        start = time.perf_counter()
        result = call(argv, json.dumps(doc))
        assert time.perf_counter() - start < 1.0
        assert_one_error(result, 2)
        assert "MAX_EXPANSION" in result[2]
        code, out, _ = call(["compute", "-", "--format", "display"], json.dumps(doc))
        assert code == 0 and "T^99999999" in out

    def test_expansion_at_the_cap_runs(self, monkeypatch):
        # y4-x2_Z2 through T^512 is bounded by 98688 lattice points
        argv = ["compute", "y4-x2_Z2", "--format", "series", "--expand", "512"]
        monkeypatch.setattr(ratpoly, "MAX_EXPANSION", 98688)
        code, out, _ = call(argv)
        assert code == 0 and json.loads(out)["order"] == 512
        monkeypatch.setattr(ratpoly, "MAX_EXPANSION", 98687)
        assert_one_error(call(argv), 2)

    def test_huge_module_group_order_runs_at_once(self):
        spec = cohomology.sphere_fixed_pipeline()
        for entry in spec["homology"]:
            entry["module"]["group_order"] = 10**18
        start = time.perf_counter()
        code, out, _ = call(["cohomology", "-"], json.dumps(spec))
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out.splitlines()[0] == "(u^3 + u)/(u - 1)"

    def test_many_odd_exponents_are_counted_in_closed_form(self):
        start = time.perf_counter()
        code, out, _ = call(["oracle", "--exponents", ",".join(["1"] * 22),
                             "--trivial-group", "--variant", "plus", "--order", "1"])
        assert time.perf_counter() - start < 1.0
        assert code == 0 and json.loads(out)["order"] == 1

    @pytest.mark.parametrize(
        "exponents, order",
        [("1,1,1", "1000000"), ("1,1,1", str(10**18)), (",".join(["1"] * 257), "8")],
    )
    def test_oracle_over_its_caps_exits_2_at_once(self, exponents, order):
        start = time.perf_counter()
        result = call(["oracle", "--exponents", exponents, "--trivial-group",
                       "--order", order])
        assert time.perf_counter() - start < 1.0
        assert_one_error(result, 2)
        assert "above the cap" in result[2] or "at most 256 exponents" in result[2]

    def test_oracle_at_order_1000_runs(self):
        code, out, _ = call(["oracle", "--exponents", "1,1,1", "--trivial-group",
                             "--order", "1000"])
        assert code == 0 and json.loads(out)["order"] == 1000

    def test_non_invariant_germ_is_reported_by_the_oracle(self):
        result = call(["oracle", "--exponents", "1,1", "--action", "-1,1"])
        assert_one_error(result, 2)
        assert "germ is not invariant under the given sign action" in result[2]

    @pytest.mark.parametrize("fmt", ["rational", "display", "json"])
    def test_result_too_long_to_print_exits_2(self, fmt):
        # 4300 nines, the most int() converts, doubled by (u - 1)^2 on {1, 2}
        doc = resolution_to_json(catalog.get("y4-x2_Z2"))
        doc["strata"][2]["beta"] = {"kind": "rational", "value": {"num": ["9" * 4300], "den": ["1"]}}
        result = call(["compute", "-", "--format", fmt], json.dumps(doc))
        assert_one_error(result, 2)
        assert "too long to print" in result[2]


def paths(doc, prefix=()):
    """Every path from the root of a JSON document to one of its nodes."""
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


def replaced(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# Small values only: p_min, --order and --expand still have no work bound.
small_json = st.recursive(
    st.integers(-64, 64) | st.text(max_size=4) | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
valid_documents = st.sampled_from(
    [(("compute", "-", "--format", fmt), resolution_to_json(catalog.get(name)))
     for name in catalog.sample_names() for fmt in ("rational", "display")]
    + [(("cohomology", "-"), build()) for build in
       (cohomology.sphere_free_pipeline, cohomology.sphere_fixed_pipeline,
        cohomology.circle_fixed_pipeline)]
)


class TestBoundaryFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), valid_documents, small_json)
    def test_one_subtree_replaced_fails_only_through_the_boundary(self, data, job, value):
        argv, doc = job
        path = data.draw(st.sampled_from(list(paths(doc))), label="path")
        result = call(argv, json.dumps(replaced(doc, path, value)))
        assert result[0] in (0, 2, 3)
        if result[0]:
            assert_one_error(result, result[0])
