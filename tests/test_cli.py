import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from argv_sweep import full_parse, outcome, random_argv
from helpers import big_coprime_pair, cleared_json, per_term_cleared, reference_rational_text
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_properties import variants_of
from test_ratpoly import laurent_inputs

from equizeta import catalog, cleared, cli, cohomology, ratpoly, zeta
from equizeta.cli import _emit, build_parser, main
from equizeta.errors import EquizetaError, InvalidInput
from equizeta.gspace import expr_from_json
from equizeta.ratpoly import BiPoly, RatFunc, TSeries, ZetaRational, pmul
from equizeta.resolution import parse, resolution_from_json, resolution_to_json, serialize
from equizeta.zeta import denef_loeser


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
    reads ``stdin`` for "-", with argparse's exit as the exit code; for use
    where pytest fixtures are not."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
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

    def test_divisor_repeated_in_a_stratum_exits_3(self, run, tmp_path):
        # read as {1}, the stratum would take (u-1)^1, not the (u-1)^2 of
        # the two ids it lists
        doc = resolution_to_json(catalog.get("x2+y2_Z2"))
        doc["strata"][0]["I"] = [1, 1]
        bad = tmp_path / "repeated.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run("compute", str(bad))
        assert (code, out) == (3, "")
        assert err == "error: strata[0].I: repeated divisor ids [1]\n"

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

    def test_rational_never_expands(self, run, monkeypatch, tmp_path):
        # the cleared fraction and the series stay two independent routes,
        # which test_expansion_matches_cleared_long_division cross-checks
        def refuse(*args):
            raise AssertionError("T-series expanded on the rational path")

        monkeypatch.setattr(ratpoly, "_expand", refuse)
        code, out, _ = run("compute", "gk(8,+,-)", "--format", "rational")
        assert code == 0 and json.loads(out)["num"]
        path = write_fixture(tmp_path, "y4-x2_Z2")
        code, out, _ = run("compute", path, "--format", "rational")
        assert code == 0 and json.loads(out)["den"]

    def test_huge_divisor_multiplicity_clears_fast(self, run):
        # x^(2k) with k = 10^9: one factor (1, 2*10^9), so dT = 2*10^9
        start = time.perf_counter()
        code, out, _ = run("compute", "x2k_Z2(1000000000)", "--format", "rational")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        doc = json.loads(out)
        assert {"c": "1", "t": 2000000000, "u": 1} in doc["num"]
        assert {"c": "-1", "t": 2000000000, "u": 0} in doc["den"]


SAMPLE_VARIANTS = [(name, v) for name in catalog.sample_names()
                   for v in variants_of(catalog.get(name))]
LADDER = [f"gk({k},{a},{b})" for k in range(3, 15) for a in "+-" for b in "+-"]
LADDER += [f"hk({k},{s})" for k in range(3, 15) for s in "+-"]


class TestRationalOutput:
    """``compute --format rational`` prints, byte for byte, what json.dumps
    gives for the per-term reference assembly of the cleared fraction."""

    @pytest.mark.parametrize("name, variant", SAMPLE_VARIANTS)
    def test_fixture_matches_reference_text(self, run, name, variant):
        code, out, _ = run("compute", "--variant", variant, "--format", "rational", "--", name)
        assert code == 0
        assert out == reference_rational_text(denef_loeser(catalog.get(name), variant)) + "\n"

    def test_ladder_matches_reference_text(self, run):
        for name in LADDER:
            code, out, _ = run("compute", name, "--format", "rational")
            assert code == 0
            assert out == reference_rational_text(denef_loeser(catalog.get(name))) + "\n", name

    def test_all_cancelling_matches_reference_text(self):
        # one (nu, N) on two divisors, with opposite beta on the two strata
        doc = TestErrorBoundary._strata_doc([(4, 2), (4, 2)], [([1], 1), ([2], -1)])
        code, out, _ = call(["compute", "-", "--format", "rational"], json.dumps(doc))
        assert code == 0 and '"num": []' in out
        assert out == reference_rational_text(denef_loeser(parse(json.dumps(doc)))) + "\n"

    @pytest.mark.parametrize("name, variant", [("A-boundary_f", "naive"), ("-x2-y4_Z2", "minus"),
                                               ("gk(6,+,-)", "naive")])
    def test_json_format_rational_entry_matches_reference_text(self, run, name, variant):
        code, out, _ = run("compute", "--variant", variant, "--expand", "4", "--format", "json",
                           "--", name)
        assert code == 0
        doc = json.loads(out)
        doc["rational"] = cleared_json(*per_term_cleared(denef_loeser(catalog.get(name), variant)))
        assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_rational_builds_no_bipoly(self, run, monkeypatch, tmp_path):
        # the cleared fraction is printed from its rows; a BiPoly on the way
        # is the detour the row writer removed
        def refuse(*args):
            raise AssertionError("BiPoly built on the rational path")

        monkeypatch.setattr(BiPoly, "__init__", refuse)
        monkeypatch.setattr(BiPoly, "to_json", refuse, raising=False)
        code, out, _ = run("compute", "gk(8,+,-)", "--format", "rational")
        assert code == 0 and json.loads(out)["num"]
        path = write_fixture(tmp_path, "y4-x2_Z2")
        code, out, _ = run("compute", path, "--format", "rational")
        assert code == 0 and json.loads(out)["den"]
        code, out, _ = run("compute", path, "--format", "json")
        assert code == 0 and json.loads(out)["rational"]["num"]


@st.composite
def unusual_layouts(draw):
    """Up to 6 terms over a pool of up to 4 distinct factors, with nu up to
    10^3 and N that mix 1, 2, 3 and 10^6 or share a gcd (all even, or all
    multiples of 1000); the last terms may negate the first ones, so that
    groups cancel.  The catalog and the bench build none of these layouts:
    T-rows far apart, bands far apart within a row, and a gcd over 1."""
    n_values = draw(st.sampled_from([(1, 2, 3, 10**6), (2, 4, 6, 2 * 10**6),
                                     (1000, 2000, 3000, 10**6)]))
    nus = st.integers(1, 3) | st.integers(1, 1000)
    pool = draw(st.lists(st.tuples(nus, st.sampled_from(n_values)),
                         min_size=1, max_size=4, unique=True))
    coeffs = st.builds(RatFunc, st.lists(st.integers(-4, 4), min_size=1, max_size=3),
                       st.sampled_from([(1,), (-1, 1), (0, 1), (2,)]))
    terms = [(draw(coeffs), draw(st.lists(st.sampled_from(pool), max_size=3)))
             for _ in range(draw(st.integers(0, 6)))]
    cancelled = draw(st.integers(0, len(terms) // 2))
    return terms[:len(terms) - cancelled] + [(-coeff, f) for coeff, f in terms[:cancelled]]


@settings(max_examples=150, deadline=None)
@given(unusual_layouts())
def test_cleared_fraction_of_unusual_layouts(terms):
    z = ZetaRational(terms)
    assert (z.num, z.den) == per_term_cleared(z)
    assert _emit(z) == reference_rational_text(z)


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


# Each subcommand's valid forms, the --action dash merge among them.
VALID_ARGVS = [
    ("compute", "x2k_Z2(2)", "--format", "rational"),
    ("compute", "--variant", "plus", "--format", "series", "--expand", "4", "--", "x2+y2_Z2"),
    ("compare", "y4-x2_Z2", "x4-y2_Z2", "--order", "8"),
    ("oracle", "--exponents", "2,2", "--action", "-1,1", "--order", "4"),
    ("oracle", "--exponents", "2,2", "--sign", "-1", "--action", "-1,1", "--order", "2"),
    ("oracle", "--exponents", "1,2", "--trivial-group", "--variant", "minus"),
    ("catalog", "list"),
    ("catalog", "show", "x2+y2_Z2"),
    ("cohomology", "sphere_free"),
]
# Then each --help and what only the full parser handles or refuses: no
# arguments, a top-level -h, an unknown command, a bad choice, missing
# arguments, leftovers and catalog with no action.
DISPATCH_ARGVS = VALID_ARGVS + [
    ("compute", "--help"),
    ("compare", "--help"),
    ("oracle", "--help"),
    ("catalog", "--help"),
    ("catalog", "show", "-h"),
    ("cohomology", "--help"),
    (),
    ("-h",),
    ("bogus", "x2k_Z2(2)"),
    ("--variant", "plus", "compute", "x2k_Z2(2)"),
    ("compute", "x2k_Z2(2)", "--variant", "bogus"),
    ("compare", "y4-x2_Z2"),
    ("oracle", "--order", "4"),
    ("compute", "x2k_Z2(2)", "--order", "3"),
    ("cohomology", "sphere_free", "extra"),
    ("catalog", "list", "extra"),
    ("catalog",),
    ("compute", "x2k_Z2(2)", "--expand", "-1"),
    ("oracle", "--exponents", "-1,2", "--trivial-group"),
]


class TestDispatch:
    @pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
    def test_same_outcome_as_the_full_parser(self, argv, monkeypatch):
        got = call(argv)
        monkeypatch.setattr(cli, "_parse", lambda args: build_parser().parse_args(args))
        assert got == call(argv)

    def test_valid_commands_skip_the_top_level_parser(self, run, monkeypatch):
        def refuse(*args):
            raise AssertionError("top-level parser used for a valid command")

        monkeypatch.setattr(build_parser(), "parse_args", refuse)
        monkeypatch.setattr(build_parser(), "parse_known_args", refuse)
        for argv in VALID_ARGVS:
            assert run(*argv)[0] in (0, 1), argv


class TestDirectRead:
    # hypothesis draws the seed, not the words: a seeded Random spreads the
    # draws over the argv space as the plain sweep does
    @settings(max_examples=1000, deadline=None)
    @given(st.integers(0, 2**64).map(lambda seed: random_argv(random.Random(seed))))
    @example(["compare", "+1", "rational", "--order=4", "--"])  # argparse refuses the "--"
    @example(["catalog", "list"])  # nested subparsers: argparse reads them
    @example(["compare", "--", "x2k_Z2(2)", "--"])  # a second "--"
    @example(["oracle", "--exponents=--", "--trivial-group"])  # stripped before 3.13
    @example(["oracle", "--exponents", "2,2", "--action", "-1,1"])  # a value "-1,1"
    @example(["oracle", "--exponents=1", "--trivial-group=x"])  # a flag given a value
    def test_same_namespace_or_exit_as_the_full_parser(self, argv):
        assert outcome(cli._parse, argv) == outcome(full_parse, argv)

    def test_every_bench_argv_is_read_directly(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import jobs

        argvs = [
            cli._merge_dash_values(list(job.argv))
            for workload in jobs.GENERATORS
            for seed in (1, 2, 3)
            for job in jobs.generate(workload, seed).jobs
        ]
        want = [outcome(build_parser().parse_args, argv) for argv in argvs]

        def refuse(*args):
            raise AssertionError("argparse used for a bench argv")

        monkeypatch.setattr(build_parser(), "parse_args", refuse)
        for command, _ in cli._parsers()[1].values():
            monkeypatch.setattr(command, "parse_known_args", refuse)
        assert [outcome(cli._parse, argv) for argv in argvs] == want


# A valid argv after each subcommand name that has a _table, with its
# positionals last.
DASH_BASES = {
    "compute": ["x2k_Z2(2)"],
    "compare": ["x2k_Z2(2)", "x2k_Z2(2)"],
    "oracle": ["--exponents=2"],
    "cohomology": ["sphere_free"],
}


def dash_value_argvs():
    """For each subcommand with a ``_table``, each single-value option given
    the value "--" after "=", and its last positional given as "-- --"."""
    argvs = []
    for name, (_, table) in cli._parsers()[1].items():
        if table is None:
            continue
        options, positionals, _, _ = table
        base = DASH_BASES[name]
        argvs += [[name, *base, f"{option}=--"]
                  for option, slot in options.items() if slot[1] is not cli._FLAG]
        if positionals:
            argvs.append([name, *base[:-1], "--", "--"])
    return argvs


@pytest.mark.parametrize("argv", dash_value_argvs(), ids=" ".join)
def test_a_lone_dash_dash_value_exits_2_or_3(argv):
    # argparse strips such a value to an empty list, which ended in a
    # traceback before the list refusal
    code, out, err = call(argv)
    assert code in (2, 3) and not out and "Traceback" not in err, (code, err)


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

    def test_repeated_homology_degree_exits_3(self, run, tmp_path):
        # H_0 listed twice printed the series of listing it once: the second
        # module overwrote the first's row of the page
        spec = cohomology.sphere_fixed_pipeline()
        spec["homology"].append(dict(spec["homology"][0]))
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(spec))
        code, out, err = run("cohomology", str(path))
        assert (code, out) == (3, "")
        assert "q = 0 is listed twice" in err

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


def atom(name):
    return {"kind": "atom", "name": name}


# Strata valued by affine atoms and by every closure operation over named
# atoms, with both signed variants; CI's console-script step writes the same
# resolution.  The group acts on the values only: a generator swapping
# divisors 1 and 2 would permute the divisors of the stratum {1, 2}, which
# ``validate`` refuses.
NAMED_ATOMS = {
    "name": "affine", "group": {"order": 2, "generators": []},
    "divisors": [{"id": 1, "N": 2, "nu": 1, "zero_fiber": True},
                 {"id": 2, "N": 2, "nu": 1, "zero_fiber": True},
                 {"id": 3, "N": 1, "nu": 2, "zero_fiber": False}],
    "strata": [
        {"I": [1], "beta": {"kind": "product_punctured", "base": atom("affine(3)"), "m": 1},
         "beta_plus": atom("affine_trivial(2)"), "beta_minus": atom("affine(3)")},
        {"I": [1, 3],
         "beta": {"kind": "closed_complement", "whole": atom("affine(3)"),
                  "closed_part": atom("point_fixed")},
         "beta_plus": {"kind": "product_affine", "base": atom("affine_trivial(2)"), "n": 2}},
        {"I": [1, 2],
         "beta": {"kind": "disjoint_union", "parts": [
             atom("affine(3)"), atom("affine_trivial(2)"),
             {"kind": "product_affine", "base": atom("circle_with_fixed_point"), "n": 1}]},
         "beta_minus": {"kind": "product_punctured", "base": atom("affine_trivial(2)"), "m": 2}},
    ],
}


def engine_argvs(named_atoms_path):
    """Every sample fixture and the named-atom file in each variant it
    carries, in all four ``compute`` formats and compared with itself and
    with the next input; the oracle on invariant monomial germs; the three
    built-in pipelines."""
    inputs = catalog.sample_names() + [named_atoms_path]
    for lhs, rhs in zip(inputs, inputs[1:] + inputs[:1]):
        res = resolution_from_json(NAMED_ATOMS) if lhs == named_atoms_path else catalog.get(lhs)
        for variant in variants_of(res):
            for fmt in ("display", "json", "rational"):
                yield ["compute", "--variant", variant, "--format", fmt, "--", lhs]
            yield ["compute", "--variant", variant, "--format", "series", "--expand", "8", "--", lhs]
            yield ["compare", "--variant", variant, "--", lhs, lhs]
            yield ["compare", "--variant", variant, "--", lhs, rhs]
    for germ in (["--exponents", "2", "--action", "-1"],
                 ["--exponents", "1,1", "--trivial-group"],
                 ["--exponents", "2,2", "--sign", "-1", "--action", "-1,1"]):
        for variant in zeta.VARIANTS:
            yield ["oracle", *germ, "--variant", variant]
    for pipeline in ("sphere_free", "sphere_fixed", "circle_fixed"):
        yield ["cohomology", pipeline]


def test_engine_commands_take_no_gcd_step(tmp_path, monkeypatch):
    # every value the engine builds is canonical by construction, so the gcd
    # step serves parsed rational values and the public RatFunc arithmetic
    # only
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(NAMED_ATOMS))
    argvs = list(engine_argvs(str(path)))

    def gcd_step(*args):
        raise AssertionError("gcd step taken")

    for name in ("_canonical", "pgcd", "_coprime_mod_p"):
        monkeypatch.setattr(ratpoly, name, gcd_step)
    for argv in argvs:
        code, out, err = call(argv)
        assert code in (0, 1) and out and not err, (argv, code, err)


SRC =Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv, code, first_line", [
    (["catalog", "list"], 0, "y4-x2_Z2"),
    (["compare", "y4-x2_Z2", "x4-y2_Z2"], 1, "{"),
    (["compute", "nope"], 2, "error: unknown fixture 'nope'"),
    (["oracle", "--exponents=x", "--trivial-group"], 3, "error: --exponents expects"),
    (["compute"], 2, "usage: equizeta compute"),
])
def test_python_m_equizeta_exits_as_main_returns(argv, code, first_line):
    # ``python -m equizeta`` runs __main__ and ``cli.main_entry``: the same
    # exit code and output as an in-process ``main`` call, in a new process
    proc = subprocess.run([sys.executable, "-m", "equizeta", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == call(argv)
    assert proc.returncode == code
    assert (proc.stdout or proc.stderr).startswith(first_line)
    if code == 1:
        assert json.loads(proc.stdout)["first_differing_T_order"] == 4


# -- the indented JSON writer against json.dumps ---------------------------------

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(max_value=-10**40)
    | st.text(alphabet=st.characters(codec=None), max_size=12)
    | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é€😀", "\ud800"])
)


# Coefficients of up to several hundred digits, zeros among them; an all-zero
# numerator is the empty num of the zero function.
coefficient_lists = st.lists(
    st.integers(-3, 3) | st.integers(-(10**400), 10**400), max_size=4
).map(tuple)
rational_functions = st.builds(RatFunc, coefficient_lists, coefficient_lists.filter(any))
engine_objects = rational_functions | st.builds(
    TSeries, st.lists(rational_functions, min_size=1, max_size=5)
)
keys = st.text(alphabet=st.characters(codec=None), max_size=6)
# What the CLI hands _emit: an engine object, or a flat dict of scalars and
# engine objects.
scalar_docs = st.dictionaries(keys, json_scalars, max_size=5)
flat_docs = engine_objects | st.dictionaries(keys, json_scalars | engine_objects, max_size=5)


class TestEmit:
    @settings(max_examples=200, deadline=None)
    @given(scalar_docs)
    def test_matches_json_dumps(self, obj):
        assert _emit(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @settings(max_examples=300, deadline=None)
    @given(flat_docs)
    def test_series_and_rational_functions_match_json_dumps(self, obj):
        want = json.dumps(obj, indent=2, sort_keys=True, default=lambda x: x.to_json())
        assert _emit(obj) == want

    def test_unsorted_keys_empty_containers_and_constants(self):
        obj = {"z": None, "a": True, "m": -(10**50), "B": '"', "A": False, "e": "", "0": RatFunc(0)}
        assert _emit(obj) == json.dumps(obj, indent=2, sort_keys=True, default=lambda x: x.to_json())
        assert _emit({}) == "{}"

    @pytest.mark.parametrize(
        "bad", [1.5, {1, 2}, {"k": [0.0]}, [set()], (1,), [True, 1], {"k": {"j": 1}}, {"k": []}]
    )
    def test_other_types_raise_type_error(self, bad):
        with pytest.raises(TypeError):
            _emit(bad)

    def test_coefficient_too_long_to_print_raises(self):
        huge = RatFunc((10 ** sys.get_int_max_str_digits(),))
        for obj in (huge, TSeries([RatFunc(1), huge]), {"k": huge}):
            with pytest.raises(InvalidInput, match="too long to print"):
                _emit(obj)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4), st.lists(st.none() | laurent_inputs(), max_size=6))
    @example(3, [])
    @example(2, [(-9, (0, 4, -4), (-1, 1)), None, (-2, (1, 1), (-1, 1)), (3, (2,), (1,))])
    def test_series_rows_match_json_dumps(self, lead, cases):
        # leading and inner zero runs, negative lows and the den u - 1, each
        # row written straight from its Laurent row
        rows = [ratpoly._ZERO_ROW] * lead + [
            ratpoly._ZERO_ROW if case is None else ratpoly._laurent_row(*case) for case in cases
        ]
        series = TSeries._from_rows(rows or [ratpoly._ZERO_ROW])
        assert _emit(series) == json.dumps(series.to_json(), indent=2, sort_keys=True)
        doc = {"series": series, "witness": series[-1]}
        assert _emit(doc) == json.dumps(doc, indent=2, sort_keys=True, default=lambda x: x.to_json())

    def test_coefficient_too_long_to_print_exits_2(self, run, tmp_path):
        # c is the longest integer the interpreter converts.  The stratum {1}
        # gives c (u - 1) u^-n at every T^n; {1, 2} first shows at T^3, as
        # c (u - 1)^2 u^-3, whose coefficient -2c is one digit longer
        c = "9" * sys.get_int_max_str_digits()
        value = {"kind": "rational", "value": {"num": [c], "den": ["1"]}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "name": "huge", "group": {"order": 1, "generators": []},
            "divisors": [{"id": i, "N": i, "nu": 1, "zero_fiber": True} for i in (1, 2)],
            "strata": [{"I": I, "beta": value} for I in ([1], [1, 2])],
        }))
        code, out, _ = run("compute", str(path), "--format", "series", "--expand", "2")
        assert code == 0 and json.loads(out)["coeffs"][2]["num"] == ["-" + c, c]
        for fmt in ("series", "json"):
            code, out, err = run("compute", str(path), "--format", fmt, "--expand", "3")
            assert (code, out) == (2, "") and "too long to print" in err, fmt

    def test_series_and_oracle_build_no_coefficients(self, run, monkeypatch):
        # the writer reads the rows; no RatFunc is built from them
        def refuse(*args):
            raise AssertionError("a series coefficient was built on a writer path")

        monkeypatch.setattr(TSeries, "coeffs", property(refuse))
        monkeypatch.setattr(TSeries, "__getitem__", refuse)
        code, out, _ = run("compute", "gk(5,+,-)", "--format", "series", "--expand", "12")
        assert code == 0 and json.loads(out)["order"] == 12
        code, out, _ = run("oracle", "--exponents", "1,1,4", "--trivial-group", "--order", "16")
        assert code == 0 and json.loads(out)["order"] == 16
        code, out, _ = run("oracle", "--exponents", "2,2", "--variant", "minus", "--trivial-group")
        assert code == 0 and json.loads(out)["order"] == 8

    def test_series_and_oracle_build_no_json_tree(self, run, monkeypatch):
        def refuse(*args):
            raise AssertionError("to_json tree built on a series path")

        monkeypatch.setattr(TSeries, "to_json", refuse)
        monkeypatch.setattr(RatFunc, "to_json", refuse)
        code, out, _ = run("compute", "gk(5,+,-)", "--format", "series", "--expand", "12")
        assert code == 0 and json.loads(out)["order"] == 12
        code, out, _ = run("oracle", "--exponents", "2,2", "--action", "-1,1", "--order", "9")
        assert code == 0 and json.loads(out)["order"] == 9

    def test_compare_and_json_bundle_build_no_json_tree(self, run, monkeypatch):
        # the witness and the bundle's series are written from the objects
        def refuse(*args):
            raise AssertionError("to_json tree built for compare or --format json")

        monkeypatch.setattr(TSeries, "to_json", refuse)
        monkeypatch.setattr(RatFunc, "to_json", refuse)
        code, out, _ = run("compare", "y4-x2_Z2", "x4-y2_Z2")
        assert code == 1 and json.loads(out)["first_differing_T_order"] == 4
        code, out, _ = run("compute", "y4-x2_Z2", "--format", "json", "--expand", "6")
        assert code == 0 and json.loads(out)["series"]["order"] == 6


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
        "explicit",
        [
            {"01": 5, "1": 1, "2": 1},  # "01" names degree 1 twice, first
            {"1": 1, "01": 5, "2": 1},  # and last
            {"1": 1, "+2": 1},
            {" 1": 1, "2": 1},
            {"1": 1, "2": 1, "1_0": 0},  # int() reads it as 10
        ],
    )
    def test_explicit_key_not_in_decimal_form_exits_3(self, explicit):
        spec = cohomology.sphere_fixed_pipeline(-16)
        spec["tail"]["explicit"] = explicit
        result = call(["cohomology", "-"], json.dumps(spec))
        assert_one_error(result, 3)
        assert "is not the decimal form" in result[2]

    def test_negative_explicit_key_is_checked(self):
        # degree -1 is below the cutoff: (-1, 0) and (-3, 2) give it 2
        spec = cohomology.sphere_fixed_pipeline(-16)
        spec["tail"]["explicit"]["-1"] = 2
        code, out, _ = call(["cohomology", "-"], json.dumps(spec))
        assert code == 0 and out == call(["cohomology", "sphere_fixed"])[1]
        spec["tail"]["explicit"]["-1"] = 3
        assert_one_error(call(["cohomology", "-"], json.dumps(spec)), 2)

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

    @staticmethod
    def _far_apart_doc():
        # strata {2,3} and {2,4} pair N = 10^8 - 1 with the N = 1 strict
        # transforms: about 4*10^8 lattice points through T^dT
        doc = resolution_to_json(catalog.get("x4-y2_Z2"))
        for divisor in doc["divisors"]:
            if divisor["id"] in (1, 2):
                divisor["N"] = 99999999
        return doc

    def test_expansion_over_the_cap_exits_2_at_once(self):
        doc = self._far_apart_doc()
        start = time.perf_counter()
        result = call(["compare", "-", "x4-y2_Z2"], json.dumps(doc))
        assert time.perf_counter() - start < 1.0
        assert_one_error(result, 2)
        assert "MAX_EXPANSION" in result[2]
        code, out, _ = call(["compute", "-", "--format", "display"], json.dumps(doc))
        assert code == 0 and "T^99999999" in out

    def test_rational_clears_far_apart_factors_at_once(self):
        # the cleared fraction expands no series, so the input that compare
        # refuses clears at once from its factors
        doc = self._far_apart_doc()
        start = time.perf_counter()
        code, out, _ = call(["compute", "-", "--format", "rational"], json.dumps(doc))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        num, den = per_term_cleared(denef_loeser(parse(json.dumps(doc)), "naive"))
        assert json.loads(out) == cleared_json(num, den)

    def test_rational_of_far_apart_factors_takes_packed_rows(self, monkeypatch):
        # its span proves neither cap, so each step is checked on the row pass
        def refuse(*_):
            raise AssertionError("bare-int pass taken")

        monkeypatch.setattr(cleared, "_bare_pass", refuse)
        code, _, err = call(["compute", "-", "--format", "rational"], json.dumps(self._far_apart_doc()))
        assert code == 0, err

    def test_expansion_at_the_cap_runs(self, monkeypatch):
        # y4-x2_Z2 through T^512 is bounded by 98688 lattice points
        argv = ["compute", "y4-x2_Z2", "--format", "series", "--expand", "512"]
        monkeypatch.setattr(ratpoly, "MAX_EXPANSION", 98688)
        code, out, _ = call(argv)
        assert code == 0 and json.loads(out)["order"] == 512
        monkeypatch.setattr(ratpoly, "MAX_EXPANSION", 98687)
        assert_one_error(call(argv), 2)

    def test_series_of_more_coefficients_than_the_cap_exits_2_at_once(self, monkeypatch):
        # N = 10^17 leaves no lattice point in the box at any order, so only
        # the order + 1 coefficients count against the cap
        argv = ["compute", "x2k_Z2(100000000000000000)", "--format", "series", "--expand"]
        start = time.perf_counter()
        result = call(argv + ["100000000"])
        assert time.perf_counter() - start < 1.0
        assert_one_error(result, 2)
        assert "MAX_EXPANSION" in result[2]
        monkeypatch.setattr(ratpoly, "MAX_EXPANSION", 9)
        code, out, _ = call(argv + ["8"])
        assert code == 0 and json.loads(out)["order"] == 8
        assert_one_error(call(argv + ["9"]), 2)

    @staticmethod
    def _strata_doc(divisors, strata):
        # divisors as (N, nu) with ids from 1, strata as (ids, integer beta)
        return {
            "name": "strata",
            "group": {"order": 1, "generators": []},
            "divisors": [{"id": i, "N": N, "nu": nu, "zero_fiber": True}
                         for i, (N, nu) in enumerate(divisors, 1)],
            "strata": [{"I": ids, "beta": {"kind": "rational",
                                           "value": {"num": [str(c)], "den": ["1"]}}}
                       for ids, c in strata],
        }

    def test_cleared_fraction_over_the_cap_exits_2_at_once(self):
        # one stratum on 24 divisors with nu = 2^i: each subset of them has
        # its own u-exponent, so the denominator alone has 2^24 terms
        doc = self._strata_doc([(1000, 2**i) for i in range(24)], [(list(range(1, 25)), 1)])
        start = time.perf_counter()
        result = call(["compute", "-", "--format", "rational"], json.dumps(doc))
        assert time.perf_counter() - start < 1.0
        assert_one_error(result, 2)
        assert "MAX_CLEARED_TERMS" in result[2]

    def test_cleared_fraction_over_the_cap_is_counted(self, monkeypatch):
        # the 24 divisors' layout spans past MAX_CLEARED_TERMS, so its steps
        # are counted, and the count refuses them
        counted = []
        nonzero_digits = cleared._nonzero_digits

        def count(v, w):
            counted.append(v)
            return nonzero_digits(v, w)

        monkeypatch.setattr(cleared, "_nonzero_digits", count)
        doc = self._strata_doc([(1000, 2**i) for i in range(24)], [(list(range(1, 25)), 1)])
        result = call(["compute", "-", "--format", "rational"], json.dumps(doc))
        assert_one_error(result, 2)
        assert "MAX_CLEARED_TERMS" in result[2] and counted

    def test_catalog_clears_on_the_proved_path(self, monkeypatch):
        # the ladder's layouts and the catalog's largest span within both
        # caps, so no step is counted, and each prints the bytes it printed
        # when every step was
        def refuse(*args):
            raise AssertionError("a step of a proved layout was counted")

        for name in ("_nonzero_digits", "_terms_in", "_within_bits"):
            monkeypatch.setattr(cleared, name, refuse)
        names = [f"gk({k},{a},{b})" for k in range(3, 15) for a in "+-" for b in "+-"]
        names += [f"hk({k},{s})" for k in range(3, 15) for s in "+-"]
        digest = hashlib.sha256()
        for name in names + ["gk(62,+,-)", "hk(129,+)"]:
            code, out, _ = call(["compute", name, "--format", "rational"])
            assert code == 0, name
            digest.update(out.encode())
        assert digest.hexdigest() == (
            "f5ec7dd58fd544419cf94522b6a22eb704eec5a94c66b53a48d189d77d948bfc"
        )

    def test_sixteen_divisors_of_distinct_subset_sums_exit_2_at_once(self):
        # N = 2^i and nu = 1, every pair a stratum: each subset of the N has
        # its own T-exponent, so the polynomials on the way hold one short
        # row for each, and the count of their terms refuses them
        doc = self._strata_doc([(2**i, 1) for i in range(16)],
                               [([i, j], 1) for i in range(1, 17) for j in range(i + 1, 17)])
        start = time.perf_counter()
        result = call(["compute", "-", "--format", "rational"], json.dumps(doc))
        assert time.perf_counter() - start < 1.0
        assert_one_error(result, 2)
        assert "MAX_CLEARED_TERMS" in result[2]

    def test_far_apart_nu_exit_2_at_once(self):
        # nu = 1 and nu = 10^9 on one N: a packed row holding both ends would
        # span 10^9 powers of u, so the cleared fraction, the series and
        # compare all refuse before they allocate it
        doc = json.dumps(self._strata_doc([(1, 1), (1, 10**9)], [([1], 1), ([2], 1)]))
        for argv in (["compute", "-", "--format", "rational"],
                     ["compute", "-", "--format", "series", "--expand", "8"],
                     ["compare", "-", "y4-x2_Z2"]):
            start = time.perf_counter()
            result = call(argv, doc)
            assert time.perf_counter() - start < 1.0
            assert_one_error(result, 2)
            assert "MAX_PACKED_BITS" in result[2]

    def test_far_apart_nu_in_one_stratum_expand_exits_2_at_once(self):
        # one stratum on both: through T^8, after the factor with nu = 1, the
        # sum of a row and the next term of the geometric series with
        # nu = 10^9 would span 10^9 powers of u, so the expansion refuses
        # before that add.  Through T^2 the one row, the digit 1 at
        # u^(-1-10^9), is refused as a coefficient, before the 10^9 zeros of
        # its denominator are built, in the series and in compare's witness
        doc = json.dumps(self._strata_doc([(1, 1), (1, 10**9)], [([1, 2], 1)]))
        for argv in (["compute", "-", "--format", "series", "--expand", "8"],
                     ["compute", "-", "--format", "series", "--expand", "2"],
                     ["compare", "-", "y4-x2_Z2"]):
            start = time.perf_counter()
            result = call(argv, doc)
            assert time.perf_counter() - start < 1.0
            assert_one_error(result, 2)
            assert "MAX_PACKED_BITS" in result[2]

    def test_far_apart_witness_exits_2_at_once(self, tmp_path):
        # the T^2 terms u^(-1-10^9), on both sides, and u^-2, on one: each
        # side's rows and Delta's are short, but the witness of the side
        # without u^-2 would span 10^9 powers of u, so compare refuses it
        # before building it
        lhs = self._strata_doc([(1, 1), (1, 10**9), (2, 2)], [([1, 2], 1)])
        rhs = self._strata_doc([(1, 1), (1, 10**9), (2, 2)], [([1, 2], 1), ([3], 1)])
        (tmp_path / "lhs.json").write_text(json.dumps(lhs))
        (tmp_path / "rhs.json").write_text(json.dumps(rhs))
        for pair in (("lhs.json", "rhs.json"), ("rhs.json", "lhs.json")):
            start = time.perf_counter()
            result = call(["compare", *(str(tmp_path / name) for name in pair)])
            assert time.perf_counter() - start < 1.0
            assert_one_error(result, 2)
            assert "MAX_PACKED_BITS" in result[2]

    def test_far_apart_nu_at_the_bits_cap_clears(self):
        # the widest row, u^nu - u, spans nu powers of u of 6 bits each: with
        # nu = 22,369,620 its packed row holds 2^27 - 8 bits, within
        # MAX_PACKED_BITS, and with one more it would not.  The row pass
        # holds its digits at 8 bits, and still clears it
        divisors = [(1, 1), (1, 22369620)]
        doc = json.dumps(self._strata_doc(divisors, [([1], 1), ([2], 1)]))
        code, out, _ = call(["compute", "-", "--format", "rational"], doc)
        assert code == 0
        assert json.loads(out) == cleared_json(*per_term_cleared(denef_loeser(parse(doc), "naive")))
        doc = json.dumps(self._strata_doc(divisors[:1] + [(1, 22369621)], [([1], 1), ([2], 1)]))
        result = call(["compute", "-", "--format", "rational"], doc)
        assert_one_error(result, 2)
        assert "MAX_PACKED_BITS" in result[2]

    def test_far_apart_nu_within_the_bits_cap_clear_at_once(self):
        # with nu = 10^5 a row spans 10^5 powers of u, two of them nonzero:
        # within MAX_PACKED_BITS, and read back in time linear in its span
        doc = json.dumps(self._strata_doc([(1, 1), (1, 10**5)], [([1], 1), ([2], 1)]))
        start = time.perf_counter()
        code, out, _ = call(["compute", "-", "--format", "rational"], doc)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out) == cleared_json(*per_term_cleared(denef_loeser(parse(doc), "naive")))

    def test_cancelling_strata_clear_to_zero_at_once(self):
        # two strata on the 24 divisors above, twice over, with opposite beta:
        # every group cancels, so no factor is multiplied out and no cap is hit
        doc = self._strata_doc([(1000, 2**i) for i in range(24)] * 2,
                               [(list(range(1, 25)), 1), (list(range(25, 49)), -1)])
        start = time.perf_counter()
        code, out, _ = call(["compute", "-", "--format", "rational"], json.dumps(doc))
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out) == {"num": [], "den": [{"u": 0, "t": 0, "c": "1"}]}

    def test_cleared_fraction_at_the_cap_runs(self, monkeypatch):
        # the largest polynomial on the way to gk(10,+,-) holds 436 terms
        argv = ["compute", "gk(10,+,-)", "--format", "rational"]
        monkeypatch.setattr(cleared, "MAX_CLEARED_TERMS", 436)
        code, out, _ = call(argv)
        assert code == 0 and json.loads(out)["den"]
        monkeypatch.setattr(cleared, "MAX_CLEARED_TERMS", 435)
        assert_one_error(call(argv), 2)

    def test_page_window_below_the_cap_exits_2_at_once(self):
        spec = cohomology.sphere_fixed_pipeline()
        spec["p_min"] = -10**9
        start = time.perf_counter()
        result = call(["cohomology", "-"], json.dumps(spec))
        assert time.perf_counter() - start < 1.0
        assert_one_error(result, 2)
        assert "MAX_PAGE_DEPTH" in result[2]

    @staticmethod
    def one_row_at(q):
        """sphere_fixed with its q = 2 row moved to degree q, and a tail that
        the q = 0 row alone fits."""
        spec = cohomology.sphere_fixed_pipeline()
        spec["homology"][1]["q"] = q
        spec["tail"] = {"stable_below": 1, "tail_dim": 1}
        return json.dumps(spec)

    def test_homology_degree_above_the_cap_exits_2_at_once(self):
        # the head of the series would hold one coefficient per degree up to q
        start = time.perf_counter()
        result = call(["cohomology", "-"], self.one_row_at(10**9))
        assert time.perf_counter() - start < 1.0
        assert_one_error(result, 2)
        assert "MAX_PAGE_DEPTH" in result[2]

    def test_homology_degree_at_the_cap_runs(self):
        q = cohomology.MAX_PAGE_DEPTH
        code, out, _ = call(["cohomology", "-"], self.one_row_at(q))
        assert code == 0
        # u^(q-16) + ... + u^q from the moved row, u / (u - 1) from the tail
        assert out.splitlines()[0] == f"(u^{q + 1} - u^{q - 16} + u)/(u - 1)"

    def test_page_with_many_rows_exits_2_at_once(self):
        # 256 rows at the deepest window would hold a million page entries
        spec = cohomology.sphere_fixed_pipeline(-cohomology.MAX_PAGE_DEPTH)
        module = spec["homology"][0]["module"]
        spec["homology"] = [{"q": q, "module": module} for q in range(256)]
        start = time.perf_counter()
        result = call(["cohomology", "-"], json.dumps(spec))
        assert time.perf_counter() - start < 1.0
        assert_one_error(result, 2)
        assert "MAX_PAGE_CELLS" in result[2]

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

    @pytest.mark.parametrize("exponents, action", [("1,1", "1"), ("2,2", "1,1,1")])
    def test_oracle_action_of_the_wrong_length_names_both_lengths(self, exponents, action):
        result = call(["oracle", "--exponents", exponents, "--action", action])
        assert_one_error(result, 2)
        signs, exps = len(action.split(",")), len(exponents.split(","))
        assert f"sign action of length {signs} for {exps} exponents" in result[2]

    def test_large_coprime_rational_value_runs_at_once(self):
        # a stratum value whose num and den the PRS takes over a second to
        # show coprime; their images mod 2^61 - 1 show it at once
        num, den = big_coprime_pair()
        doc = resolution_to_json(catalog.get("y4-x2_Z2"))
        doc["strata"][2]["beta"] = {"kind": "rational", "value": {
            "num": [str(c) for c in num], "den": [str(c) for c in den]}}
        doc = json.dumps(doc)
        start = time.perf_counter()
        code, out, _ = call(["compute", "-", "--format", "rational"], doc)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out) == cleared_json(*per_term_cleared(denef_loeser(parse(doc), "naive")))

    @pytest.mark.parametrize("fmt", ["rational", "display", "json"])
    def test_result_too_long_to_print_exits_2(self, fmt):
        # 4300 nines, the most int() converts, doubled by (u - 1)^2 on {1, 2}
        doc = resolution_to_json(catalog.get("y4-x2_Z2"))
        doc["strata"][2]["beta"] = {"kind": "rational", "value": {"num": ["9" * 4300], "den": ["1"]}}
        result = call(["compute", "-", "--format", fmt], json.dumps(doc))
        assert_one_error(result, 2)
        assert "too long to print" in result[2]

    def test_series_coefficient_too_long_to_print_exits_2(self):
        # a stratum value of the most digits int() converts: the T^8
        # coefficient of the series holds a longer one
        doc = resolution_to_json(catalog.get("y4-x2_Z2"))
        digits = sys.get_int_max_str_digits()
        doc["strata"][2]["beta"] = {"kind": "rational", "value": {"num": ["9" * digits], "den": ["1"]}}
        result = call(["compute", "-", "--format", "series", "--expand", "8"], json.dumps(doc))
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


# The fields of the public JSON readers, so that drawn objects reach past
# their first check.
READER_KEYS = ["num", "den", "order", "coeffs", "dim", "group_order", "action", "stable_below",
               "tail_dim", "explicit", "kind", "name", "value", "parts", "whole",
               "closed_part", "base", "n", "m"]
reader_json = st.recursive(
    st.integers(-8, 8) | st.floats(width=16) | st.booleans() | st.none()
    | st.sampled_from(["1", "-2", "01", "x", "atom", "rational", "disjoint_union",
                       "closed_complement", "product_affine", "product_punctured",
                       "point_fixed", "affine(2)"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(READER_KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=8,
)
READERS = [RatFunc.from_json, TSeries.from_json, cohomology.CyclicGModule.from_json,
           cohomology.TailSpec.from_json, expr_from_json]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(READERS), reader_json)
def test_public_json_readers_refuse_only_through_equizeta_errors(read, obj):
    try:
        read(obj)
    except EquizetaError:
        pass
