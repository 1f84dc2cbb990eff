"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines.  Every comparison is exact (arbitrary-precision integers); the
asserted runtime bounds are part of the contract.
"""

import io
import json
import time
from contextlib import redirect_stdout

from helpers import (
    blow_up_fixed_point,
    displayed_a_boundary,
    displayed_gk_mixed,
    displayed_minus_x2_minus_y4,
    displayed_x2_plus_y2,
    displayed_x2k,
    displayed_x4_y2,
    displayed_y4_x2,
    enumerated_oracle_series,
    series_values_match,
)

from equizeta import catalog, cli, cohomology
from equizeta.arcs import MonomialGerm, SignAction, oracle_series
from equizeta.gspace import (
    Atom,
    DisjointUnion,
    ProductWithAffine,
    ProductWithPuncturedLines,
    atom_table,
    atom_value,
    beta_value,
)
from equizeta.ratpoly import RatFunc, TSeries
from equizeta.resolution import parse, serialize
from equizeta.zeta import denef_loeser, distinguish

from test_properties import run_mutation_sweep


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget
        self.start = time.monotonic()

    def check(self, label):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.budget, f"{label} took {elapsed:.2f}s (budget {self.budget}s)"
        return elapsed


def per_stratum_terms(res, variant="naive"):
    """Engine output of each stratum taken alone, in declared order."""
    import dataclasses

    return [
        denef_loeser(dataclasses.replace(res, strata=(st,)), variant)
        for st in res.strata
    ]


def assert_terms_match(engine_terms, displayed_terms, label):
    """Every engine term pairs off with a displayed term under exact equality."""
    remaining = list(displayed_terms)
    assert len(engine_terms) == len(remaining), label
    for i, got in enumerate(engine_terms):
        for j, want in enumerate(remaining):
            if got == want:
                del remaining[j]
                break
        else:
            raise AssertionError(f"{label}: stratum term {i} matches no displayed term")


def report(n, label, watch):
    elapsed = watch.check(label)
    print(f"criterion {n} ({label}): PASS [{elapsed:.2f} s]")


def test_criterion_1_monomial_closed_forms():
    watch = Stopwatch(1.0)
    for k in (1, 2, 3):
        res = catalog.get(f"x2k_Z2({k})")
        assert denef_loeser(res, "naive") == displayed_x2k(k, "naive"), k
        assert denef_loeser(res, "plus") == displayed_x2k(k, "plus"), k
    report(1, "x^2k closed forms", watch)


def test_criterion_2_oracle_engine_agreement():
    watch = Stopwatch(5.0)
    for k in (1, 2, 3, 4):
        res = catalog.get(f"x2k_Z2({k})")
        germ = MonomialGerm((2 * k,))
        action = SignAction((-1,))
        for variant in ("naive", "plus"):
            engine = denef_loeser(res, variant).t_series(12)
            oracle = oracle_series(germ, action, variant, 12)
            assert engine.coeffs == oracle.coeffs, (k, variant)
    report(2, "oracle vs engine, order 12", watch)


def test_criterion_3_separating_example():
    from helpers import term

    watch = Stopwatch(1.0)
    f = catalog.get("y4-x2_Z2")
    h = catalog.get("x4-y2_Z2")
    assert denef_loeser(f) == displayed_y4_x2()
    assert denef_loeser(h) == displayed_x4_y2()
    assert_terms_match(
        per_stratum_terms(f),
        [
            term({(2, 0): 1}, [(2, 2)]),
            term({(2, 0): 1, (1, 0): -1, (0, 0): 1}, [(3, 4)]),
            term({(2, 0): 1, (1, 0): -1}, [(2, 2), (3, 4)]),
            term({(2, 0): 1, (1, 0): -2, (0, 0): 1}, [(3, 4), (1, 1)]),
        ],
        "y4-x2 terms",
    )
    assert_terms_match(
        per_stratum_terms(h),
        [
            term({(2, 0): 1}, [(2, 2)]),
            term({(2, 0): 1, (1, 0): -2}, [(3, 4)]),
            term({(2, 0): 1, (1, 0): -1}, [(2, 2), (3, 4)]),
            term({(2, 0): 1, (1, 0): -1}, [(3, 4), (1, 1)]),
            term({(2, 0): 1, (1, 0): -1}, [(3, 4), (1, 1)]),
        ],
        "x4-y2 terms",
    )
    assert denef_loeser(f) != denef_loeser(h)
    rep = distinguish(f, h, "naive", 8)
    assert not rep.equal
    assert rep.first_differing_T_order == 4
    report(3, "separation of y^4-x^2 and x^4-y^2", watch)


def test_criterion_4_trivial_group_baseline():
    watch = Stopwatch(1.0)
    rep = distinguish(
        catalog.get("y4-x2_triv"), catalog.get("x4-y2_triv"), "naive", 8
    )
    assert rep.equal
    report(4, "trivial-group baseline equality", watch)


def test_criterion_5_simple_examples():
    watch = Stopwatch(1.0)
    pos = catalog.get("x2+y2_Z2")
    assert denef_loeser(pos, "naive") == displayed_x2_plus_y2("naive")
    assert denef_loeser(pos, "plus") == displayed_x2_plus_y2("plus")
    assert denef_loeser(pos, "minus").is_zero()
    neg = catalog.get("-x2-y4_Z2")
    assert denef_loeser(neg, "naive") == displayed_minus_x2_minus_y4("naive")
    assert denef_loeser(neg, "minus") == displayed_minus_x2_minus_y4("minus")
    assert denef_loeser(neg, "plus").is_zero()
    report(5, "one- and two-divisor examples with signs", watch)


def test_criterion_6_boundary_singularity_families():
    from helpers import term

    watch = Stopwatch(2.0)
    for k in (3, 4, 5):
        res = catalog.get(f"gk({k},-)")
        assert denef_loeser(res) == displayed_gk_mixed(k), k
        displayed_terms = [term({(2, 0): 1}, [(2, 2)])]
        for j in range(2, k):
            displayed_terms.append(term({(2, 0): 1, (1, 0): -1}, [(j + 1, 2 * j)]))
        if k % 2 == 1:
            # odd k: swapped branch pair on the last divisor
            displayed_terms.append(
                term({(2, 0): 1, (1, 0): -1, (0, 0): 1}, [(k + 1, 2 * k)])
            )
            displayed_terms.append(
                term({(2, 0): 1, (1, 0): -2, (0, 0): 1}, [(k + 1, 2 * k), (1, 1)])
            )
        else:
            # even k: both branch points fixed
            displayed_terms.append(term({(2, 0): 1, (1, 0): -2}, [(k + 1, 2 * k)]))
            displayed_terms.append(
                term({(2, 0): 1, (1, 0): -1}, [(k + 1, 2 * k), (1, 1)])
            )
            displayed_terms.append(
                term({(2, 0): 1, (1, 0): -1}, [(k + 1, 2 * k), (1, 1)])
            )
        for j in range(1, k):
            displayed_terms.append(
                term({(2, 0): 1, (1, 0): -1}, [(j + 1, 2 * j), (j + 2, 2 * j + 2)])
            )
        assert_terms_match(per_stratum_terms(res), displayed_terms, f"gk({k},-)")
    aboundary = catalog.get("A-boundary_f")
    assert denef_loeser(aboundary) == displayed_a_boundary()
    assert_terms_match(
        per_stratum_terms(aboundary),
        [
            term({(2, 0): 1}, [(2, 3)]),
            term({(2, 0): 1}, [(3, 4)]),
            term({(2, 0): 1}, [(5, 8)]),
            term({(2, 0): 1, (1, 0): -1}, [(7, 12)]),
            term({(2, 0): 1, (1, 0): -1}, [(3, 4), (5, 8)]),
            term({(2, 0): 1, (1, 0): -1}, [(7, 12), (5, 8)]),
            term({(2, 0): 1, (1, 0): -1}, [(7, 12), (2, 3)]),
            term({(2, 0): 1, (1, 0): -1}, [(7, 12), (1, 1)]),
        ],
        "A-boundary terms",
    )
    report(6, "boundary-singularity families", watch)


def test_criterion_7_cohomology_fixtures():
    watch = Stopwatch(1.0)
    free = cohomology.run_pipeline(cohomology.sphere_free_pipeline())
    fixed = cohomology.run_pipeline(cohomology.sphere_fixed_pipeline())
    assert free == atom_value("sphere_free")
    assert free.num == atom_value("sphere_free").num
    assert free.den == atom_value("sphere_free").den
    assert fixed == atom_value("sphere_with_fixed_point")
    assert fixed.num == atom_value("sphere_with_fixed_point").num
    assert fixed.den == atom_value("sphere_with_fixed_point").den
    report(7, "sphere cohomology pipelines", watch)


def test_criterion_8_property_suites():
    watch = Stopwatch(10.0)
    u_minus_1 = RatFunc.poly((-1, 1))
    atoms = [name for name, _ in atom_table(max_affine=2)]
    for name in atoms:
        value = atom_value(name)
        for n in range(9):
            got = beta_value(ProductWithAffine(Atom(name), n))
            assert got == value * RatFunc.monomial(n), (name, n)
        expected = value
        for m in range(9):
            got = beta_value(ProductWithPuncturedLines(Atom(name), m))
            assert got == expected, (name, m)
            expected = expected * u_minus_1
        for other in atoms[:5]:
            union = beta_value(DisjointUnion(Atom(name), Atom(other)))
            assert union == value + atom_value(other)
    run_mutation_sweep(rounds=100)
    for name in catalog.sample_names():
        res = catalog.get(name)
        assert parse(serialize(res)) == res, name
    report(8, "product/additivity + 100 mutations + round-trips", watch)


def test_criterion_9_resolution_independence_at_the_divisor_cap():
    res = catalog.get("gk(60,+,-)")
    blown = blow_up_fixed_point(blow_up_fixed_point(res, 1), 63)
    total = Stopwatch(2.0)
    for other in (res, blown):
        watch = Stopwatch(1.0)
        assert distinguish(res, other, "naive", 16).equal
        watch.check("gk(60,+,-) compare")
    report(9, "gk(60,+,-) against itself and two point blowups", total)


def test_criterion_10_long_series_expansion():
    out = io.StringIO()
    watch = Stopwatch(1.0)
    with redirect_stdout(out):
        code = cli.main(["compute", "y4-x2_Z2", "--format", "series", "--expand", "512"])
    elapsed = watch.check("y4-x2_Z2 through T^512")
    assert code == 0
    series = TSeries.from_json(json.loads(out.getvalue()))
    assert series.order == 512
    z = denef_loeser(catalog.get("y4-x2_Z2"), "naive")
    assert series_values_match(z, series, (2, 3, 5))
    print(f"criterion 10 (y4-x2_Z2 series through T^512): PASS [{elapsed:.2f} s]")


def test_criterion_11_long_oracle_series():
    out = io.StringIO()
    watch = Stopwatch(1.0)
    with redirect_stdout(out):
        code = cli.main(
            ["oracle", "--exponents", "1,1,1", "--trivial-group", "--order", "150"]
        )
    elapsed = watch.check("x*y*z oracle through T^150")
    assert code == 0
    series = TSeries.from_json(json.loads(out.getvalue()))
    assert series.order == 150
    germ = MonomialGerm((1, 1, 1))
    want = enumerated_oracle_series(germ, SignAction(trivial=True), "naive", 40)
    assert series.truncate(40) == want
    print(f"criterion 11 (x*y*z oracle through T^150): PASS [{elapsed:.2f} s]")
