import json
import time
from unittest import mock

import pytest
from helpers import (
    f2_from_rows,
    nullity,
    per_degree_cohomology_dim,
    per_degree_e2_page,
    reference_pipeline,
    scanned_betti_series,
    subtracted_page,
    summed_norm,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_cli import call, paths

from equizeta import cohomology
from equizeta.cohomology import (
    MAX_PAGE_CELLS,
    MAX_PAGE_DEPTH,
    CyclicGModule,
    F2Matrix,
    SpectralPage,
    TailSpec,
    apply_differentials,
    betti_series,
    circle_fixed_pipeline,
    cohomology_dim,
    hs_e2_page,
    norm_element,
    run_pipeline,
    sphere_fixed_pipeline,
    sphere_free_pipeline,
)
from equizeta.errors import (
    EquizetaError,
    InvalidInput,
    RankTooLarge,
    SchemaError,
    TailMismatch,
)
from equizeta.gspace import atom_value
from equizeta.ratpoly import RatFunc

TRIV1 = CyclicGModule.trivial(1)


@st.composite
def modules(draw):
    """A module of dimension <= 4 whose generator is a random product of row
    additions, with a group order that its matrix order divides."""
    dim = draw(st.integers(0, 4))
    rows = [1 << i for i in range(dim)]
    if dim > 1:
        for i, j in draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)))):
            if i != j:
                rows[i] ^= rows[j]
    action = F2Matrix(dim, dim, tuple(rows))
    order = next(e for e in range(1, 16) if action.power(e) == F2Matrix.identity(dim))
    return CyclicGModule(dim, action, order * draw(st.integers(1, 3)))

SWAP = CyclicGModule(2, f2_from_rows([[0, 1], [1, 0]]), 2)
ZERO = CyclicGModule.trivial(0)


class TestF2Matrix:
    def test_rank_and_nullity(self):
        m = f2_from_rows([[1, 1], [1, 1]])
        assert m.rank() == 1 and nullity(m) == 1

    def test_power(self):
        assert SWAP.action.power(2) == F2Matrix.identity(2)
        # a negative exponent halved forever at -1
        with pytest.raises(ValueError, match="negative exponent"):
            SWAP.action.power(-1)

    def test_mul(self):
        a = f2_from_rows([[1, 1], [0, 1]])
        assert a @ a == f2_from_rows([[1, 0], [0, 1]])

    def test_bit_strings_round_trip(self):
        m = F2Matrix.from_strings(["011", "101", "000"])
        assert F2Matrix.from_strings(m.to_strings()) == m

    def test_generator_order_must_divide(self):
        three_cycle = f2_from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        with pytest.raises(ValueError):
            CyclicGModule(3, three_cycle, 2)
        with pytest.raises(InvalidInput):
            CyclicGModule(3, three_cycle, 2)
        CyclicGModule(3, three_cycle, 3)  # fine

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 4).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
                st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
            )
        ),
        st.integers(0, 7),
    )
    def test_built_matrices_pass_the_full_check(self, rows, e):
        # sums, products, powers and the classmethods skip the per-row
        # check, so each must equal its checked copy
        a, b = (F2Matrix(len(r), len(r), tuple(r)) for r in rows)
        n = a.rows
        strings = [format(r, f"0{n}b")[::-1] for r in a.data]
        repeated = F2Matrix.identity(n)
        for _ in range(e):
            repeated = F2Matrix(n, n, (repeated @ a).data)
        built = [a + b, a @ b, a.power(e), F2Matrix.identity(n), F2Matrix.zero(n, 3),
                 F2Matrix.from_strings(strings, n)]
        for m in built:
            assert m == F2Matrix(m.rows, m.cols, m.data)
        assert built[-1] == a and built[2] == repeated

    @pytest.mark.parametrize(
        "row", ["0b1", " 1", "1_0", "+1", "2", "\uff11", "1\n", "", "101", 1]
    )
    def test_bad_bit_string_rows_are_schema_errors(self, row):
        with pytest.raises(SchemaError, match="bad bit-string row"):
            F2Matrix.from_strings(["01", row], 2)

    @pytest.mark.parametrize("first", [5, None, 1.0, ["01"]])
    def test_a_first_row_that_is_not_a_string_is_a_schema_error(self, first):
        # with no cols given, the width is read only from a string first row
        with pytest.raises(SchemaError, match="bad bit-string row"):
            F2Matrix.from_strings([first])

    def test_negative_dimensions_are_value_errors(self):
        for build in (lambda: F2Matrix.identity(-1), lambda: F2Matrix.zero(1, -1),
                      lambda: F2Matrix.from_strings([], -1)):
            with pytest.raises(ValueError, match="negative matrix dimensions"):
                build()


class TestNormElement:
    def test_order_two_trivial_action_vanishes(self):
        assert norm_element(TRIV1) == F2Matrix.zero(1, 1)

    def test_swap_gives_all_ones(self):
        assert norm_element(SWAP) == f2_from_rows([[1, 1], [1, 1]])

    def test_order_three_trivial_is_identity(self):
        assert norm_element(CyclicGModule.trivial(1, 3)) == F2Matrix.identity(1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda dim: st.lists(
                st.lists(st.integers(0, 1), min_size=dim, max_size=dim),
                min_size=dim, max_size=dim,
            )
        ),
        st.integers(1, 6),
    )
    def test_doubling_matches_the_summed_powers(self, rows, multiple):
        action = f2_from_rows(rows)
        assume(action.rank() == action.rows)
        order, power = 1, action
        while power != F2Matrix.identity(action.rows):
            order, power = order + 1, power @ action
        for d in range(order, order * multiple + 1, order):
            module = CyclicGModule(action.rows, action, d)
            assert norm_element(module) == summed_norm(module), d


class TestCohomologyDim:
    def test_trivial_module_every_degree_one(self):
        assert [cohomology_dim(TRIV1, n) for n in range(6)] == [1] * 6

    def test_trivial_action_matches_dim_in_every_degree(self):
        for dim in range(4):
            mod = CyclicGModule.trivial(dim)
            for n in range(5):
                assert cohomology_dim(mod, n) == dim

    def test_free_module_higher_cohomology_vanishes(self):
        dims = [cohomology_dim(SWAP, n) for n in range(5)]
        assert dims == [1, 0, 0, 0, 0]

    def test_zero_module(self):
        assert [cohomology_dim(ZERO, n) for n in range(4)] == [0] * 4

    def test_period_two(self):
        mats = [
            TRIV1,
            SWAP,
            CyclicGModule(2, f2_from_rows([[1, 1], [0, 1]]), 2),
            CyclicGModule.trivial(3, 4),
        ]
        for mod in mats:
            evens = {cohomology_dim(mod, n) for n in range(2, 11, 2)}
            odds = {cohomology_dim(mod, n) for n in range(1, 11, 2)}
            assert len(evens) == 1 and len(odds) == 1


class TestPages:
    def test_sphere_free_e2(self):
        page = hs_e2_page([(0, TRIV1), (2, TRIV1)], p_min=-6)
        for p in range(-6, 1):
            assert page.dim(p, 0) == 1
            assert page.dim(p, 2) == 1
            assert page.dim(p, 1) == 0

    def test_empty_homology(self):
        assert hs_e2_page([], p_min=-4) == SpectralPage()

    def test_circle_rows(self):
        page = hs_e2_page([(0, TRIV1), (1, TRIV1)], p_min=-5)
        for p in range(-5, 1):
            assert page.dim(p, 0) == page.dim(p, 1) == 1

    def test_differentials_kill_pairs(self):
        page = hs_e2_page([(0, TRIV1), (2, TRIV1)], p_min=-12)
        ranks = [(3, p, 0, 1) for p in range(0, -10, -1)]
        final = apply_differentials(page, ranks)
        assert {(p, q) for (p, q) in final.dims if q == 2} == {(0, 2), (-1, 2), (-2, 2)}

    def test_no_declarations_is_identity(self):
        page = hs_e2_page([(0, TRIV1), (2, TRIV1)], p_min=-5)
        assert apply_differentials(page, []) == page

    def test_negative_rank_is_a_value_error(self):
        page = hs_e2_page([(0, TRIV1), (2, TRIV1)], p_min=-5)
        with pytest.raises(ValueError, match="non-negative"):
            apply_differentials(page, [(3, 0, 0, -1)])

    def test_rank_too_large(self):
        page = hs_e2_page([(0, TRIV1), (2, TRIV1)], p_min=-5)
        with pytest.raises(RankTooLarge):
            apply_differentials(page, [(3, 0, 0, 2)])

    def test_never_increases_and_preserves_alternating_sum(self):
        page = hs_e2_page([(0, TRIV1), (2, TRIV1)], p_min=-12)
        ranks = [(3, p, 0, 1) for p in range(0, -6, -1)]
        final = apply_differentials(page, ranks)
        for key, d in final.dims.items():
            assert d <= page.dim(*key)
        # each subtraction pair sits in adjacent total degrees, so the
        # alternating sum over a window containing every pair is unchanged
        for lo, hi in [(-8, 2), (-7, 1)]:
            before = sum((-1) ** n * page.antidiagonal(n) for n in range(lo, hi + 1))
            after = sum((-1) ** n * final.antidiagonal(n) for n in range(lo, hi + 1))
            assert before == after

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), modules()), max_size=3), st.integers(-40, 0))
    def test_e2_page_matches_per_degree_cohomology(self, homology, p_min):
        # the references build the norm by summed powers, once per degree
        for _, module in homology:
            for n in range(5):
                assert cohomology_dim(module, n) == per_degree_cohomology_dim(module, n)
        assert hs_e2_page(homology, p_min).dims == per_degree_e2_page(homology, p_min)

    @pytest.mark.parametrize(
        "homology, p_min",
        [
            ([], 1),
            ([(-1, TRIV1)], -4),
            ([(0, TRIV1)], -MAX_PAGE_DEPTH - 1),
            ([(MAX_PAGE_DEPTH + 1, TRIV1)], -4),
        ],
    )
    def test_out_of_range_page_window_is_invalid_input(self, homology, p_min):
        with pytest.raises(InvalidInput):
            hs_e2_page(homology, p_min)

    def test_a_page_from_a_mapping_lists_its_entries_at_once(self):
        # its zero rows span the window down to the lowest p, which dims
        # does not walk
        entries = {(-10**7, 0): 1, (0, 3): 2}
        start = time.perf_counter()
        assert SpectralPage(entries).dims == entries
        assert time.perf_counter() - start < 0.5

    def test_deepest_page_window_runs(self):
        page = hs_e2_page([(0, TRIV1)], -MAX_PAGE_DEPTH)
        assert min(p for p, _ in page.dims) == -MAX_PAGE_DEPTH

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 3), modules()), max_size=3),
        st.integers(-12, 0),
        st.lists(st.tuples(st.integers(-2, 4), st.integers(-12, 0), st.integers(0, 4),
                           st.integers(0, 2)), max_size=6),
    )
    def test_built_pages_equal_their_revalidated_copies(self, homology, p_min, ranks):
        page = hs_e2_page(dict(homology).items(), p_min)
        assert page == SpectralPage(dict(page.dims))
        try:
            final = apply_differentials(page, ranks)
        except RankTooLarge:
            return
        assert final == SpectralPage(dict(final.dims))

    def test_a_rank_that_uses_up_source_and_target_drops_both(self):
        page = hs_e2_page([(0, TRIV1), (2, TRIV1)], p_min=-4)
        # d^3 from (0, 0) to (-3, 2), each of dimension 1
        final = apply_differentials(page, [(3, 0, 0, 1)])
        assert final.dims == {key: d for key, d in page.dims.items()
                              if key not in ((0, 0), (-3, 2))}
        assert final == SpectralPage(dict(final.dims))

    def test_page_cells_are_capped(self):
        # 16 rows of 4096 entries fill the cap exactly; one more column or
        # row is refused before any entry is built
        rows = [(q, TRIV1) for q in range(16)]
        assert 16 * 4096 == MAX_PAGE_CELLS
        assert len(hs_e2_page(iter(rows), -4095).dims) == MAX_PAGE_CELLS
        for homology, p_min in ((rows, -4096), (rows + [(16, TRIV1)], -4095)):
            with pytest.raises(InvalidInput, match="MAX_PAGE_CELLS"):
                hs_e2_page(homology, p_min)


class TestBettiSeries:
    def test_free_sphere(self):
        series = run_pipeline(sphere_free_pipeline())
        assert series == RatFunc((1, 1, 1))
        assert series == atom_value("sphere_free")

    def test_fixed_sphere(self):
        series = run_pipeline(sphere_fixed_pipeline())
        assert series == RatFunc((0, 1, 0, 1), (-1, 1))
        assert series == atom_value("sphere_with_fixed_point")

    def test_fixed_circle_matches_atom(self):
        assert run_pipeline(circle_fixed_pipeline()) == atom_value(
            "circle_with_fixed_point"
        )

    def test_all_zero_page(self):
        assert betti_series(SpectralPage(), TailSpec(0, 0)) == RatFunc(0)

    @pytest.mark.parametrize(
        "build", [sphere_free_pipeline, sphere_fixed_pipeline, circle_fixed_pipeline]
    )
    def test_a_page_from_its_dims_has_the_same_series(self, build):
        # a page built from a mapping holds every entry as an offset on zero
        # rows, a pipeline's as closed-form rows less the declared ranks
        seen = []

        def recording(page, tail):
            seen.append((page, tail))
            return betti_series(page, tail)

        with mock.patch.object(cohomology, "betti_series", recording):
            series = run_pipeline(build())
        (page, tail), = seen
        assert betti_series(SpectralPage(page.dims), tail) == series

    def test_a_deep_entry_costs_its_degree_not_its_window(self):
        # the page's zero row at q = 0 spans p = -10^6 .. 0, but only the
        # entry's degree is summed
        start = time.perf_counter()
        series = betti_series(SpectralPage({(-10**6, 0): 1}), TailSpec(-10**6 - 5, 0))
        assert series == RatFunc.monomial(-10**6)
        assert time.perf_counter() - start < 0.5

    @settings(max_examples=80, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(-8, 0), st.integers(0, 4)), st.integers(0, 3), max_size=12
        ),
        st.integers(-12, 6),
        st.integers(0, 3),
        st.dictionaries(st.integers(-12, 6), st.integers(0, 3), max_size=2),
    )
    def test_series_matches_the_antidiagonal_scan(self, dims, n0, tail_dim, explicit):
        page = SpectralPage(dims)
        tail = TailSpec(n0, tail_dim, explicit)
        want = scanned_betti_series(page, tail)
        if isinstance(want, str):
            with pytest.raises(TailMismatch) as info:
                betti_series(page, tail)
            assert str(info.value).startswith(want)
        else:
            assert betti_series(page, tail) == want

    def test_tail_mismatch_detected(self):
        page = hs_e2_page([(0, TRIV1), (2, TRIV1)], p_min=-8)
        with pytest.raises(TailMismatch):
            betti_series(page, TailSpec(stable_below=1, tail_dim=1))

    def test_explicit_mismatch_detected(self):
        page = hs_e2_page([(0, TRIV1), (2, TRIV1)], p_min=-8)
        with pytest.raises(TailMismatch):
            betti_series(page, TailSpec(1, 2, {2: 5}))

    def test_module_json_round_trip(self):
        for mod in (TRIV1, SWAP, CyclicGModule.trivial(2, 4)):
            assert CyclicGModule.from_json(mod.to_json()) == mod

    def test_pipeline_round_trips_through_json_text(self):
        spec = sphere_fixed_pipeline()
        again = json.loads(json.dumps(spec))
        assert run_pipeline(again) == run_pipeline(spec)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("p_min",), "-16"),
            (("p_min",), -16.0),
            (("homology", 0, "q"), True),
            (("homology", 0, "module", "dim"), "1"),
            (("homology", 0, "module", "group_order"), 2.0),
            (("differentials", 0, "rank"), "1"),
            (("tail", "tail_dim"), False),
            (("tail", "explicit", "0"), 1.0),
            (("tail", "explicit"), {"zero": 1}),
            (("differentials", 0, "rank"), -1),
        ],
    )
    def test_numbers_must_be_non_negative_json_integers(self, path, value):
        spec = sphere_free_pipeline()
        *head, last = path
        target = spec
        for key in head:
            target = target[key]
        target[last] = value
        with pytest.raises(SchemaError):
            run_pipeline(spec)


# -- fuzzing run_pipeline: mutated built-in specs fail only as EquizetaError ----

PIPELINES = (sphere_free_pipeline, sphere_fixed_pipeline, circle_fixed_pipeline)
BOUNDARY_INTS = sorted({
    s * n for s in (1, -1)
    for n in (0, 1, 2, 3, MAX_PAGE_DEPTH - 1, MAX_PAGE_DEPTH, MAX_PAGE_DEPTH + 1,
              MAX_PAGE_CELLS - 1, MAX_PAGE_CELLS, MAX_PAGE_CELLS + 1)
})
RETYPED = ("1", "", 1.0, -16.0, True, False, None, [], [1], {}, {"q": 0})
KEYS = ("01", "+1", " 1", "1_0", "-1", "3", "x", "")


@st.composite
def mutated_pipelines(draw):
    """A built-in pipeline at a drawn p_min with one to three mutations, each
    at a drawn node: dropped, retyped, set to an integer at or past a page
    cap, or (in a mapping) re-keyed."""
    build = draw(st.sampled_from(PIPELINES))
    # a copy through JSON text, so that no two nodes are one object
    spec = json.loads(json.dumps(build(draw(st.sampled_from((-16, -64, -256))))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([p for p in paths(spec) if p]))
        *head, last = path
        parent = spec
        for key in head:
            parent = parent[key]
        kind = draw(st.sampled_from(("drop", "retype", "integer", "rekey")))
        if kind == "drop":
            del parent[last]
        elif kind == "retype":
            # a copy, so that a later mutation leaves RETYPED as it is
            parent[last] = json.loads(json.dumps(draw(st.sampled_from(RETYPED))))
        elif kind == "integer":
            parent[last] = draw(st.sampled_from(BOUNDARY_INTS))
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(KEYS))] = parent.pop(last)
    return spec


@settings(max_examples=300, deadline=None)
@given(mutated_pipelines())
@example({**sphere_free_pipeline(-16), "p_min": -MAX_PAGE_DEPTH})
@example({**sphere_free_pipeline(-16), "p_min": -MAX_PAGE_DEPTH - 1})
@example({**sphere_fixed_pipeline(-16), "homology": [
    {"q": q, "module": TRIV1.to_json()} for q in range(16)], "p_min": 1 - MAX_PAGE_DEPTH})
def test_mutated_pipelines_fail_only_as_equizeta_errors(spec):
    pages = []

    def recording(build):
        def wrapper(*args):
            pages.append(build(*args))
            return pages[-1]
        return wrapper

    with mock.patch.object(cohomology, "hs_e2_page", recording(hs_e2_page)), \
            mock.patch.object(cohomology, "apply_differentials", recording(apply_differentials)):
        try:
            run_pipeline(json.loads(json.dumps(spec)))
        except EquizetaError:
            pass
    for page in pages:
        assert type(page.dims) is dict
        assert page == SpectralPage(dict(page.dims))


# -- run_pipeline against a second path --------------------------------------------

@st.composite
def declarations(draw, e2):
    """A differential (r, p, q, rank): mostly one whose source and target
    both hold a class of the E2 dimensions ``e2``, so that some runs apply
    declarations and reach the series, and sometimes one anywhere near the
    window."""
    feasible = [
        (q_t - q + 1, p, q)
        for (p, q) in e2
        for q_t in {q for _, q in e2}
        if (p - (q_t - q + 1), q_t) in e2
    ]
    if feasible and draw(st.sampled_from((True, True, True, False))):
        r, p, q = draw(st.sampled_from(feasible))
        return r, p, q, draw(st.integers(1, min(e2[p, q], e2[p - r, q + r - 1])))
    r, p, q = draw(st.integers(-1, 5)), draw(st.integers(-28, 2)), draw(st.integers(-1, 6))
    return r, p, q, draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.one_of(modules().filter(lambda m: m.dim), modules())),
        min_size=1, max_size=3, unique_by=lambda e: e[0],
    ),
    st.integers(-24, 0),
    st.data(),
    st.integers(-28, 8),
    st.one_of(st.none(), st.integers(0, 4)),
    st.dictionaries(st.integers(-28, 8), st.one_of(st.none(), st.integers(0, 4)), max_size=3),
)
def test_run_pipeline_matches_the_reference_pipeline(homology, p_min, data, n0, tail_dim,
                                                     explicit):
    e2 = per_degree_e2_page(homology, p_min)
    ranks = data.draw(st.lists(declarations(e2), max_size=3))
    # None asks for the reference page's own values, from the first cutoff
    # at or above n0 under which they are constant, so that series are
    # compared, not only refusals
    try:
        final = subtracted_page(homology, p_min, ranks)
    except RankTooLarge:
        final = {}

    def actual(n):
        return sum(d for (p, q), d in final.items() if p + q == n)

    if tail_dim is None:
        while not actual(n0 - 3) == actual(n0 - 2) == actual(n0 - 1):
            n0 += 1
        tail_dim = actual(n0 - 1)
    tail = TailSpec(
        n0, tail_dim, {n: actual(n) if want is None else want for n, want in explicit.items()}
    )
    spec = json.loads(json.dumps({
        "homology": [{"q": q, "module": module.to_json()} for q, module in homology],
        "p_min": p_min,
        "differentials": [{"r": r, "p": p, "q": q, "rank": rank} for r, p, q, rank in ranks],
        "tail": {"stable_below": tail.stable_below, "tail_dim": tail.tail_dim,
                 "explicit": {str(n): d for n, d in tail.explicit.items()}},
    }))

    def outcome(evaluate):
        try:
            return evaluate()
        except EquizetaError as exc:
            return type(exc), str(exc)

    assert outcome(lambda: run_pipeline(spec)) == outcome(
        lambda: reference_pipeline(homology, p_min, ranks, tail)
    )


# -- refusal texts, pinned as they were before the exact-type reader ------------------

MISSING = object()
WRONG_TYPES = ("1", 1.0, True, None, MISSING)
# field: its path in sphere_free_pipeline(), the refusal of a wrong type and
# the refusal of a missing key
REFUSALS = {
    "p_min": (("p_min",), "pipeline.p_min: expected integer",
              "pipeline: missing field 'p_min'"),
    "homology q": (("homology", 0, "q"), "homology entry.q: expected integer",
                   "homology entry: missing field 'q'"),
    "module dim": (("homology", 0, "module", "dim"), "module.dim: expected integer",
                   "module: missing field 'dim'"),
    "module group_order": (("homology", 1, "module", "group_order"),
                           "module.group_order: expected integer",
                           "module: missing field 'group_order'"),
    "module action": (("homology", 0, "module", "action"), "module.action: expected array",
                      "module: missing field 'action'"),
    "differential r": (("differentials", 0, "r"), "differential.r: expected integer",
                       "differential: missing field 'r'"),
    "differential p": (("differentials", 5, "p"), "differential.p: expected integer",
                       "differential: missing field 'p'"),
    "differential q": (("differentials", 0, "q"), "differential.q: expected integer",
                       "differential: missing field 'q'"),
    "differential rank": (("differentials", 13, "rank"), "differential.rank: expected integer",
                          "differential: missing field 'rank'"),
    "tail stable_below": (("tail", "stable_below"), "tail.stable_below: expected integer",
                          "tail: missing field 'stable_below'"),
    "tail tail_dim": (("tail", "tail_dim"), "tail.tail_dim: expected integer",
                      "tail: missing field 'tail_dim'"),
    # a missing explicit value pins nothing, and the pipeline runs
    "tail explicit": (("tail", "explicit", "0"), "tail.explicit.0: expected integer", None),
}


@pytest.mark.parametrize("value", WRONG_TYPES, ids=("string", "float", "bool", "null", "missing"))
@pytest.mark.parametrize("field", REFUSALS)
def test_pinned_refusal_of_each_pipeline_field(field, value):
    path, wrong_type, missing = REFUSALS[field]
    spec = sphere_free_pipeline()
    *head, last = path
    parent = spec
    for key in head:
        parent = parent[key]
    if value is MISSING:
        del parent[last]
    else:
        parent[last] = value
    result = call(["cohomology", "-"], json.dumps(spec))
    if value is MISSING and missing is None:
        assert result == (0, "u^2 + u + 1\nlaurent u^2..u^-4: 1 1 1 0 0 0 0\n", "")
    else:
        text = missing if value is MISSING else wrong_type
        assert result == (3, "", f"error: {text}\n")


def test_subclasses_of_the_json_types_read_as_before():
    # a field that fails the exact type check goes through ``require``, which
    # accepts a subclass of the JSON type, as the reader always did
    class Int(int):
        pass

    class Dict(dict):
        pass

    def retyped(node):
        if type(node) is dict:
            return Dict((key, retyped(value)) for key, value in node.items())
        if type(node) is list:
            return [retyped(value) for value in node]
        return Int(node) if type(node) is int else node

    for build in (sphere_free_pipeline, sphere_fixed_pipeline, circle_fixed_pipeline):
        assert run_pipeline(retyped(build())) == run_pipeline(build())


# -- what a pipeline costs: counted, not timed -----------------------------------------

class TestPipelineCost:
    def test_identical_modules_cost_one_cohomology_computation_per_page(self):
        dims = mock.Mock(wraps=cohomology._cohomology_dims)
        rank = mock.Mock(wraps=F2Matrix.rank)
        with mock.patch.object(cohomology, "_cohomology_dims", dims), \
                mock.patch.object(F2Matrix, "rank", lambda self: rank(self)):
            assert run_pipeline(sphere_free_pipeline()) == RatFunc((1, 1, 1))
        # one module, ranked once for 1 + s and once for the norm
        assert dims.call_count == 1 and rank.call_count == 2
        with mock.patch.object(cohomology, "_cohomology_dims", dims):
            hs_e2_page([(0, TRIV1), (1, SWAP), (2, TRIV1), (3, SWAP)], -4)
        assert dims.call_count == 3

    def test_a_module_listed_twice_is_built_once(self):
        # the built-in pipelines list one trivial module in both rows; a copy
        # through JSON text makes the two rows distinct, equal dicts
        for build in (sphere_free_pipeline, sphere_fixed_pipeline, circle_fixed_pipeline):
            want = run_pipeline(build())
            built = mock.Mock(wraps=CyclicGModule.from_json)
            with mock.patch.object(CyclicGModule, "from_json", built):
                assert run_pipeline(json.loads(json.dumps(build()))) == want
            assert built.call_count == 1

    @pytest.mark.parametrize(
        "field, value, error",
        [("dim", True, "module.dim: expected integer"),
         ("dim", 1.0, "module.dim: expected integer"),
         ("group_order", 2.0, "module.group_order: expected integer")],
    )
    def test_a_module_equal_only_under_json_equality_is_still_refused(self, field, value, error):
        # True == 1 and 1.0 == 1 in JSON (and Python) equality, so a build
        # shared by equal module JSON would let the second row through
        spec = sphere_free_pipeline()
        spec["homology"][1]["module"] = {**spec["homology"][0]["module"], field: value}
        assert spec["homology"][1]["module"] == spec["homology"][0]["module"]
        assert call(["cohomology", "-"], json.dumps(spec)) == (3, "", f"error: {error}\n")

    def test_a_page_stores_its_rows_and_declarations_not_its_window(self):
        pages = []

        def recording(build):
            def wrapper(*args):
                pages.append(build(*args))
                return pages[-1]
            return wrapper

        for build in (sphere_free_pipeline, sphere_fixed_pipeline):
            for p_min in (-16, -MAX_PAGE_DEPTH):
                spec = build(p_min)
                declared = len(spec["differentials"])
                pages.clear()
                with mock.patch.object(cohomology, "hs_e2_page", recording(hs_e2_page)), \
                        mock.patch.object(cohomology, "apply_differentials",
                                          recording(apply_differentials)):
                    run_pipeline(spec)
                e2, final = pages
                # two rows, and an offset at each source and target of a
                # declaration at most, whatever the window
                assert (len(e2._rows), len(e2._offsets)) == (2, 0)
                assert final._rows is e2._rows and len(final._offsets) <= 2 * declared

    def test_the_series_does_not_depend_on_the_window(self):
        for build in (sphere_free_pipeline, sphere_fixed_pipeline, circle_fixed_pipeline):
            assert run_pipeline(build(-MAX_PAGE_DEPTH)) == run_pipeline(build(-16))
