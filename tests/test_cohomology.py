import json

import pytest
from helpers import (
    per_degree_cohomology_dim,
    per_degree_e2_page,
    scanned_betti_series,
    summed_norm,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equizeta.cohomology import (
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
from equizeta.errors import InvalidInput, RankTooLarge, SchemaError, TailMismatch
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

SWAP = CyclicGModule(2, F2Matrix.from_rows([[0, 1], [1, 0]]), 2)
ZERO = CyclicGModule.trivial(0)


class TestF2Matrix:
    def test_rank_and_nullity(self):
        m = F2Matrix.from_rows([[1, 1], [1, 1]])
        assert m.rank() == 1 and m.nullity() == 1

    def test_power(self):
        assert SWAP.action.power(2) == F2Matrix.identity(2)

    def test_mul(self):
        a = F2Matrix.from_rows([[1, 1], [0, 1]])
        assert a @ a == F2Matrix.from_rows([[1, 0], [0, 1]])

    def test_bit_strings_round_trip(self):
        m = F2Matrix.from_strings(["011", "101", "000"])
        assert F2Matrix.from_strings(m.to_strings()) == m

    def test_generator_order_must_divide(self):
        three_cycle = F2Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        with pytest.raises(ValueError):
            CyclicGModule(3, three_cycle, 2)
        with pytest.raises(InvalidInput):
            CyclicGModule(3, three_cycle, 2)
        CyclicGModule(3, three_cycle, 3)  # fine


class TestNormElement:
    def test_order_two_trivial_action_vanishes(self):
        assert norm_element(TRIV1) == F2Matrix.zero(1, 1)

    def test_swap_gives_all_ones(self):
        assert norm_element(SWAP) == F2Matrix.from_rows([[1, 1], [1, 1]])

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
        action = F2Matrix.from_rows(rows)
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
            CyclicGModule(2, F2Matrix.from_rows([[1, 1], [0, 1]]), 2),
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

    def test_page_json_round_trip(self):
        page = hs_e2_page([(0, TRIV1), (2, SWAP)], p_min=-4)
        assert SpectralPage.from_json(page.to_json()) == page

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), modules()), max_size=3), st.integers(-40, 0))
    def test_e2_page_matches_per_degree_cohomology(self, homology, p_min):
        # the references build the norm by summed powers, once per degree
        for _, module in homology:
            for n in range(5):
                assert cohomology_dim(module, n) == per_degree_cohomology_dim(module, n)
        assert hs_e2_page(homology, p_min).dims == per_degree_e2_page(homology, p_min)

    @pytest.mark.parametrize("homology, p_min", [([], 1), ([(-1, TRIV1)], -4)])
    def test_out_of_range_page_window_is_invalid_input(self, homology, p_min):
        with pytest.raises(InvalidInput):
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
