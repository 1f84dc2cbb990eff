import pytest
from helpers import atom_table, folded_beta_value, reference_beta_value
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equizeta import catalog, ratpoly
from equizeta.errors import SchemaError, UnknownAtom
from equizeta.gspace import (
    MAX_AFFINE,
    MAX_DEPTH,
    Atom,
    ClosedComplement,
    DisjointUnion,
    ProductWithAffine,
    ProductWithPuncturedLines,
    Rational,
    atom_value,
    beta_value,
    expr_from_json,
    expr_to_json,
)
from equizeta.ratpoly import RatFunc

PT = RatFunc((0, 1), (-1, 1))
U_MINUS_1 = RatFunc.poly((-1, 1))

ALL_ATOM_NAMES = [name for name, _ in atom_table(max_affine=3)]


class TestAtomCatalog:
    def test_point_pair(self):
        assert atom_value("point_pair_swapped") == RatFunc(1)

    def test_affine_two(self):
        assert atom_value("affine(2)") == RatFunc((0, 0, 0, 1), (-1, 1))

    def test_sphere_free(self):
        assert atom_value("sphere_free") == RatFunc((1, 1, 1))

    def test_affine_zero_is_point(self):
        assert atom_value("affine(0)") == PT
        assert atom_value("affine_trivial(0)") == RatFunc(1)

    def test_projective_line_equals_circle(self):
        assert atom_value("projective_line_G") == atom_value("circle_with_fixed_point")

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtom):
            atom_value("mystery_space")

    def test_affine_dimension_capped(self):
        assert atom_value(f"affine({MAX_AFFINE})") == RatFunc.monomial(MAX_AFFINE + 1) / U_MINUS_1
        for name in (f"affine({MAX_AFFINE + 1})", "affine(1000000000)", f"affine_trivial({10**40})"):
            with pytest.raises(UnknownAtom):
                atom_value(name)

    def test_table_is_deterministic_and_complete(self):
        t1 = atom_table()
        t2 = atom_table()
        assert t1 == t2
        names = [n for n, _ in t1]
        assert "point_fixed" in names and "affine(8)" in names


class TestBetaEval:
    def test_sphere_minus_point_is_affine_plane(self):
        # the one-point compactification argument, run backwards
        expr = ClosedComplement(Atom("sphere_with_fixed_point"), Atom("point_fixed"))
        assert beta_value(expr) == RatFunc((0, 1, 0, 1), (-1, 1)) - PT
        assert beta_value(expr) == atom_value("affine(2)")

    def test_arc_stratum_shape(self):
        # (u-1) * u^(n-m) * u/(u-1) collapses to u^(n-m+1)
        for nm in (0, 1, 5):
            expr = ProductWithPuncturedLines(
                ProductWithAffine(Atom("point_fixed"), nm), 1
            )
            assert beta_value(expr) == RatFunc.monomial(nm + 1)

    def test_empty_union_is_zero(self):
        assert beta_value(DisjointUnion()) == RatFunc(0)

    def test_additivity(self):
        for a in ALL_ATOM_NAMES:
            for b in ALL_ATOM_NAMES[:4]:
                lhs = beta_value(DisjointUnion(Atom(a), Atom(b)))
                assert lhs == atom_value(a) + atom_value(b)

    def test_circle_identity(self):
        expr = ClosedComplement(
            Atom("circle_with_fixed_point"), DisjointUnion(Atom("point_fixed"))
        )
        # u + 2u/(u-1) - u/(u-1) = u + u/(u-1) = u^2/(u-1)
        assert beta_value(expr) == RatFunc((0, 1)) + PT
        assert beta_value(expr) == RatFunc((0, 0, 1), (-1, 1))

    def test_rational_passthrough(self):
        v = RatFunc((3, 1), (2, 5))
        assert beta_value(Rational(v)) == v

    def test_affine_product_composes(self):
        for name in ALL_ATOM_NAMES:
            for a in range(0, 5):
                for b in range(0, 5):
                    once = beta_value(ProductWithAffine(Atom(name), a + b))
                    twice = beta_value(
                        ProductWithAffine(ProductWithAffine(Atom(name), a), b)
                    )
                    assert once == twice

    def test_punctured_product_rule(self):
        for name in ALL_ATOM_NAMES:
            for m in range(0, 9):
                got = beta_value(ProductWithPuncturedLines(Atom(name), m))
                want = atom_value(name)
                for _ in range(m):
                    want = want * U_MINUS_1
                assert got == want

    def test_closed_complement_laurent_is_difference(self):
        sphere = Atom("sphere_with_fixed_point")
        expr = ClosedComplement(sphere, Atom("point_fixed"))
        val = beta_value(expr)
        assert val.laurent(-4) is not None  # expandable; values checked elsewhere


# Rational leaves over distinct denominators: units, powers of u and of u - 1
# and their products, and factors that only the primitive PRS finds; repeats
# among them and the atoms' u - 1 give sums over an equal denominator too
leaf_dens = st.sampled_from(
    [(1,), (2,), (-1, 1), (1, -2, 1), (0, 1), (0, -1, 1), (-2, 2), (1, 1), (1, 0, 1), (3, 1)]
)
leaves = st.one_of(
    st.sampled_from(ALL_ATOM_NAMES).map(Atom),
    st.builds(
        lambda num, den: Rational(RatFunc(tuple(num), den)),
        st.lists(st.integers(-5, 5), max_size=4),
        leaf_dens,
    ),
)
expressions = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda parts: DisjointUnion(*parts)),
        st.builds(ClosedComplement, inner, inner),
        st.builds(ProductWithAffine, inner, st.integers(0, 4)),
        st.builds(ProductWithPuncturedLines, inner, st.integers(0, 4)),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(expressions)
# sums where one side's denominator is 1 add over the other's, unreduced
@example(DisjointUnion(Atom("sphere_free"), Atom("point_fixed"),
                       Rational(RatFunc((1, 2), (0, -1, 1)))))
@example(ClosedComplement(Atom("point_trivial"), DisjointUnion(Atom("point_fixed"))))
def test_beta_value_matches_the_step_by_step_fold(expr):
    assert beta_value(expr) == folded_beta_value(expr)



def catalog_values():
    """Every stratum value of every sample fixture and of the gk and hk
    ladders to k = 14, in every variant, once each."""
    names = catalog.sample_names()
    names += [f"gk({k},{sx},{sy})" for k in range(3, 15) for sx in "+-" for sy in "+-"]
    names += [f"hk({k},{sign})" for k in range(3, 15) for sign in "+-"]
    exprs = {}
    for name in names:
        for st_ in catalog.get(name).strata:
            for expr in (st_.beta, st_.beta_plus, st_.beta_minus):
                if expr is not None:
                    exprs.setdefault(expr, name)
    return exprs


class TestGcdFreeValues:
    def test_catalog_values_need_no_gcd(self, monkeypatch):
        exprs = catalog_values()
        want = {expr: reference_beta_value(expr) for expr in exprs}

        def no_gcd(a, b):
            raise AssertionError("gcd step taken")

        monkeypatch.setattr(ratpoly, "_cofactors", no_gcd)
        for expr, name in exprs.items():
            assert beta_value(expr) == want[expr], name

    @pytest.mark.parametrize("den", [(1, -2, 1), (1, 2)])
    def test_rational_leaves_over_other_denominators_take_the_gcd(self, monkeypatch, den):
        # over (u-1)^2 and 2u + 1 the value goes through RatFunc's gcd step
        exprs = [Rational(RatFunc((0, 1), den)),
                 DisjointUnion(Rational(RatFunc((0, 1), den)), Atom("point_fixed"))]
        want = [reference_beta_value(expr) for expr in exprs]
        steps = []
        cofactors = ratpoly._cofactors
        monkeypatch.setattr(ratpoly, "_cofactors", lambda a, b: steps.append(1) or cofactors(a, b))
        for expr, value in zip(exprs, want):
            steps.clear()
            assert beta_value(expr) == value == folded_beta_value(expr)
            assert steps


class TestJson:
    def test_round_trip_all_nodes(self):
        expr = ClosedComplement(
            DisjointUnion(
                Atom("circle_with_fixed_point"),
                ProductWithAffine(Rational(RatFunc((1, 2), (3,))), 2),
            ),
            ProductWithPuncturedLines(Atom("point_fixed"), 3),
        )
        assert expr_from_json(expr_to_json(expr)) == expr

    def test_unknown_atom_rejected_at_parse(self):
        with pytest.raises(SchemaError):
            expr_from_json({"kind": "atom", "name": "nope"})

    def test_bad_kind(self):
        with pytest.raises(SchemaError):
            expr_from_json({"kind": "tensor", "parts": []})

    def test_negative_dimension_rejected(self):
        with pytest.raises(SchemaError):
            expr_from_json(
                {"kind": "product_affine", "base": {"kind": "atom", "name": "point_fixed"}, "n": -1}
            )

    @pytest.mark.parametrize(
        "expr",
        [
            {"kind": "atom", "name": "affine(1000000000)"},
            {"kind": "atom", "name": f"affine_trivial({MAX_AFFINE + 1})"},
            {"kind": "product_affine", "base": {"kind": "atom", "name": "point_fixed"}, "n": 10**9},
            {"kind": "product_punctured", "base": {"kind": "atom", "name": "point_fixed"}, "m": 10**9},
        ],
    )
    def test_oversized_affine_rejected_at_parse(self, expr):
        with pytest.raises(SchemaError):
            expr_from_json(expr)

    @pytest.mark.parametrize("kind", ["product_affine", "closed_complement", "disjoint_union"])
    def test_nesting_capped_at_max_depth(self, kind):
        def nest(levels):
            expr = {"kind": "atom", "name": "point_fixed"}
            for _ in range(levels - 1):
                if kind == "product_affine":
                    expr = {"kind": kind, "base": expr, "n": 1}
                elif kind == "closed_complement":
                    expr = {"kind": kind, "whole": expr, "closed_part": nest(1)}
                else:
                    expr = {"kind": kind, "parts": [expr]}
            return expr

        assert beta_value(expr_from_json(nest(MAX_DEPTH))) is not None
        for levels in (MAX_DEPTH + 1, 900):
            with pytest.raises(SchemaError, match="nested more than"):
                expr_from_json(nest(levels))
