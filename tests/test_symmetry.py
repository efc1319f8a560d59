"""The five symmetry families: commutation table, lifts, group action, orbits."""

import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from jetweyl.errors import ExprError, JetOrderError, LiftError, PseudogroupError
from jetweyl.exprcore import T, X, Y, equal, formal, is_zero, jet, jet_info
from jetweyl.fields import PointField, prolong
from jetweyl.geometry import Solution
from jetweyl.invariants import counting
from jetweyl.jets import _ring_for, dims, internal_indices, ms_system, principal_indices
from jetweyl.symmetry import (
    _orbit_vectors,
    _solve_lift,
    _TaylorJet,
    GRADES,
    PseudogroupElement,
    ShapeField,
    X4,
    check_symmetry,
    generator,
    grading_check,
    lift_shape_field,
    orbit_dimension,
    orbit_expected_dimension,
    orbit_spanning_count,
    table_cell_text,
    verify_commutation_table,
)

u = jet("u")


def _fields_equal(f1: PointField, f2: PointField) -> bool:
    return all(equal(getattr(f1, n), getattr(f2, n)) for n in ("at", "ax", "ay", "fu", "fv"))


def test_each_family_is_a_symmetry():
    for fam in range(1, 6):
        assert check_symmetry(generator(fam, formal("f"))) is True, fam


def test_broken_field_reports_residuals():
    bad = PointField(ax=formal("a"), fv=-formal("a", 1))  # sign flipped
    res = check_symmetry(bad)
    assert res is not True
    assert len(res) == 2 and not all(is_zero(r) for r in res)



def test_rational_closed_form_parameters_are_symmetries():
    for fam in range(1, 6):
        assert check_symmetry(generator(fam, T**2 / (T + 1) - sp.Rational(1, 3))) is True, fam


@pytest.mark.parametrize("p", [T ** sp.Rational(1, 2), sp.sqrt(2) * T, sp.pi])
def test_parameters_outside_the_rational_functions_are_refused(p):
    # the checks differentiate the parameter in the jet ring over QQ
    with pytest.raises(ExprError, match="rational function of t"):
        check_symmetry(generator(1, p))


def test_commutation_table_closes():
    reports = verify_commutation_table()
    assert len(reports) == 25
    assert all(r.ok for r in reports)


def test_sample_structure_constants():
    # same-family brackets of the x-translations vanish; families 2 and 4
    # bracket back into family 2 with a first-order Wronskian-type parameter
    assert table_cell_text(1, 1) == "0"
    assert "X2(" in table_cell_text(2, 4)
    assert "g'" in table_cell_text(2, 4)


def test_grading():
    assert GRADES == {1: 2, 2: 1, 3: 1, 4: 0, 5: 0}
    assert grading_check()


def test_lift_reproduces_each_family():
    shapes = {
        1: ShapeField(a=formal("a")),
        2: ShapeField(b=formal("b")),
        3: ShapeField(c=formal("c")),
        4: ShapeField(d=formal("d")),
        5: ShapeField(e=formal("e")),
    }
    for fam, shape in shapes.items():
        lifted = lift_shape_field(shape)
        assert _fields_equal(lifted.field, generator(fam, formal(shape_name(fam))))


def shape_name(fam: int) -> str:
    return {1: "a", 2: "b", 3: "c", 4: "d", 5: "e"}[fam]


def test_lift_conformal_factor():
    d, e = formal("d"), formal("e")
    # doubled time component: the factor comes out as 2*(e + d')
    res = lift_shape_field(ShapeField(d=2 * d, e=e))
    assert equal(res.conformal, 2 * (e + formal("d", 1)))
    # single families sit inside the same formula
    assert is_zero(lift_shape_field(ShapeField(a=formal("a"))).conformal)
    assert equal(lift_shape_field(ShapeField(d=d)).conformal, formal("d", 1))


def test_lift_of_x4_matches_hand_written_generator():
    lifted = lift_shape_field(ShapeField(d=formal("d"))).field
    assert _fields_equal(lifted, X4(formal("d")))


def test_lift_refuses_fiber_components():
    with pytest.raises(LiftError, match="no fiber components"):
        lift_shape_field(PointField(ax=T, fu=1))


@pytest.mark.parametrize("base", [PointField(ax=X**2), PointField(at=X), PointField(ay=X)])
def test_lift_of_a_field_that_breaks_the_shape_leaves_components_over(base):
    with pytest.raises(LiftError, match="does not satisfy all components"):
        lift_shape_field(base)


def _lift_rows(rows):
    ring = _ring_for(0, (formal("f"),))
    return [[ring.convert(sp.sympify(e)) for e in row] for row in rows]


def test_lift_solver_refuses_an_underdetermined_system():
    # rank 2 in (A, B, chi): chi is free, so there is more than one solution
    rows = _lift_rows([[1, 0, 0, formal("f")], [0, 1, 0, 2], [1, 1, 0, formal("f") + 2]] * 2)
    with pytest.raises(LiftError, match="underdetermined.*more than one solution"):
        _solve_lift(rows)


def test_lift_solver_refuses_an_inconsistent_system():
    rows = _lift_rows([[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 3], [1, 1, 1, 7]])
    with pytest.raises(LiftError, match="does not satisfy all components"):
        _solve_lift(rows)


def test_lift_solver_returns_the_unique_solution():
    f = formal("f")
    rows = _lift_rows([[1, 0, 0, 1], [0, 1, 0, f], [1, 0, 2, 3], [1, 1, 1, 2 + f]])
    assert [_ring_for(0, (f,)).to_expr(e) for e in _solve_lift(rows)] == [1, f, 1]


# -- group action ----------------------------------------------------------


def test_identity_fixes_sections():
    ident = PseudogroupElement.make()
    moved = Solution(X + sp.exp(Y), sp.Integer(0)).transform(ident)
    assert equal(moved.u, X + sp.exp(Y)) and is_zero(moved.v)


def test_transform_preserves_solutions():
    el = PseudogroupElement.make(d=4 * T, a=T**2, b=T, c=sp.Rational(1, 2) * T, ee=3)
    moved = Solution(X, sp.Integer(0)).transform(el)
    r1, r2 = Solution(moved.u, moved.v, deferred=True).residuals()
    assert moved.checked and is_zero(r1) and is_zero(r2)


def test_order_one_relative_invariant_factor():
    # u_x picks up 1/(E*sqrt(D')) under the action; on the section u = x the
    # composition is invisible, leaving the bare factor
    el = PseudogroupElement.make(d=4 * T, ee=3)
    moved = Solution(X, sp.Integer(0)).transform(el)
    assert equal(sp.diff(moved.u, X), sp.Rational(1, 6))


def test_non_invertible_time_map_rejected():
    with pytest.raises(PseudogroupError):
        PseudogroupElement.make(d=T**2)  # not injective on the line


@pytest.mark.parametrize(
    "ee",
    [
        T + sp.Rational(1, 2),  # root at t = -1/2
        3 * T**2 - T + sp.Rational(1, 20),  # two real roots between 0 and 1/3
        1 / (T**2 - 1),  # poles at t = -1, 1
        -1 - T**2,  # no root, negative
        sp.exp(T),  # positive, but not a rational function
    ],
)
def test_scalings_that_are_not_provably_positive_are_refused(ee):
    with pytest.raises(PseudogroupError):
        PseudogroupElement.make(ee=ee)


def test_time_maps_with_a_critical_point_are_refused():
    # D' = 3t^2 vanishes at t = 0
    with pytest.raises(PseudogroupError):
        PseudogroupElement(d=T**3)


def test_positive_rational_scalings_and_dilations_are_accepted():
    el = PseudogroupElement.make(d=3 * T + 1, ee=1 / (T**2 + 1))
    assert equal(el.ee, 1 / (T**2 + 1))
    assert el.root == sp.sqrt(3) and el.dinv == T / 3 - sp.Rational(1, 3)


def test_reflections():
    sol = Solution(X, sp.Integer(0))
    reflected = sol.reflect("txy")
    assert equal(reflected.u, -X) and is_zero(reflected.v)
    assert equal(sol.reflect("yu").u, -X)
    # yu flips y: v = y^4/12 + x*y goes to y^4/12 - x*y
    reflected = Solution(sp.Integer(0), Y**4 / 12 + X * Y).reflect("yu")
    assert is_zero(reflected.u) and equal(reflected.v, Y**4 / 12 - X * Y)
    with pytest.raises(Exception):
        sol.reflect("xy")


def test_reflections_preserve_solutions():
    sol = Solution(X, sp.Integer(0))
    for which in ("txy", "yu"):
        reflected = sol.reflect(which)
        r1, r2 = Solution(reflected.u, reflected.v, deferred=True).residuals()
        assert reflected.checked and is_zero(r1) and is_zero(r2), which


# -- orbit dimensions ------------------------------------------------------

_GENERIC_K1 = {
    "u": Fraction(1, 2),
    "v": Fraction(-2, 3),
    "u_t": Fraction(1, 4),
    "u_x": Fraction(3, 2),
    "u_y": Fraction(-1, 3),
    "v_t": Fraction(-1, 5),
    "v_x": Fraction(2, 5),
    "v_y": Fraction(1, 7),
}


def test_orbit_dimension_caps_at_the_equation_dimension():
    sys_ = ms_system()
    theta = sys_.point(1, internal=_GENERIC_K1)
    assert orbit_dimension(1, theta) == 11
    assert orbit_spanning_count(1) == 13
    assert orbit_expected_dimension(1) == 11  # capped by dim of the order-1 locus


def test_orbit_dimension_special_point_k2():
    sys_ = ms_system()
    theta = sys_.point(2, internal={"u_x": 1, "u_xx": 1})
    assert orbit_dimension(2, theta) == 18
    assert orbit_expected_dimension(2) == 18


def test_orbit_dimension_special_point_k3():
    sys_ = ms_system()
    theta = sys_.point(3, internal={"u_x": 1, "u_xx": 1})
    assert orbit_dimension(3, theta) == 23
    assert orbit_expected_dimension(3) == 5 * 3 + 8


# The symbolic path the pointwise orbit vectors replaced, kept as their
# oracle: prolonged coefficients D_sigma(phi_w) + transport built as
# expressions, principal coordinates taken from the substitution table.


@lru_cache(maxsize=None)
def _symbolic_fields(k: int) -> tuple[tuple[sp.Expr, ...], ...]:
    rows = []
    for fam in range(1, 6):
        for m in range((k + 1 if fam in (1, 2, 4) else k) + 1):
            field = generator(fam, T**m / sp.Integer(factorial(m)))
            pf = prolong(field, k)
            rows.append(
                (field.at, field.ax, field.ay)
                + tuple(pf.coeff(dep, idx) for dep in "uv" for idx in internal_indices(k))
            )
    return tuple(rows)


def _table_value(theta, s) -> Fraction:
    if s in (T, X, Y):
        return theta.base[s.name]
    dep, idx = jet_info(s)
    if idx.is_internal:
        return theta.internal.get(s, Fraction(0))
    return _table_eval(ms_system().principal_expr(dep, idx), theta)


def _table_eval(e, theta) -> Fraction:
    rep = {}
    for s in sp.sympify(e).free_symbols:
        q = _table_value(theta, s)
        rep[s] = sp.Rational(q.numerator, q.denominator)
    val = sp.sympify(e).xreplace(rep)
    return Fraction(int(val.p), int(val.q))


def _assert_matches_symbolic_path(k: int, theta):
    for idx in principal_indices(k + 1):
        for dep in "uv":
            s = jet(dep, idx)
            assert theta.value(s) == _table_value(theta, s), s
    want = [[_table_eval(e, theta) for e in row] for row in _symbolic_fields(k)]
    assert _orbit_vectors(k, theta) == want


_RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def _jet_points(draw):
    k = draw(st.integers(1, 3))
    base = {c: draw(_RATIONALS) for c in "txy"}
    internal = {
        jet(dep, idx): draw(_RATIONALS)
        for dep in "uv"
        for idx in internal_indices(k)
    }
    return k, ms_system().point(k, base=base, internal=internal)


@given(_jet_points())
@settings(max_examples=12, deadline=None)
def test_orbit_vectors_match_the_symbolic_path(drawn):
    _assert_matches_symbolic_path(*drawn)


def test_orbit_vectors_match_the_symbolic_path_at_order_4():
    rng = random.Random(4)
    internal = {
        jet(dep, idx): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        for dep in "uv"
        for idx in internal_indices(4)
    }
    theta = ms_system().point(
        4, base={"t": Fraction(1, 3), "x": -2, "y": Fraction(5, 4)}, internal=internal
    )
    _assert_matches_symbolic_path(4, theta)


@lru_cache(maxsize=None)
def _generic_orbit_dimension(k: int) -> int:
    rng = random.Random(100 + k)
    internal = {
        jet(dep, idx): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        for dep in "uv"
        for idx in internal_indices(k)
    }
    base = {c: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for c in "txy"}
    return orbit_dimension(k, ms_system().point(k, base=base, internal=internal))


@pytest.mark.parametrize("k", [5, 6, 7])
def test_generic_orbit_rank_at_high_order(k):
    assert _generic_orbit_dimension(k) == 5 * k + 8 == orbit_expected_dimension(k)


def test_ms_counts_are_equation_dimension_minus_orbit_dimension():
    for k in range(2, 8):
        assert dims(k).dim_equation - _generic_orbit_dimension(k) == counting("ms", k).s, k


def test_orbit_vectors_stop_at_the_hard_cap():
    with pytest.raises(JetOrderError):
        orbit_dimension(8, ms_system().point(8))


def test_composition_refuses_non_polynomial_sections():
    series = _TaylorJet(ms_system().point(1), 1)
    with pytest.raises(ValueError):
        series.compose(sp.exp(T) * jet("u", "x"))
    with pytest.raises(ValueError):
        series.compose(formal("f") * jet("u", "x"))
