"""The five symmetry families: commutation table, lifts, group action, orbits."""

import random
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from jetweyl.counts import counting, dims
from jetweyl.errors import ExprError, JetOrderError, LiftError, PseudogroupError
from jetweyl.exprcore import T, X, Y, equal, formal, is_zero, jet, jet_info
from jetweyl.fields import PointField, ProlongedField
from jetweyl.geometry import Solution
from jetweyl.jets import _jet_ring, internal_indices, ms_system, principal_indices
from jetweyl.trees import _ring_for
from jetweyl import exprcore, invariants, jets, linalg, symmetry
from jetweyl.symmetry import (
    _TaylorJet,
    _derivatives,
    _orbit_vectors,
    _solve_lift,
    GRADES,
    PseudogroupElement,
    ShapeField,
    _parameter,
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
from tree_oracle import partial, tree_dinv, tree_family, tree_normalize

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



_PARAMETERS = (
    "f",
    formal("g", 2),
    T * formal("f") + formal("g", 1) / (T**2 + 1),
    T**3 / 6,
    sp.Integer(5),
    T**2 / (T + 1) - sp.Rational(1, 3),
    (2 * T - 1) / (T**2 + 1) ** 2,
)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_dot_matches_the_tree_derivative(n):
    # the ring's D_t against sympy's diff with the formal chain rule
    for p in map(_parameter, _PARAMETERS):
        got = _derivatives(p, n)
        assert len(got) == n + 1 and got[0] == p
        want = p
        for j in range(1, n + 1):
            want = partial(want, "t")
            assert tree_normalize(got[j] - want) == 0, (p, j)


def test_bare_formal_and_constant_parameters_convert_nothing(monkeypatch):
    # their derivatives are read off formal_shift, or are zero; a rational
    # closed form is still differentiated in a jet ring
    from jetweyl import jets

    calls, convert = [], jets._JetRing.convert

    def counted(self, e):
        calls.append(e)
        return convert(self, e)

    monkeypatch.setattr(jets._JetRing, "convert", counted)
    a = formal("a")
    assert _derivatives("a", 2) == [a, formal("a", 1), formal("a", 2)]
    assert _derivatives(formal("g", 2), 1) == [formal("g", 2), formal("g", 3)]
    assert _derivatives(sp.Rational(-3, 2), 2) == [sp.Rational(-3, 2), 0, 0]
    assert [type(q) for q in _derivatives(0, 1)] == [sp.core.numbers.Zero] * 2
    assert calls == []
    assert _derivatives(2 * a, 2) == [2 * a, 2 * formal("a", 1), 2 * formal("a", 2)]
    assert calls == [2 * a]


_COMPONENTS = ("at", "ax", "ay", "fu", "fv")


def _differences(fam: int, p) -> list[str]:
    """The components in which generator(fam, p) differs from the
    hand-written family."""
    got, want = generator(fam, p).components(), tree_family(fam, p).components()
    return [n for n, a, b in zip(_COMPONENTS, got, want) if tree_normalize(a - b) != 0]


@pytest.mark.parametrize("fam", range(1, 6))
def test_generator_matches_the_hand_written_family(fam):
    for p in _PARAMETERS:
        assert _differences(fam, p) == [], p


def test_shape_base_field_matches_its_closed_form():
    # d*d_t + (a + y*c + 2x*e + y^2*e')*d_x + (b + y*d'/2 + y*e)*d_y
    params = [formal(p) if isinstance(p, str) else p for p in _PARAMETERS]
    for a, b, c, d, e in (params[:5], params[2:], params[::-1][:5]):
        got = ShapeField(a, b, c, d, e).base_field().components()
        want = (
            d,
            a + Y * c + 2 * X * e + Y**2 * partial(e, "t"),
            b + partial(d, "t") * Y / 2 + Y * e,
            0,
            0,
        )
        assert [tree_normalize(g - w) for g, w in zip(got, want)] == [0] * 5


def test_a_wrong_table_coefficient_fails_its_family(monkeypatch):
    # X3 has f^v = u*p + y*p'; with the coefficient of p' doubled the
    # generator leaves the hand-written family in f^v only, and the field is
    # no symmetry
    rows = list(symmetry._FAMILIES[3])
    rows[4] = (u, 2 * Y, 0)
    monkeypatch.setitem(symmetry._FAMILIES, 3, tuple(rows))
    assert _differences(3, "f") == ["fv"]
    assert [fam for fam in range(1, 6) if _differences(fam, "f")] == [3]
    assert check_symmetry(generator(3, formal("f"))) is not True
    assert check_symmetry(generator(2, formal("f"))) is True
    # the commutator check reads the same table: what fails are cells with
    # X3 on either side ([X2, X5] has X3 on the right)
    failed = {(r.i, r.j) for r in verify_commutation_table() if not r.ok}
    assert failed and all(3 in cell or cell in ((2, 5), (5, 2)) for cell in failed)


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


def test_a_wrong_table_entry_fails_exactly_its_two_cells(monkeypatch):
    # [X1(f), X4(g)] = X1(-g*f'); the flipped sign is caught in cell (1, 4)
    # and, by antisymmetry, in cell (4, 1), with the residual of the
    # bracket minus the wrong right-hand side
    monkeypatch.setitem(symmetry._TABLE, (1, 4), ((1, lambda f, g, dot: g * dot(f)),))
    failed = {(r.i, r.j): str(r.residual) for r in verify_commutation_table() if not r.ok}
    assert failed == {
        (1, 4): "(-2*f'(t)*g(t))*d_x + (-2*f'(t)*g'(t) - 2*f''(t)*g(t))*d_v",
        (4, 1): "(2*f(t)*g'(t))*d_x + (2*f(t)*g''(t) + 2*f'(t)*g'(t))*d_v",
    }
    assert table_cell_text(1, 4) == "X1(f'(t)*g(t))"
    assert not grading_check()


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
    assert _fields_equal(lifted, tree_family(4, formal("d")))


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
    sol = Solution(moved.u, moved.v, deferred=True)
    r1, r2 = map(sol.field.expr, sol._residuals())
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
    assert el.element.alpha == 3 and tree_dinv(el) == T / 3 - sp.Rational(1, 3)


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
        sol = Solution(reflected.u, reflected.v, deferred=True)
        r1, r2 = map(sol.field.expr, sol._residuals())
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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_orbit_dimension_drops_at_the_zero_jet(k, monkeypatch):
    # the spanning fields are dependent at the zero jet, so the rank mod p
    # certifies nothing and Bareiss's elimination decides
    calls = []
    real = linalg._bareiss_rank
    monkeypatch.setattr(linalg, "_bareiss_rank", lambda mat: calls.append(1) or real(mat))
    theta = ms_system().point(k)
    vectors = _orbit_vectors(k, theta)
    want = sp.Matrix(vectors).rank()
    assert want < min(len(vectors), len(vectors[0]))
    assert orbit_dimension(k, theta) == want == 5 * k + 5
    assert calls == [1]


# The symbolic path the pointwise orbit vectors replaced, kept as their
# oracle: the hand-written families, their prolonged coefficients
# D_sigma(phi_w) + transport built as expressions, principal coordinates
# taken from the substitution table.


@lru_cache(maxsize=None)
def _symbolic_fields(k: int) -> tuple[tuple[sp.Expr, ...], ...]:
    rows = []
    for fam in range(1, 6):
        for m in range((k + 1 if fam in (1, 2, 4) else k) + 1):
            field = tree_family(fam, T**m / sp.Integer(factorial(m)))
            pf = ProlongedField(field, k)
            ring = pf._ring(sp.Integer(0))
            rows.append(
                (field.at, field.ax, field.ay)
                + tuple(
                    ring.to_expr(pf._coeff_in(ring, dep, idx))
                    for dep in "uv"
                    for idx in internal_indices(k)
                )
            )
    return tuple(rows)


def _table_value(theta, s) -> Fraction:
    if s in (T, X, Y):
        return theta.base[s.name]
    dep, idx = jet_info(s)
    if idx.is_internal:
        return theta.internal.get(s.name, Fraction(0))
    ring = _jet_ring(idx.order)
    return _table_eval(ring.to_expr(ring.field.raw_new(ring.principal(ring.symbol_index[s]))), theta)


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


def _chosen_point(k: int, t, x, y, seed: int, denominators=(1, 2, 97, 101)):
    rng = random.Random(seed)
    internal = {
        jet(dep, idx): Fraction(rng.randint(-99, 99), rng.choice(denominators))
        for dep in "uv"
        for idx in internal_indices(k)
    }
    return k, ms_system().point(k, base={"t": t, "x": x, "y": y}, internal=internal)


# t0 = 0, negative base coordinates and internal values over large coprime
# denominators, at each order the integer series see
@example(_chosen_point(1, 0, Fraction(-7, 3), -2, 1))
@example(_chosen_point(2, Fraction(-5, 4), -1, Fraction(-9, 7), 2))
@example(_chosen_point(3, 0, Fraction(-1, 97), Fraction(3, 101), 3))
@example(_chosen_point(4, 0, -3, Fraction(-2, 5), 4, denominators=(97, 101)))
@given(_jet_points())
@settings(max_examples=12, deadline=None)
def test_orbit_vectors_match_the_symbolic_path(drawn):
    _assert_matches_symbolic_path(*drawn)


def test_the_taylor_jet_holds_integers():
    k, theta = _chosen_point(3, Fraction(2, 3), Fraction(-1, 5), Fraction(7, 4), 5)
    series = _TaylorJet(theta, k)
    for fam in range(1, 6):
        series.vectors(fam, k + 1)
    held = [*series.args, *series._monomials.values()]
    assert len(series._monomials) > 1
    assert all(type(q) is int for s in held for q in s.values())


def _taylor_args_by_value(theta, k):
    """The argument series of ``_TaylorJet(theta, k)`` from
    ``JetPoint.value`` in ``Fraction``s: t, x, y about the base point, w
    with the coefficients w_sigma / sigma! through degree k, and w_t, w_x,
    w_y with w_{sigma+t} / sigma! and so on, at the internal sigma of
    order <= k."""
    def coeff(dep, sigma):
        return theta.value(jet(dep, sigma)) / prod(map(factorial, sigma))

    sigmas = [(i.nt, i.nx, i.ny) for i in internal_indices(k)]
    out = []
    for s in _jet_ring(1).symbols:
        if s in (T, X, Y):
            unit = tuple(int(b == s) for b in (T, X, Y))
            out.append({(0, 0, 0): theta.value(s), unit: Fraction(1)})
            continue
        dep, idx = jet_info(s)
        step = (idx.nt, idx.nx, idx.ny)
        out.append({
            sigma: coeff(dep, tuple(a + b for a, b in zip(sigma, step)))
            * prod(a + b for a, b in zip(sigma, step) if b)
            for sigma in sigmas
        })
    return out


@pytest.mark.parametrize(
    "drawn",
    [
        _chosen_point(1, 0, Fraction(-7, 3), -2, 1),
        _chosen_point(3, 0, Fraction(-1, 97), Fraction(3, 101), 3),
        _chosen_point(4, 0, -3, Fraction(-2, 5), 4, denominators=(97, 101)),
    ],
)
def test_the_taylor_series_are_the_point_values_over_their_denominator(drawn):
    k, theta = drawn
    series = _TaylorJet(theta, k)
    want = _taylor_args_by_value(theta, k)
    assert len(series.args) == len(want) == 11
    for got, exact in zip(series.args, want):
        # the internal keys exactly, each with its exact value
        assert all(not (i and j) for i, j, _ in got)
        assert {key: Fraction(n, series.L) for key, n in got.items()} == exact


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


def test_a_second_orbit_dimension_builds_no_sympy_polynomial(monkeypatch):
    rng = random.Random(7)

    def point():
        internal = {
            jet(dep, idx): Fraction(rng.randint(1, 9), rng.randint(1, 7))
            for dep in "uv"
            for idx in internal_indices(3)
        }
        return ms_system().point(3, base={"t": Fraction(rng.randint(-3, 3), 2)}, internal=internal)

    first = orbit_dimension(3, point())
    counts = {"Poly": 0, "generator": 0}
    poly_new = sp.Poly.__new__
    real_generator = symmetry.generator

    def counting_poly(cls, *args, **kwargs):
        counts["Poly"] += 1
        return poly_new(cls, *args, **kwargs)

    def counting_generator(*args, **kwargs):
        counts["generator"] += 1
        return real_generator(*args, **kwargs)

    monkeypatch.setattr(sp.Poly, "__new__", counting_poly)
    monkeypatch.setattr(symmetry, "generator", counting_generator)
    assert sp.Poly(T).degree() == 1 and counts["Poly"] == 1  # the counter counts
    counts["Poly"] = 0
    assert orbit_dimension(3, point()) == first == 23
    assert counts == {"Poly": 0, "generator": 0}


def test_the_taylor_jet_and_the_point_sums_make_no_fraction(monkeypatch):
    # theta hands its coordinates over as integers over one denominator
    k, theta = _chosen_point(4, Fraction(-5, 4), -1, Fraction(-9, 7), 2)
    table = invariants._order3()
    # the table's cached rows are parsed on first read, which makes Fractions
    table.twelve, table.nabla
    made = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    if hasattr(Fraction, "_from_coprime_ints"):
        real_coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(cls, *args):
            made.append(args)
            return real_coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    assert Fraction(1, 2) + Fraction(1, 3) and len(made) >= 2  # the counter counts
    made.clear()
    series = _TaylorJet(theta, k)
    for fam in range(1, 6):
        for comp in symmetry._family_terms(fam):
            for _, c, _ in comp:
                jets._poly_sums(theta, _jet_ring(1), c)
                series.compose(c, 1)
    for f in table.twelve:
        jets._poly_sums(theta, table.ring, f.numer)
    assert made == []


def test_a_warm_orbit_dimension_builds_no_jet_symbol(monkeypatch):
    # the Taylor series reads theta's coordinates by key, not by symbol
    rng = random.Random(28)

    def point():
        internal = {
            jet(dep, idx): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for dep in "uv"
            for idx in internal_indices(4)
        }
        return ms_system().point(4, base={"t": Fraction(rng.randint(-3, 3), 2)}, internal=internal)

    first = orbit_dimension(4, point())
    theta = point()
    calls = []
    real_jet = exprcore.jet

    def counting_jet(*args, **kwargs):
        calls.append(args)
        return real_jet(*args, **kwargs)

    for module in (exprcore, symmetry):
        monkeypatch.setattr(module, "jet", counting_jet)
    assert exprcore.resolve_symbol("u_xy") is not None and len(calls) == 1  # the counter counts
    calls.clear()
    assert orbit_dimension(4, theta) == first == 28
    assert calls == []
