"""Moving and reflecting sections in the section field against the
expression-tree code it replaced.

The tree versions of ``transform_section`` and ``reflect_section`` live
here as the oracle: substitute the preimage point into u and v, add the
fibre terms, ``normalize``.  The field versions must give structurally the
same (u, v) on every catalog family under seeded pseudogroup elements of
each kind the checks use, and refuse exactly where the tree refuses.
"""

import random

import pytest
import sympy as sp

from jetweyl import checks, geometry
from jetweyl.errors import ExprError, PseudogroupError, SolutionError
from jetweyl.exprcore import T, X, Y, normalize, partial, validate_kernel
from jetweyl.symmetry import PseudogroupElement, reflect_section, transform_section

# ---------------------------------------------------------------------------
# the tree oracle


def tree_transform_section(element, u_expr, v_expr):
    ts, xs, ys = element.source_point()

    def at_src(e):
        return sp.sympify(e).subs(T, ts)

    E = at_src(element.ee)
    Ep = at_src(partial(element.ee, "t"))
    Epp = at_src(partial(partial(element.ee, "t"), "t"))
    s = at_src(element.root)
    dprime = s**2
    Csrc = at_src(element.c)
    Aprime = at_src(partial(element.a, "t"))
    Bprime = at_src(partial(element.b, "t"))
    point_subs = {T: ts, X: xs, Y: ys}
    try:
        u_src = sp.sympify(u_expr).xreplace(point_subs)
        v_src = sp.sympify(v_expr).xreplace(point_subs)
        u_new = (
            (E / s) * u_src
            - (ys / E**2) * at_src(partial(element.ee**3 / element.root, "t"))
            + Bprime / dprime
            - 2 * Csrc / (E * s)
        )
        v_new = (
            (E**2 / dprime) * v_src
            + ((Csrc + 2 * E * Ep * ys) / dprime) * u_src
            + ((E * Epp - 3 * Ep**2) / dprime) * ys**2
            + (E**4 / dprime) * at_src(partial(element.c / element.ee**4, "t")) * ys
            + (2 * E * Ep / dprime) * xs
            + (E**2 * Aprime - Csrc**2) / (dprime * E**2)
        )
        u_new = validate_kernel(normalize(u_new), allow_exp=True)
        v_new = validate_kernel(normalize(v_new), allow_exp=True)
    except ExprError as exc:
        raise SolutionError(f"transformed section leaves the representable domain: {exc}") from None
    return u_new, v_new


def tree_reflect_section(which, u_expr, v_expr):
    u_expr, v_expr = sp.sympify(u_expr), sp.sympify(v_expr)
    if which == "txy":
        flip = {T: -T, X: -X, Y: -Y}
        out = (u_expr.xreplace(flip), v_expr.xreplace(flip))
    else:
        flip = {Y: -Y}
        out = (-u_expr.xreplace(flip), v_expr.xreplace(flip))
    try:
        return tuple(validate_kernel(normalize(e), allow_exp=True) for e in out)
    except ExprError as exc:
        raise SolutionError(f"reflected section leaves the representable domain: {exc}") from None


def _outcome(fn, *args):
    """(u, v), or the error class the call raised."""
    try:
        return fn(*args)
    except (SolutionError, PseudogroupError, ExprError) as exc:
        return type(exc)


_BOUND = {
    "dkp-partial": {"h": 0},
    "exp-family": {"f": 1, "h": 1},
    "sl2-family": {"f": 0, "h": 0},
    "sl2-degenerate": {"f": 0, "h": 0},
}
_KINDS = ("cube", "noshift", "free")
_ELEMENTS = 10


def _elements(cid: str, kind: str) -> list:
    rng = random.Random(7000 + 10 * geometry.CATALOG_IDS.index(cid) + _KINDS.index(kind))
    return checks._random_elements(rng, kind, count=_ELEMENTS)


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("cid", geometry.CATALOG_IDS)
def test_moves_match_the_tree(cid, kind):
    sol = geometry.catalog(cid, **_BOUND.get(cid, {}))
    for el in _elements(cid, kind):
        want = _outcome(tree_transform_section, el, sol.u, sol.v)
        assert _outcome(transform_section, el, sol.u, sol.v) == want, el
        if isinstance(want, tuple):
            moved = sol.transform(el)
            assert (moved.u, moved.v) == want and moved.checked


@pytest.mark.parametrize("cid", geometry.CATALOG_IDS)
def test_moves_with_formal_parameters_match_the_tree(cid):
    sol = geometry.catalog(cid)
    for el in _elements(cid, "noshift")[:3]:
        want = _outcome(tree_transform_section, el, sol.u, sol.v)
        assert _outcome(transform_section, el, sol.u, sol.v) == want, el


@pytest.mark.parametrize("which", ("txy", "yu"))
@pytest.mark.parametrize("cid", geometry.CATALOG_IDS)
def test_reflections_match_the_tree(cid, which):
    for kwargs in ({}, _BOUND.get(cid, {})):
        sol = geometry.catalog(cid, **kwargs)
        want = _outcome(tree_reflect_section, which, sol.u, sol.v)
        assert _outcome(reflect_section, which, sol.u, sol.v) == want
        if isinstance(want, tuple):
            reflected = sol.reflect(which)
            assert (reflected.u, reflected.v) == want


# ---------------------------------------------------------------------------
# refusals: images outside the term language


def _refused_on_both_paths(sol, el):
    with pytest.raises(SolutionError):
        tree_transform_section(el, sol.u, sol.v)
    with pytest.raises(SolutionError):
        transform_section(el, sol.u, sol.v)
    with pytest.raises(SolutionError, match="leaves the representable domain"):
        sol.transform(el)


def test_a_y_shift_of_a_fractional_power_is_refused():
    # y^(1/3) would move to (y - b)^(1/3)
    sol = geometry.catalog("sl2-family", f=0, h=0)
    for b in (1, T):
        _refused_on_both_paths(sol, PseudogroupElement.make(b=b))


def test_a_time_dependent_scaling_of_an_exponential_is_refused():
    # exp(y) would move to exp(y/ee(t)), not linear in t, x, y
    sol = geometry.catalog("exp-family", f=1, h=1)
    _refused_on_both_paths(sol, PseudogroupElement.make(ee=T**2 + 1))


def test_a_radical_inverse_time_map_is_refused():
    el = PseudogroupElement.make(d=T**3 + T)
    for cid in ("trivial", "hierarchy"):
        _refused_on_both_paths(geometry.catalog(cid), el)


@pytest.mark.parametrize("which", ("txy", "yu"))
def test_reflections_of_the_sl2_family_are_refused(which):
    # y^(1/3) would move to (-y)^(1/3)
    sol = geometry.catalog("sl2-family", f=0, h=0)
    with pytest.raises(SolutionError):
        tree_reflect_section(which, sol.u, sol.v)
    with pytest.raises(SolutionError):
        reflect_section(which, sol.u, sol.v)
    with pytest.raises(SolutionError, match="leaves the representable domain"):
        sol.reflect(which)


def test_unknown_reflection_is_a_value_error():
    with pytest.raises(ValueError):
        geometry.catalog("trivial").reflect("xy")


# ---------------------------------------------------------------------------
# the inverse time map


@pytest.mark.parametrize(
    "d",
    [4 * T + 1, T + sp.Rational(2, 3), 9 * T - sp.Rational(1, 3), 2 * T, T, 3 * T / 7 + 5],
)
def test_affine_inverse_equals_the_solve_inverse(d):
    w = sp.Dummy("w")
    (solved,) = sp.solve(sp.Eq(d.subs(T, w), T), w)
    assert PseudogroupElement.make(d=d).dinv == solved


def test_affine_elements_and_moves_call_neither_solve_nor_simplify(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sympy.solve or sympy.simplify was called")

    monkeypatch.setattr(sp, "solve", refuse)
    monkeypatch.setattr(sp, "simplify", refuse)
    el = PseudogroupElement.make(d=4 * T + 1, a=T, c=2 * T, ee=8)
    assert el.dinv == T / 4 - sp.Rational(1, 4)
    for cid in geometry.CATALOG_IDS:
        sol = geometry.catalog(cid, **_BOUND.get(cid, {}))
        if cid != "sl2-family":
            sol.reflect("txy")
        assert sol.transform(el).checked


def test_non_affine_time_maps_keep_the_radical_solve(monkeypatch):
    # __post_init__ has checked D(D^-1(t)) = t for the radical inverse
    el = PseudogroupElement.make(d=T**3 + T)
    assert not el.dinv.is_rational_function(T)
    monkeypatch.setattr(sp, "solve", lambda *a, **k: [])
    with pytest.raises(PseudogroupError, match="could not invert"):
        PseudogroupElement.make(d=T**3 + T)
