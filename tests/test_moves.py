"""Moving and reflecting sections in the section field against the
expression-tree code it replaced.

The tree composition (``tree_oracle.tree_moved``/``tree_reflected``, then
the sympy canonical form ``tree_normalize``) is the oracle.
``Solution.transform`` and ``Solution.reflect`` must give structurally the
same (u, v) on every catalog family under seeded pseudogroup elements of
each kind the checks use, and refuse exactly where the tree refuses.
"""

import random

import pytest
import sympy as sp

from jetweyl import checks, geometry
from jetweyl.errors import ExprError, PseudogroupError, SolutionError
from jetweyl.exprcore import T, validate_kernel
from jetweyl.symmetry import PseudogroupElement
from tree_oracle import tree_moved, tree_normalize, tree_reflected

# ---------------------------------------------------------------------------
# the tree oracle


def _canonical_or_refused(exprs, what: str):
    try:
        return tuple(validate_kernel(tree_normalize(e), allow_exp=True) for e in exprs)
    except ExprError as exc:
        raise SolutionError(f"{what} section leaves the representable domain: {exc}") from None


def tree_transform_section(element, u_expr, v_expr):
    return _canonical_or_refused(tree_moved(element, u_expr, v_expr), "transformed")


def tree_reflect_section(which, u_expr, v_expr):
    return _canonical_or_refused(tree_reflected(which, u_expr, v_expr), "reflected")


def transform_section(element, sol):
    moved = sol.transform(element)
    assert moved.checked
    return moved.u, moved.v


def reflect_section(which, sol):
    reflected = sol.reflect(which)
    return reflected.u, reflected.v


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
        assert _outcome(transform_section, el, sol) == want, el


@pytest.mark.parametrize("cid", geometry.CATALOG_IDS)
def test_moves_with_formal_parameters_match_the_tree(cid):
    sol = geometry.catalog(cid)
    for el in _elements(cid, "noshift")[:3]:
        want = _outcome(tree_transform_section, el, sol.u, sol.v)
        assert _outcome(transform_section, el, sol) == want, el


@pytest.mark.parametrize("which", ("txy", "yu"))
@pytest.mark.parametrize("cid", geometry.CATALOG_IDS)
def test_reflections_match_the_tree(cid, which):
    for kwargs in ({}, _BOUND.get(cid, {})):
        sol = geometry.catalog(cid, **kwargs)
        want = _outcome(tree_reflect_section, which, sol.u, sol.v)
        assert _outcome(reflect_section, which, sol) == want


# ---------------------------------------------------------------------------
# refusals: images outside the term language


def _refused_on_both_paths(sol, el):
    with pytest.raises(SolutionError):
        tree_transform_section(el, sol.u, sol.v)
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
    # D = t^3 + t is a bijection of the line, but its inverse is a radical,
    # which no section field holds: the element is refused when it is made
    for d in (T**3 + T, T**5 + 2 * T - 1):
        with pytest.raises(PseudogroupError, match="must be affine"):
            PseudogroupElement.make(d=d)


@pytest.mark.parametrize("which", ("txy", "yu"))
def test_reflections_of_the_sl2_family_are_refused(which):
    # y^(1/3) would move to (-y)^(1/3)
    sol = geometry.catalog("sl2-family", f=0, h=0)
    with pytest.raises(SolutionError):
        tree_reflect_section(which, sol.u, sol.v)
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
    # no time map reaches sympy's solve: a non-affine D is refused up front,
    # by make and by the constructor alike
    def refuse(*args, **kwargs):
        raise AssertionError("sympy.solve was called")

    monkeypatch.setattr(sp, "solve", refuse)
    for d in (T**3 + T, T**2, 1 / (T**2 + 1), sp.sqrt(2) * T):
        with pytest.raises(PseudogroupError, match="must be affine"):
            PseudogroupElement.make(d=d)
    with pytest.raises(PseudogroupError, match="must be affine"):
        PseudogroupElement(d=T**3)
