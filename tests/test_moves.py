"""Moving and reflecting sections in the section field against the
expression-tree code it replaced.

The tree composition (``tree_oracle.tree_moved``/``tree_reflected``, then
the sympy canonical form ``tree_normalize``) is the oracle.
``Solution.transform`` and ``Solution.reflect`` must give structurally the
same (u, v) on every catalog family under seeded pseudogroup elements of
each kind the checks use, and refuse exactly where the tree refuses.
"""

import json
import random

import pytest
import sympy as sp

from jetweyl import checks, exprcore, geometry, sections, symmetry, trees
from jetweyl.cli import main
from jetweyl.errors import ExprError, PseudogroupError, SolutionError
from jetweyl.exprcore import T, validate_kernel
from jetweyl.symmetry import PseudogroupElement
from tree_oracle import tree_at_source, tree_dinv, tree_moved, tree_normalize, tree_reflected

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


def test_move_coefficients_match_the_tree():
    # (t_s, x_s, y_s, E, E', E'', A', B', C, C'), entry for entry, with
    # derivatives taken in the field of the element's data against the
    # tree derivative; the seeded elements have a constant ee,
    # so a few with a time-dependent one and rational coefficients come
    # first
    elements = [
        PseudogroupElement.make(d=4 * T + 1, a=T**3, b=1 / (T**2 + 1), c=T / 3, ee=T**2 + 1),
        PseudogroupElement.make(d=2 * T, a=1 / (T - 5), c=T**2, ee=(T**2 + 2) / (T**4 + 1)),
        PseudogroupElement.make(d=T / 9 - 2, b=T**2 / 2, ee=3 / (2 * T**2 + 3)),
    ]
    rng = random.Random(7301)
    elements += [el for kind in _KINDS for el in checks._random_elements(rng, kind, count=3)]
    for el in elements:
        F, got = sections._preimage(el.element, ())
        # sqrt(D') comes fourth
        assert tree_normalize(F.expr(got[3]) - sp.sqrt(el.element.alpha)) == 0
        got, want = (*got[:3], *got[4:]), tree_at_source(el)
        assert len(got) == len(want) == 10
        for n, (g, w) in enumerate(zip(got, want)):
            assert tree_normalize(F.expr(g) - w) == 0, (el, n)


_SETUPS = [
    (cid, kwargs)
    for cid in geometry.CATALOG_IDS
    for kwargs in ({}, _BOUND.get(cid))
    if kwargs is not None
]


@pytest.mark.parametrize("cid, kwargs", _SETUPS)
def test_a_move_builds_no_field_from_trees(cid, kwargs, monkeypatch):
    """A move or a reflection is arithmetic in the field: it builds no
    section field from trees and converts no field element to a tree (a
    refusal converts the one it words).  A pseudogroup element reads its
    own data from trees when it is made (three ``trees.section_ring``: D,
    ee, then ee, a, b, c together); a move pushes them in the field, so
    that neither a move nor a reflection reads a tree."""
    sol = geometry.catalog(cid, **kwargs)
    sol.field  # the section's own field is built before the count starts
    calls = {"field": 0, "section_ring": 0, "rescaled": 0, "expr": 0}

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)

        return wrapper

    monkeypatch.setattr(
        geometry.SectionField, "__init__", counted("field", geometry.SectionField.__init__)
    )
    ring = counted("section_ring", trees.section_ring)
    for module in (symmetry, trees):
        monkeypatch.setattr(module, "section_ring", ring)
    rescaled = counted("rescaled", exprcore._rescaled)
    for module in (exprcore, trees):
        monkeypatch.setattr(module, "_rescaled", rescaled)
    monkeypatch.setattr(trees._Rescaled, "expr", counted("expr", trees._Rescaled.expr))
    moved = 0
    for kind in _KINDS:
        calls["section_ring"] = 0
        elements = _elements(cid, kind)
        assert calls["section_ring"] == 3 * len(elements)
        for el in elements[:4]:
            for name in calls:
                calls[name] = 0
            refused = _outcome(sol.transform, el) is SolutionError
            moved += not refused
            assert calls == {"field": 0, "section_ring": 0, "rescaled": 0, "expr": refused}, el
    for which in ("txy", "yu"):
        for name in calls:
            calls[name] = 0
        refused = _outcome(sol.reflect, which) is SolutionError
        assert calls == {"field": 0, "section_ring": 0, "rescaled": 0, "expr": refused}
    assert moved > 0


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


_DOMAIN = "leaves the representable domain"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["sl2-family", "--f", "0", "--h", "0", "--B", "1"],
            f"transformed section {_DOMAIN}: y**(1/3) moves to a fractional power of y - 1",
        ),
        (
            ["sl2-family", "--f", "0", "--h", "0", "--reflect", "yu"],
            f"reflected section {_DOMAIN}: y**(1/3) moves to a fractional power of -y",
        ),
        (
            ["exp-family", "--f", "1", "--h", "1", "--E", "t^2+1"],
            f"transformed section {_DOMAIN}: exp(y) moves to exp of y/(t**2 + 1), "
            "which is not linear in t, x, y over QQ",
        ),
        (
            ["exp-family", "--f", "exp(t)", "--h", "1", "--D", "3*t"],
            f"transformed section {_DOMAIN}: exp(y) moves to exp of sqrt(3)*y/3, "
            "which is not linear in t, x, y over QQ",
        ),
        (
            ["u = x^(1/2) ; v = x^(1/2)", "--A", "1"],
            f"transformed section {_DOMAIN}: sqrt(x) moves to a fractional power of x - 1",
        ),
        (
            ["u = x^(1/2) ; v = x^(1/2)", "--reflect", "txy"],
            f"reflected section {_DOMAIN}: sqrt(x) moves to a fractional power of -x",
        ),
        # the element's data move by the same rule: a root of t under a
        # shifted time, and no internal generator named
        (
            ["trivial", "--A", "t^(1/2)*2^(1/3)", "--D", "t+1"],
            f"transformed section {_DOMAIN}: sqrt(t) moves to a fractional power of t - 1",
        ),
        (
            ["trivial", "--A", "t^(1/2)", "--D", "2*t+1"],
            f"transformed section {_DOMAIN}: sqrt(t) moves to a fractional power of t/2 - 1/2",
        ),
        # a formal function is a symbol of its own, not a closed form in t
        (["trivial", "--A", "f(t)"], "a must be a closed form in t, found symbol f"),
        (
            ["sl2-family", "--f", "0", "--h", "0", "--D", "2*t", "--C", "g'(t)"],
            "c must be a closed form in t, found symbol g'",
        ),
    ],
)
def test_move_refusals_on_the_command_line(argv, message, capsys):
    # the exit code and the whole message, as the two-field path printed them
    assert main(["transform", *argv]) == 4
    assert json.loads(capsys.readouterr().out) == {"error": "domain", "message": message}


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
    assert tree_dinv(PseudogroupElement.make(d=d)) == solved


def test_affine_elements_and_moves_call_neither_solve_nor_simplify(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sympy.solve or sympy.simplify was called")

    monkeypatch.setattr(sp, "solve", refuse)
    monkeypatch.setattr(sp, "simplify", refuse)
    el = PseudogroupElement.make(d=4 * T + 1, a=T, c=2 * T, ee=8)
    assert tree_dinv(el) == T / 4 - sp.Rational(1, 4)
    geometry.catalog.cache_clear()  # build the entries under the guard too
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
