"""Moves and reflections in the field against the two-field path they
replaced.

``SectionField.moved`` and ``reflected`` build the moved field in the
field: the images of the auxiliary generators come from one rule
(``sections._image``, shared with ``SectionField.at``), and the section's
values are pushed once.  The oracle is the path they replaced,
``tree_oracle.two_field_moved``/``two_field_reflected``: a field built from
the trees of the map's data, the images of the auxiliary generators as
trees, and a second field built from all of them.  The two must agree
entry for entry: the ring keys in order, the readings in order, and the
numerator and denominator dicts of the moved (u, v); every refusal must
give the same class and message, but for the data of the elements of
``_REWORDED``.  An element's data are read at t once and then moved by the
same rule, so a root of t under a shifted time is refused as a section's
root is, and a datum that cannot be read is worded as it was given.
"""

import pytest
import sympy as sp

from jetweyl import geometry, sections
from jetweyl.errors import DivisionByZeroExpression, SolutionError
from jetweyl.exprcore import T, X, Y
from jetweyl.symmetry import PseudogroupElement
from test_moves import _BOUND, _KINDS, _elements
from tree_oracle import two_field_moved, two_field_reflected

make = PseudogroupElement.make
_f, _g = sp.Function("f")(T), sp.Function("g")(T)


def _state(move, sf, arg):
    """(ring keys, readings, (numerator, denominator) dicts of the values)
    of a moved field, or the class and message of the refusal."""
    try:
        F = move(sf, arg)
    except (SolutionError, DivisionByZeroExpression) as exc:
        return type(exc), str(exc)
    values = [(dict(f.numer), dict(f.denom)) for f in F.values]
    return F.ring.keys, list(F._readings.items()), values


_DOMAIN = "transformed section leaves the representable domain"
# element -> the refusal of its data, where the two-field path worded the
# tree at t_s it could not read
_REWORDED = {
    make(d=T + 1, a=sp.sqrt(T)): f"{_DOMAIN}: sqrt(t) moves to a fractional power of t - 1",
    make(d=2 * T, b=_f): f"{_DOMAIN}: f(t) is not a rational function of the jet coordinates",
}


def _moved(sf, element):
    return sf.moved(element.element)


def _compare(cases) -> tuple[int, int]:
    """Assert each (section field, element or reflection) case equal on
    both paths; (moved, refused) counts."""
    counts = [0, 0]
    for sf, arg in cases:
        if isinstance(arg, str):
            paths = sections.SectionField.reflected, two_field_reflected
        else:
            paths = _moved, two_field_moved
        new, old = (_state(path, sf, arg) for path in paths)
        if arg in _REWORDED:
            old = old[0], _REWORDED[arg]
        assert new == old, arg
        counts[isinstance(new[0], type)] += 1
    return tuple(counts)


def _x_root():
    return geometry.Solution(sp.sqrt(X), sp.sqrt(X), deferred=True).field


def _t_powers():
    # roots and exponentials of t, which the element's data bring too
    return [
        geometry.Solution(T ** sp.Rational(1, 3) * X, sp.sqrt(T), deferred=True).field,
        geometry.Solution(sp.exp(T / 2) * X, sp.exp(T) + Y, deferred=True).field,
    ]


def _catalog_field(cid, **kwargs):
    return geometry.catalog(cid, **kwargs).field


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("cid", geometry.CATALOG_IDS)
def test_seeded_moves_match_the_two_field_path(cid, kind):
    sf = _catalog_field(cid, **_BOUND.get(cid, {}))
    _compare((sf, el) for el in _elements(cid, kind))


@pytest.mark.parametrize("cid", geometry.CATALOG_IDS)
def test_formal_moves_and_reflections_match_the_two_field_path(cid):
    formal = _catalog_field(cid)
    cases = [(formal, el) for el in _elements(cid, "noshift")[:3]]
    for sf in (formal, _catalog_field(cid, **_BOUND.get(cid, {}))):
        cases += [(sf, which) for which in ("txy", "yu")]
    _compare(cases)


# elements whose data bring generators of their own: roots of t, constant
# radicals and exponentials, at a shifted and a scaled time
_DATA_ELEMENTS = (
    make(d=4 * T, a=sp.sqrt(T)),
    make(d=4 * T, a=T ** sp.Rational(3, 2) + sp.sqrt(T), c=sp.sqrt(2)),
    make(d=T + 1, a=sp.sqrt(T)),
    make(d=2 * T, c=sp.sqrt(2) * T),
    make(d=3 * T + 1, a=sp.sqrt(2), ee=2),
    make(a=sp.exp(T)),
    make(d=2 * T + 1, c=sp.exp(T), b=sp.sqrt(2)),
    make(d=2 * T, a=sp.exp(2 * T)),
    make(d=9 * T, a=sp.exp(T) * T ** sp.Rational(1, 3), ee=T**2 + 1),
    make(d=9 * T, c=T ** sp.Rational(1, 3)),
    make(d=4 * T, a=sp.exp(T / 3)),
)


def _sections() -> list:
    return [
        _catalog_field("trivial"),
        _catalog_field("dkp-partial"),
        _catalog_field("hierarchy"),
        _catalog_field("sl2-family", f=0, h=0),
        _catalog_field("sl2-degenerate"),
        _catalog_field("exp-family", f=1, h=1),
        _catalog_field("exp-family"),
        _x_root(),
        *_t_powers(),
    ]


def test_element_data_with_roots_radicals_and_exponentials():
    moved, refused = _compare((sf, el) for sf in _sections() for el in _DATA_ELEMENTS)
    assert moved >= 30 and refused >= 10


def test_moves_that_bring_constant_radicals():
    sl2 = _catalog_field("sl2-family", f=0, h=0)
    cases = [
        (sl2, make(d=2 * T)),
        (sl2, make(d=2 * T, ee=3)),
        (sl2, make(d=6 * T, ee=sp.Rational(5, 4))),
        (_x_root(), make(d=3 * T)),
        (_x_root(), make(d=2 * T, ee=3)),
        (_catalog_field("exp-family", f=1, h=1), make(d=2 * T)),
    ]
    moved, refused = _compare(cases)
    assert moved == 5 and refused == 1
    F = sl2.moved(make(d=2 * T, ee=3).element)
    assert [k for k in F._readings if k[0] == "radical"] == [("radical", 2, 6), ("radical", 3, 3)]


@pytest.mark.parametrize(
    "sf, arg",
    [
        (lambda: _catalog_field("sl2-family", f=0, h=0), make(b=1)),
        (lambda: _catalog_field("sl2-family", f=0, h=0), "yu"),
        (lambda: _catalog_field("sl2-family", f=0, h=0), "txy"),
        (lambda: _catalog_field("exp-family", f=1, h=1), make(ee=T**2 + 1)),
        (lambda: _catalog_field("exp-family", f=sp.exp(T), h=1), make(d=3 * T)),
        (_x_root, make(a=1)),
        (_x_root, "txy"),
        (lambda: _catalog_field("trivial"), make(d=T + 1, a=sp.sqrt(T))),
        # sympy functions of t pass the element's check, and its data refuse them
        (lambda: _catalog_field("trivial"), make(a=_f)),
        (lambda: _catalog_field("sl2-family"), make(c=_g.diff(T))),
        (lambda: _catalog_field("exp-family", f=1, h=1), make(d=2 * T, b=_f)),
    ],
)
def test_refusals_match_the_two_field_path(sf, arg):
    assert _compare([(sf(), arg)]) == (0, 1)


def test_a_root_exponent_off_by_one_fails_the_oracle(monkeypatch):
    # a mutant of the shared rule: b^(1/m) moves as b^(1/(m+1)) would
    image = sections._image

    def mutant(reading, *args):
        kind, i, k = reading
        return image((kind, i, k + 1) if kind == "root" else reading, *args)

    monkeypatch.setattr(sections, "_image", mutant)
    sl2 = _catalog_field("sl2-family", f=0, h=0)
    with pytest.raises(AssertionError):
        _compare([(sl2, make(d=2 * T, ee=3))])
    with pytest.raises(AssertionError):
        _compare((sl2, el) for el in _elements("sl2-family", "cube"))
