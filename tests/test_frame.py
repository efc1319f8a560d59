"""The closed-form canonical frame against the sympy matrix algebra it
replaced.

``tree_oracle.tree_canonical_frame`` (``nullspace``, ``inv`` and ``rank``
with the exact zero test) is the oracle.  On a seeded corpus of catalog
setups, moved sections and an ansatz pair with a null kernel line,
``canonical_frame`` must give the same verdict and notes, structurally the
same e1 and e2, and e3 and |d omega|^2 equal under the exact zero test; every
frame it gives must have the defining properties.
"""

import random
from fractions import Fraction

import pytest
import sympy as sp

from jetweyl import checks
from jetweyl.exprcore import T, X, Y, is_zero
from jetweyl.geometry import Solution, build_pair, canonical_frame, catalog
from tree_oracle import TreeSection, tree_canonical_frame, tree_d_omega

_SETUPS = (
    ("trivial", {}),
    ("dkp-partial", {"h": 0}),
    ("exp-family", {"f": 0, "h": 0}),
    ("exp-family", {"f": 1, "h": 1}),
    ("exp-family", {"f": T, "h": T**2}),
    ("hierarchy", {}),
    ("sl2-family", {"f": 0, "h": 0}),
    ("sl2-family", {"f": 1, "h": -1}),
    ("sl2-degenerate", {"f": 0, "h": 0}),
)

# the ansatz pair of a section that solves nothing: its kernel line is null
# where 4*k*x + x^4 + 4*x*y + 16 = 0 (k = -21/4), and omega(e1) is not 0 there
_NULL_LINE = (X**2 / 2 - sp.Rational(21, 4) * Y, X * Y)
_NULL_POINTS = ((0, 1, 1), (3, 1, 1), (0, 2, Fraction(5, 4)), (0, 2, 1))


def _point(rng, positive_y: bool) -> tuple:
    def q():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    y = Fraction(rng.randint(1, 6), rng.randint(1, 3)) if positive_y else q()
    return (q(), q(), y)


def _corpus() -> list:
    """(label, pair, point): six seeded points for each catalog setup, three
    for each of three moved sections, and the null-line pair."""
    rng = random.Random(1212)
    out = []
    for cid, kwargs in _SETUPS:
        pair = build_pair(catalog(cid, **kwargs))
        for _ in range(6):
            out.append((cid, pair, _point(rng, cid.startswith("sl2"))))
    moved = (
        ("hierarchy", {}, "free"),
        ("exp-family", {"f": 1, "h": 1}, "noshift"),
        ("sl2-family", {"f": 0, "h": 0}, "cube"),
    )
    for cid, kwargs, kind in moved:
        (element,) = checks._random_elements(rng, kind, count=1)
        pair = build_pair(catalog(cid, **kwargs).transform(element))
        for _ in range(3):
            out.append((f"{cid}|moved", pair, _point(rng, cid.startswith("sl2"))))
    pair = build_pair(Solution(*_NULL_LINE, deferred=True))
    out.extend(("null-line", pair, p) for p in _NULL_POINTS)
    return out


_CORPUS = _corpus()
_IDS = [f"{label}-{i}" for i, (label, _, _) in enumerate(_CORPUS)]


def test_the_corpus_reaches_every_outcome():
    assert len(_CORPUS) >= 60
    frames = [canonical_frame(pair, pt) for _, pair, pt in _CORPUS]
    assert {f.reason for f in frames} == {
        None,
        "d omega vanishes at the point",
        "omega(e1) = 0 at the point",
        "Ker(d omega) is null at the point",
    }
    # frames whose entries are radicals, and both signs of J^2
    assert any(c.has(sp.Pow) and not c.is_Rational for f in frames if f.ok for c in f.e2)
    assert {f.j_squared_sign for f in frames if f.ok} == {1, -1}


@pytest.mark.parametrize("label, pair, pt", _CORPUS, ids=_IDS)
def test_frame_matches_the_tree(label, pair, pt):
    got, want = canonical_frame(pair, pt), tree_canonical_frame(pair.solution, pt)
    assert (got.ok, got.reason, got.notes, got.j_squared_sign) == (
        want.ok,
        want.reason,
        want.notes,
        want.j_squared_sign,
    )
    assert got.e1 == want.e1 and got.e2 == want.e2
    if got.ok:
        assert all(is_zero(a - b) for a, b in zip(got.e3, want.e3))
        assert is_zero(got.dw_norm_squared - want.dw_norm_squared)


@pytest.mark.parametrize("label, pair, pt", _CORPUS, ids=_IDS)
def test_frame_has_its_defining_properties(label, pair, pt):
    fr = canonical_frame(pair, pt)
    if not fr.ok:
        return
    point = {c: sp.Rational(q) for c, q in zip((T, X, Y), pt)}
    g, w = TreeSection(pair.solution).pair()
    g, w, A = (m.xreplace(point) for m in (g, w, tree_d_omega(w)))
    e1, e2, e3 = (sp.Matrix(e) for e in (fr.e1, fr.e2, fr.e3))

    def metric(a, b):
        return (a.T * g * b)[0]

    assert is_zero((w.T * e1)[0] - 1)
    assert all(is_zero(c) for c in A * e1)
    assert all(is_zero(metric(a, b)) for a, b in ((e1, e2), (e1, e3), (e2, e3)))
    J0 = g.inv() * A
    assert all(is_zero(c) for c in J0 * (J0 * e2) + fr.dw_norm_squared * e2)
