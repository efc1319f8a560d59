"""The jet field over ZZ against the same computation over QQ, entry for
entry, and a guard that the program computes over ZZ only.

Every jet ring builds its field over ZZ and cancels one-term pairs
without a gcd (``jets._cancel``).  The QQ side here runs the same program
code with each ring's field replaced by sympy's own ``FracField`` over QQ
(built in this module; its ``new`` cancels by ``PolyElement.cancel``),
with the canonical expression of the QQ field (coefficients cleared by the
lcm of their denominators and divided by their gcd) and sympy's lcm.
The canonical expressions of both sides must be identical: for F1 and F2,
the order-3 invariant data, the principal table through order 4, the
Ricci elements of every catalog entry and nested rational-coefficient
inputs.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.fields import FracField

from jetweyl import exprcore, fields, geometry, invariants, jets, symmetry, trees
from jetweyl.exprcore import T, X, Y, formal, jet
from jetweyl.jets import _jet_ring, principal_indices
from jetweyl.trees import _ring_for

SRC = Path(__file__).resolve().parents[1] / "src"


def _clear_caches() -> None:
    """Empty every cache of the package that can hold a ring or its
    elements, so that the next computation builds its rings anew."""
    for module in (exprcore, jets, fields, symmetry, invariants, geometry):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _qq_field(keys: tuple) -> FracField:
    """sympy's field over QQ on the generators of a jet ring, which keeps
    the ring's generator keys."""
    field = FracField(tuple(map(trees.symbol_of, keys)), QQ)
    field.keys = keys
    return field


def _qq_to_expr(self, f) -> sp.Expr:
    """The canonical expression of an element over QQ: integer
    coefficients without a common factor, the denominator's leading
    coefficient (in sympy's generator order) positive."""
    num, den = f.numer, f.denom
    if not num:
        return sp.Integer(0)
    coeffs = [*num.values(), *den.values()]
    lcm = math.lcm(*(int(c.denominator) for c in coeffs))
    gcd = math.gcd(*(int(c.numerator) * (lcm // int(c.denominator)) for c in coeffs))
    order = self._sympy_order
    lead = max(den, key=lambda m: [m[i] for i in order])
    scale = QQ(-lcm if den[lead] < 0 else lcm, gcd)
    return num.mul_ground(scale).as_expr() / den.mul_ground(scale).as_expr()


def _nested_inputs() -> list:
    u, v, ux, uxx = jet("u"), jet("v"), jet("u", "x"), jet("u", "xx")
    a = formal("a")
    return [
        (ux / 2 + v / 3) / (T / 5 - sp.Rational(1, 7)),
        ((u / 3 - ux / 4) / (X / 6 + 1)) / ((v / 5 + sp.Rational(2, 9)) / (Y / 7 - 2)),
        (sp.Rational(3, 4) * uxx - ux**2 / 6) / (sp.Rational(-5, 8) * ux * uxx),
        (a / 3 + T / 2) / (-sp.Rational(2, 5) * a * ux),
        -sp.Rational(7, 3) / (sp.Rational(14, 9) * ux**2 * v),
        # denominators whose leading terms in the ring's generator order
        # and in sympy's have opposite signs
        (ux + sp.Rational(1, 2)) / (T / 3 - u),
        v / (2 * X - 3 * jet("v", "y") + a / 4),
    ]


def _build() -> dict:
    """The canonical expressions of every entry compared, computed from
    empty caches."""
    _clear_caches()
    out = {}
    ring = _jet_ring(2)
    out["F1, F2"] = [ring.to_expr(F) for F in jets._equations()]
    o = invariants._order3()
    out["order 3"] = [
        o.ring.to_expr(f)
        for f in (*o.I, *(c for row in o.nabla for c in row), *o.K, *o.twelve)
    ]
    ring = _jet_ring(4)
    out["principal table"] = [
        ring.to_expr(ring.field.raw_new(ring.principal(ring.symbol_index[jet(dep, idx)])))
        for idx in principal_indices(4)
        for dep in ("u", "v")
    ]
    ricci = []
    for cid in geometry.CATALOG_IDS:
        sol = geometry.catalog(cid)
        conn = geometry.weyl_connection(geometry.build_pair(sol))
        ricci += [sol.field.expr(e) for row in conn.ricci_elements() for e in row]
    out["Ricci"] = ricci
    nested = []
    for e in _nested_inputs():
        ring = _ring_for(3, (e,), derivatives=1)
        f = ring.convert(e)
        g = ring.convert(e.subs(jet("v"), jet("v") / 11 + 1))
        nested += [
            ring.to_expr(h)
            for h in (f, f + g, f * g, f / g, f - g / 3, ring.total(f, "t"), ring.reduce(f * g))
        ]
    out["nested"] = nested
    return out


@pytest.fixture(scope="module")
def both_sides():
    try:
        zz = _build()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jets, "_JetField", _qq_field)
            mp.setattr(jets._JetRing, "to_expr", _qq_to_expr)
            mp.setattr(jets, "_lcm", lambda a, b: a.lcm(b))
            qq = _build()
            assert _jet_ring(2).field.domain == QQ
            assert type(_jet_ring(2).field) is FracField
    finally:
        _clear_caches()
    return zz, qq


@pytest.mark.parametrize("group", ["F1, F2", "order 3", "principal table", "Ricci", "nested"])
def test_the_zz_field_matches_the_qq_field_entry_for_entry(both_sides, group):
    zz, qq = both_sides
    assert len(zz[group]) == len(qq[group]) > 1
    for a, b in zip(zz[group], qq[group]):
        assert sp.srepr(a) == sp.srepr(b), (group, a, b)
    # the entries are not all integers: rational inputs took part
    assert any(not e.is_Integer for e in zz[group])


def test_nested_rational_inputs_hold_integer_coefficients():
    e = _nested_inputs()[0]
    ring = _ring_for(1, (e,))
    f = ring.convert(e)
    assert type(ring.field) is jets._JetField
    assert all(type(c) is int for p in (f.numer, f.denom) for c in p.values())
    assert ring.to_expr(f) == (105 * jet("u", "x") + 70 * jet("v")) / (42 * T - 30)


# ---------------------------------------------------------------------------
# the guard: one verify-all pass computes over ZZ only

_PROBE = """
import contextlib, io, json, sys
from jetweyl import cli, geometry, jets

rings, fast, bad = [], [0], []
init, cancel = jets._JetRing.__init__, jets._cancel

def recorded(self, *args, **kwargs):
    init(self, *args, **kwargs)
    rings.append(self)

def checked(numer, denom):
    got = cancel(numer, denom)
    if numer and (len(numer) == 1 or len(denom) == 1):
        fast[0] += 1
        for p in (numer, denom, *got):
            bad.extend(type(c).__name__ for c in p.values() if type(c) is not int)
    return got

jets._JetRing.__init__ = recorded
jets._cancel = checked
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify-all"])
report = {
    "code": code,
    "rings": len(rings),
    "cached": jets._jet_ring.cache_info().currsize,
    "fields": sorted({type(r.field).__name__ for r in rings}),
    "catalog": sorted(
        {type(geometry.catalog(c).field.ring.field).__name__ for c in geometry.CATALOG_IDS}
    ),
    "fast": fast[0],
    "not int": sorted(set(bad)),
}
print(json.dumps(report), file=sys.stderr)
"""


def test_a_verify_all_pass_computes_over_zz_only():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["code"] == 0
    # every ring the pass built, the cached ones among them
    assert report["rings"] >= report["cached"] > 10
    assert report["fields"] == ["_JetField"]
    assert report["catalog"] == ["_JetField"]
    assert report["fast"] > 1000
    assert report["not int"] == []
