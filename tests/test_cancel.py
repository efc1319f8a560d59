"""The jet ring's one-term cancel against sympy's ``PolyElement.cancel``
over ZZ, and the bound on the cache of jet rings.

``jets._cancel`` computes the lowest-terms pair without a gcd of
polynomials when one side has a single term; a pair of two multi-term
sides goes to sympy (``jets._by_sympy``).  Both must agree entry for entry
with sympy's cancel of the same pair in sympy's own ring: on seeded pairs
of every kind the fast path takes, on a general pair, and on every call
the symbolic checks make.  In a fresh process, a ``verify-all`` pass and
``check-solution`` of every catalog id reach ``jets._by_sympy`` not once;
a moved section does.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import sympy as sp

from jetweyl import geometry, jets
from jetweyl.exprcore import T, X, normalize
from jetweyl.invariants import invariant, verify_invariance
from jetweyl.jets import _cancel, _jet_ring
from jetweyl.symmetry import grading_check
from tree_oracle import sympy_cancel as _sympys

SRC = Path(__file__).resolve().parents[1] / "src"
_R = jets._JetPolyRing(sp.symbols("t,x,y,u,v,w"))
_GENS = _R.gens


def _coefficient(rng: random.Random):
    """A nonzero integer, negative about half the time."""
    return rng.choice([-1, 1]) * rng.randint(1, 12)


def _monomial(rng: random.Random, degree: int = 3) -> tuple:
    m = [0] * len(_R.symbols)
    for _ in range(rng.randint(0, degree)):
        m[rng.randrange(len(m))] += 1
    return tuple(m)


def _term(rng: random.Random, constant: bool = False):
    return _R.dtype({_R.zero_monom if constant else _monomial(rng): _coefficient(rng)})


def _poly(rng: random.Random, terms: int):
    """A polynomial with at least two terms (for terms >= 2)."""
    while True:
        out = _R.dtype()
        for _ in range(terms):
            out += _term(rng)
        if len(out) >= min(terms, 2):
            return out


def _pairs(seed: int = 15):
    """(kind, numerator, denominator) over the shapes the fast path takes,
    500 of each, and one general pair for the fallback."""
    rng = random.Random(seed)
    for _ in range(500):
        yield "monomial denominator", _poly(rng, rng.randint(1, 5)), _term(rng)
    for _ in range(500):
        yield "constant denominator", _poly(rng, rng.randint(1, 5)), _term(rng, constant=True)
    for _ in range(500):
        # a common monomial factor on both sides, or none
        common = _term(rng) if rng.random() < 0.5 else _R.one
        yield "one-term numerator", _term(rng) * common, _poly(rng, rng.randint(2, 4)) * common
    for _ in range(500):
        k = rng.randint(2, 6)
        yield "common content", _poly(rng, rng.randint(1, 4)) * k, _term(rng) * -k
    for _ in range(500):
        yield "zero numerator", _R.dtype(), _poly(rng, rng.randint(1, 4))
    t, x = _GENS[:2]
    yield "general", (t**2 - x**2) * (t + 3), (t - x) * (t * 2 + x)


def test_cancel_matches_sympy_entry_for_entry():
    seen = {}
    for kind, numer, denom in _pairs():
        got, want = _cancel(numer, denom), _sympys(numer, denom)
        assert got == want, (kind, numer, denom)
        assert all(type(c) is int for p in got for c in p.values())
        seen[kind] = seen.get(kind, 0) + 1
    assert sum(seen.values()) >= 2500
    assert seen["general"] == 1


def test_cancel_over_zz_is_sympys():
    R = jets._JetPolyRing(sp.symbols("x,y"))
    x, y = R.gens
    pairs = ((x**2 * y * 6, x * 4), (x * -2 + y * 4, R.one * -2), (x * 3, x * 6 + y**2 * 9))
    for numer, denom in pairs:
        assert _cancel(numer, denom) == _sympys(numer, denom)


def _counted_cancel(monkeypatch) -> list:
    """Record the pairs that reach sympy's cancel (``jets._by_sympy``)."""
    seen, by_sympy = [], jets._by_sympy

    def counted(name, numer, denom):
        if name == "cancel":
            seen.append((len(numer), len(denom)))
        return by_sympy(name, numer, denom)

    monkeypatch.setattr(jets, "_by_sympy", counted)
    return seen


def test_two_multi_term_sides_go_to_sympy(monkeypatch):
    seen = _counted_cancel(monkeypatch)
    assert normalize((T**2 - X**2) / (2 * T - 2 * X)) == (T + X) / 2
    assert (2, 2) in seen


def test_cancel_calls_of_the_checks_match_sympy(monkeypatch):
    calls = []
    original = jets._cancel

    def recorded(numer, denom):
        got = original(numer, denom)
        calls.append((numer, denom, got))
        return got

    monkeypatch.setattr(jets, "_cancel", recorded)
    assert grading_check()
    assert verify_invariance(invariant(1)) is True
    # a catalog entry is built once per process: build it here, so that
    # the Einstein check's own fractions are among the recorded calls
    geometry.catalog.cache_clear()
    before = len(calls)
    assert geometry.check_EW(geometry.catalog("sl2-family", f=0, h=0)).ok
    assert len(calls) > before
    assert len(calls) > 500
    fast = 0
    for numer, denom, got in calls:
        assert all(type(c) is int for p in (numer, denom) for c in p.values())
        assert got == _sympys(numer, denom), (numer, denom)
        fast += bool(numer) and (len(numer) == 1 or len(denom) == 1)
    assert fast > len(calls) // 2


# ---------------------------------------------------------------------------
# the cache of jet rings


def test_jet_ring_cache_is_bounded():
    bound = _jet_ring.cache_info().maxsize
    assert bound is not None
    for i in range(200):
        z = sp.Symbol(f"z_cache_{i}")
        assert normalize((z + 1) ** 2) == z**2 + 2 * z + 1
    assert _jet_ring.cache_info().currsize <= bound


def test_elements_of_an_evicted_ring_mix_with_the_rebuilt_ring():
    w = sp.Symbol("w_evicted")
    old = _jet_ring(0, (w,))
    a = old.convert(w + 1)
    for i in range(_jet_ring.cache_info().maxsize + 1):
        _jet_ring(0, (sp.Symbol(f"z_evict_{i}"),))
    new = _jet_ring(0, (w,))
    assert new is not old
    b = new.convert(w - 1)
    assert a + b == new.convert(2 * w)
    assert b + a == new.convert(2 * w)
    assert a == new.convert(w + 1)
    assert a != b
    assert new.to_expr(a * b / (a - b)) == (w**2 - 1) / 2


# ---------------------------------------------------------------------------
# the multi-term boundary: sympy's gcd is reached by moved sections only

_BOUNDARY_PROBE = """
import contextlib, io, json, sys
from jetweyl import cli, geometry, jets
from jetweyl.exprcore import T
from jetweyl.symmetry import PseudogroupElement

calls, by_sympy = [], jets._by_sympy

def counted(name, p, q):
    calls.append(name)
    return by_sympy(name, p, q)

jets._by_sympy = counted
report = {}
with contextlib.redirect_stdout(io.StringIO()):
    report["verify-all"] = [cli.main(["verify-all"]), len(calls)]
    for cid in geometry.CATALOG_IDS:
        del calls[:]
        report[cid] = [cli.main(["check-solution", cid]), len(calls)]
del calls[:]
geometry.catalog("sl2-degenerate", f=0, h=0).transform(PseudogroupElement.make(a=T, b=1, c=T))
report["moved"] = [None, len(calls)]
print(json.dumps(report), file=sys.stderr)
"""


def test_only_a_moved_section_reaches_sympys_gcd():
    """In a fresh process, a ``verify-all`` pass and ``check-solution`` of
    every catalog id make no call of ``jets._by_sympy``, the one way to a
    multi-term cancel, lcm or exact quotient; a moved ``sl2-degenerate``
    section makes some."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _BOUNDARY_PROBE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report.pop("moved")[1] > 0
    assert set(report) == {"verify-all", *geometry.CATALOG_IDS}
    assert report["verify-all"] == [0, 0]
    assert {cid: calls for cid, (_, calls) in report.items()} == dict.fromkeys(report, 0)
