"""The jet ring's one-term cancel against sympy's ``PolyElement.cancel``,
and the bound on the cache of jet rings.

``jets._cancel`` computes the lowest-terms pair without a gcd of
polynomials when the domain is ZZ and one side has a single term; every
other pair goes to sympy.  Both must agree entry for entry: on seeded
pairs of every kind the fast path takes, on a general pair, and on every
call the symbolic checks make.  A pair over QQ, and a pair of the program
with two multi-term sides, still reach ``PolyElement.cancel``.
"""

import random

import sympy as sp
from sympy.polys.domains import QQ, ZZ
from sympy.polys.rings import PolyElement, ring as poly_ring

from jetweyl import geometry, jets
from jetweyl.exprcore import T, X, normalize
from jetweyl.invariants import invariant, verify_invariance
from jetweyl.jets import _cancel, _jet_ring
from jetweyl.symmetry import grading_check

_R, *_GENS = poly_ring("t,x,y,u,v,w", ZZ)


def _coefficient(rng: random.Random):
    """A nonzero integer, negative about half the time."""
    return rng.choice([-1, 1]) * rng.randint(1, 12)


def _monomial(rng: random.Random, degree: int = 3) -> tuple:
    m = [0] * _R.ngens
    for _ in range(rng.randint(0, degree)):
        m[rng.randrange(_R.ngens)] += 1
    return tuple(m)


def _term(rng: random.Random, constant: bool = False):
    return _R.dtype({_R.zero_monom if constant else _monomial(rng): _coefficient(rng)})


def _poly(rng: random.Random, terms: int):
    """A polynomial with at least two terms (for terms >= 2)."""
    while True:
        out = _R.zero
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
        yield "zero numerator", _R.zero, _poly(rng, rng.randint(1, 4))
    t, x = _GENS[:2]
    yield "general", (t**2 - x**2) * (t + 3), (t - x) * (2 * t + x)


def test_cancel_matches_sympy_entry_for_entry():
    seen = {}
    for kind, numer, denom in _pairs():
        got, want = _cancel(numer, denom), numer.cancel(denom)
        assert got == want, (kind, numer, denom)
        assert [type(c) for p in got for c in p.values()] == [
            type(c) for p in want for c in p.values()
        ]
        seen[kind] = seen.get(kind, 0) + 1
    assert sum(seen.values()) >= 2500
    assert seen["general"] == 1


def test_cancel_over_zz_is_sympys():
    R, x, y = poly_ring("x,y", ZZ)
    for numer, denom in ((6 * x**2 * y, 4 * x), (-2 * x + 4 * y, R(-2)), (3 * x, 6 * x + 9 * y**2)):
        assert _cancel(numer, denom) == numer.cancel(denom)


def _counted_cancel(monkeypatch) -> list:
    """Record the pairs that reach ``PolyElement.cancel``."""
    seen, cancel = [], PolyElement.cancel

    def counted(numer, denom):
        seen.append((numer.ring.domain, len(numer), len(denom)))
        return cancel(numer, denom)

    monkeypatch.setattr(PolyElement, "cancel", counted)
    return seen


def test_a_qq_pair_goes_to_sympy(monkeypatch):
    R, x, y = poly_ring("x,y", QQ)
    numer, denom = QQ(3, 2) * x**2 * y, QQ(-9, 4) * x
    want = numer.cancel(denom)
    seen = _counted_cancel(monkeypatch)
    assert _cancel(numer, denom) == want == (-2 * x * y, R(3))
    assert seen == [(QQ, 1, 1)]


def test_two_multi_term_sides_go_to_sympy(monkeypatch):
    seen = _counted_cancel(monkeypatch)
    assert normalize((T**2 - X**2) / (2 * T - 2 * X)) == (T + X) / 2
    assert (ZZ, 2, 2) in seen


def test_cancel_calls_of_the_checks_match_sympy(monkeypatch):
    calls = []
    original = jets._cancel

    def recorded(numer, denom):
        got = original(numer, denom)
        calls.append((numer.copy(), denom.copy(), got))
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
        assert numer.ring.domain == ZZ
        assert got == numer.cancel(denom), (numer, denom)
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
