"""The jet-ring kernels against the paths they replaced.

``_JetRing.convert`` reads a tree directly; ``tree_oracle.tree_convert``
is the ``as_numer_denom`` + ``from_expr`` path.  Both must give the same
numerator and denominator, entry for entry, on the invariants, the
structure and derivation coefficients, the family components, the
catalog's rescaled trees and nested rational inputs, and refuse the same
inputs with the same error class and message.  ``_JetRing.apply``
differentiates by generator index; ``tree_oracle.diff_derivation`` is
sum_i n_i * p.diff(g_i), and the two must agree on every derivation that
a symmetry check, an invariance check and the catalog's Einstein-Weyl
checks make, total derivatives among them.  A sum of two fractions with
one-term denominators is formed over their lcm; the oracle is
n1*d2 + n2*d1 over d1*d2, cancelled by sympy.  Jet rings compare by
identity first, and equal rings built apart still compare equal and add.
The polynomial class's products, sums, powers, equality and exact
quotients match sympy's ``PolyRing`` over ZZ on the same terms
(``tree_oracle.sympy_poly``, which reads the packed monomials through
the ring's ``pairs``), in the order-6 ring of 171 generators too, and the
exact quotients and their refusals also with exponents one below the cap.
Each oracle has a negative control: the kernel with one exponent off by
one (one more in a packed monomial's lowest field, or the unit of the
differentiated field not taken off) fails it.

Exponents past ``jets.MAX_EXPONENT`` are refused, never wrapped: a
product, a power, a derivation, a monomial built from pairs and an lcm
made by sympy raise ``ExponentCapError``, and so does a command line that
reaches them (exit code 4); without the guard test a product past the cap
gives a wrong monomial.  A field element to a negative power is the
inverse of its positive power.  No module but ``jets`` reads the packed
format.
"""

import ast
import inspect
import json
import random
import re
import textwrap
from pathlib import Path

import pytest
import sympy as sp
from sympy.polys.domains import ZZ
from sympy.polys.fields import FracField
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rings import PolyElement

from jetweyl import geometry, invariants, jets, symmetry, trees
from jetweyl.cli import main
from jetweyl.errors import ExponentCapError, ExprError, JetweylError
from jetweyl.exprcore import (
    BASE_SYMBOLS,
    X,
    _rescaled,
    formal,
    formal_shift,
    is_formal_symbol,
    is_jet_symbol,
    jet,
    jet_info,
    jet_order,
)
from jetweyl.jets import _jet_ring
from jetweyl.trees import _ring_for
from test_integer_field import _clear_caches, _nested_inputs
from tree_oracle import dense, diff_derivation, jet_poly, sympy_cancel, sympy_poly, tree_convert

_BOUND = {
    "dkp-partial": {"h": 0},
    "exp-family": {"f": 1, "h": 1},
    "sl2-family": {"f": 0, "h": 0},
    "sl2-degenerate": {"f": 0, "h": 0},
}


def _mutant(func, old: str, new: str):
    """``func`` compiled again in its module with ``old`` replaced by
    ``new`` once in its source."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, old
    namespace: dict = {}
    code = compile(source.replace(old, new), f"<mutant {func.__name__}>", "exec")
    exec(code, func.__globals__, namespace)
    return namespace[func.__name__]


def _entries(f) -> tuple:
    return dict(f.numer), dict(f.denom)


def _dense_terms(p) -> dict:
    """{exponent tuple: coefficient} of a polynomial, as sympy's ring keys
    its terms."""
    return {dense(p.ring, m): c for m, c in p.items()}


# ---------------------------------------------------------------------------
# convert


def _convert_corpus() -> list:
    """(ring, tree) pairs."""
    out = []

    def plain(e):
        out.append((_ring_for(jet_order(e), (e,)), e))

    for i in (1, 2, 3):
        plain(invariants.invariant(i))
        for c in invariants.derivation(i):
            plain(c)
    for i in (1, 2, 3, 4):
        plain(invariants.structure_K(i))
    for fam in (1, 2, 3, 4, 5):
        for c in symmetry.generator(fam, "f").components():
            plain(c)
    for cid in geometry.CATALOG_IDS:
        for kwargs in ({}, _BOUND.get(cid)):
            if kwargs is None:
                continue
            sol = geometry.catalog(cid, **kwargs)
            scaled, _ = _rescaled(sp.Tuple(sol.u, sol.v))
            out += [(sol.field.ring, e) for e in scaled.args]
    for e in _nested_inputs():
        ring = _ring_for(3, (e,), derivatives=1)
        out += [(ring, e), (ring, e.subs(jet("v"), jet("v") / 11 + 1))]
    # a sum whose fractions cancel, beside a polynomial term or alone
    ux, t = jet("u", "x"), BASE_SYMBOLS[0]
    zero = (4 * ux * t + 32 * ux) / (8192 * ux) - (32 * ux * t + 256 * ux) / (65536 * ux)
    assert zero != 0
    out += [(_jet_ring(1), zero + jet("u")), (_jet_ring(1), zero), (_jet_ring(1), zero * ux + t)]
    return out


def _outcome(convert, ring, e):
    try:
        return _entries(convert(ring, e))
    except JetweylError as exc:
        return type(exc), str(exc)


def test_convert_matches_the_tree_path_entry_for_entry():
    corpus = _convert_corpus()
    assert len(corpus) > 60
    for ring, e in corpus:
        assert _entries(ring.convert(e)) == _entries(tree_convert(ring, e)), e
    # fractions with several-term denominators took part
    assert any(len(ring.convert(e).denom) > 1 for ring, e in corpus)


def _refused() -> list:
    ux = jet("u", "x")
    zero = ux * (ux + 1) - ux**2 - ux
    return [
        ux ** sp.Rational(1, 2),
        sp.exp(X),
        sp.Float("1.5") * ux,
        sp.zoo,
        sp.nan,
        ux + sp.oo,
        zero**-1,
        ux / zero + 1,
        (ux + zero**-2) ** 3,
        sp.pi * ux,
        sp.exp(X) + zero**-1,
        sp.exp(X) + sp.Float("0.5"),
        jet("u", "xxx") * sp.exp(X),
        sp.Symbol("z") + ux,
        sp.Float("2.0") * sp.Symbol("z"),
        formal("a") * ux,
    ]


@pytest.mark.parametrize("e", _refused(), ids=str)
def test_convert_refuses_as_the_tree_path_does(e):
    ring = _jet_ring(2)
    want = _outcome(tree_convert, ring, e)
    assert want[0] in (ExprError, *ExprError.__subclasses__(), jets.JetOrderError), want
    assert _outcome(jets._JetRing.convert, ring, e) == want


def test_the_zero_denominator_names_the_whole_expression():
    ux = jet("u", "x")
    e = (ux * (ux + 1) - ux**2 - ux) ** -1
    with pytest.raises(jets.DivisionByZeroExpression, match="zero denominator in 1/"):
        _jet_ring(2).convert(e)


def test_a_convert_with_an_exponent_off_by_one_fails_the_oracle(monkeypatch):
    corpus = _convert_corpus()
    monkeypatch.setattr(trees, "_read", _mutant(trees._read, "n = int(e.exp)", "n = int(e.exp) + 1"))
    assert any(_entries(ring.convert(e)) != _entries(tree_convert(ring, e)) for ring, e in corpus)


# ---------------------------------------------------------------------------
# derivation


def _total_images(ring, d: str) -> list:
    """(generator index, element) of D_d on a ring's generators that have an
    image, read off their symbols: 1 for d itself, u_{sigma+d} for a jet
    u_sigma below the ring's order, a^(m+1) for a formal derivative a^(m)
    under D_t where the ring carries it."""
    out = []
    for i, s in enumerate(ring.symbols):
        if s == BASE_SYMBOLS["txy".index(d)]:
            out.append((i, ring.field.one))
        elif is_jet_symbol(s):
            dep, idx = jet_info(s)
            if idx.order < ring.order:
                out.append((i, ring.gen(jet(dep, idx.bump(d)))))
        elif is_formal_symbol(s) and d == "t" and formal_shift(s) in ring.symbol_index:
            out.append((i, ring.gen(formal_shift(s))))
    return out


@pytest.fixture(scope="module")
def derivations():
    """(ring, f, lifted, images) of every derivation a symmetry check, an
    invariance check and the Einstein-Weyl checks of the catalog make,
    from empty caches.  A section field lifts its images once and applies
    them often, so each application is recorded with the images its lift
    was given; a total derivative applies the ring's own lifted D_d, which
    ``lift`` does not build, and is recorded with the images of D_d read
    off the generators (:func:`_total_images`)."""
    calls = []
    lift, apply = jets._JetRing.lift, jets._JetRing.apply
    # id(lifted) -> (lifted, images); the lifted images are kept alive
    given = {}

    def recorded_lift(self, images, refused=None):
        images = list(images)
        lifted = lift(self, images, refused)
        given[id(lifted)] = (lifted, images)
        return lifted

    def recorded_apply(self, f, lifted):
        got = given.get(id(lifted))
        if got is None:
            (d,) = [d for d, total in self._totals.items() if total is lifted]
            got = given[id(lifted)] = (lifted, _total_images(self, d))
        calls.append((self, f, lifted, got[1]))
        return apply(self, f, lifted)

    try:
        _clear_caches()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jets._JetRing, "lift", recorded_lift)
            mp.setattr(jets._JetRing, "apply", recorded_apply)
            assert symmetry.check_symmetry(symmetry.generator(4, "f")) is True
            assert invariants.verify_invariance(invariants.invariant(2)) is True
            for cid in geometry.CATALOG_IDS:
                geometry.check_EW(geometry.catalog(cid, **_BOUND.get(cid, {})))
    finally:
        _clear_caches()
    return calls


def _several_term_images() -> list:
    """Derivations whose images have denominators of several terms."""
    ring = _jet_ring(1)
    u, ux, uy = jet("u"), jet("u", "x"), jet("u", "y")
    t, x, y = BASE_SYMBOLS
    images = [
        (ring.symbol_index[u], ring.convert(1 / (x + 1))),
        (ring.symbol_index[ux], ring.convert(u / (y + u))),
        (ring.symbol_index[t], ring.convert(3 * t / (2 * uy))),
    ]
    fs = [ux / (u + t), u**3 * ux - t * ux**2, (ux + y) / (4 * u**2 * t)]
    return [(ring, ring.convert(f), ring.lift(images), images) for f in fs]


def test_derivation_matches_the_diff_path_entry_for_entry(derivations):
    assert len(derivations) > 100
    # total derivatives, images and elements with denominators took part
    assert any(lifted is ring._totals["x"] for ring, _, lifted, _ in derivations)
    assert any(img.denom != 1 for _, _, _, images in derivations for _, img in images)
    assert any(f.denom != 1 for _, f, _, _ in derivations)
    for ring, f, lifted, images in derivations + _several_term_images():
        assert _entries(ring.apply(f, lifted)) == _entries(diff_derivation(ring, f, images))


def test_a_derivation_with_an_exponent_off_by_one_fails_the_oracle(derivations, monkeypatch):
    monkeypatch.setattr(
        jets._JetRing,
        "_along",
        # the packed monomial keeps the exponent it was differentiated by
        _mutant(jets._JetRing._along, "rest = monom - (bit >> _VALUE)", "rest = monom"),
    )
    assert any(
        _entries(ring.apply(f, lifted)) != _entries(diff_derivation(ring, f, images))
        for ring, f, lifted, images in derivations
    )


# ---------------------------------------------------------------------------
# sums over the lcm of one-term denominators


def _term_fractions(ring, rng: random.Random, n: int) -> list:
    """Seeded elements of a jet field with one-term denominators: small
    numerators over a coefficient times a monomial, 1 included."""
    gens = ring.ring.gens

    def poly(terms: int):
        p = ring.ring.dtype()
        for _ in range(terms):
            m = ring.ring.one
            for _ in range(rng.randint(0, 3)):
                m = m * rng.choice(gens)
            p = p + m * rng.choice((-3, -2, -1, 1, 2, 4, 6))
        return p

    out = []
    while len(out) < n:
        num = poly(rng.randint(1, 4))
        den = poly(1)
        if num and den:
            out.append(ring.field.new(num, den))
    field = ring.field
    return out + [field.one, field.raw_new(gens[0]), field.new(ring.ring.one, gens[0] * 6)]


def _over_product(f, g, sign):
    num = f.numer * g.denom + g.numer * f.denom * sign
    return f.field.raw_new(*sympy_cancel(num, f.denom * g.denom))


def test_one_term_sums_match_the_sums_over_the_product():
    ring = _jet_ring(1)
    elements = _term_fractions(ring, random.Random(7), 40)
    assert all(len(f.denom) == 1 for f in elements)
    assert any(f.denom != 1 for f in elements)
    for f in elements:
        for g in elements:
            assert _entries(f + g) == _entries(_over_product(f, g, 1))
            assert _entries(f - g) == _entries(_over_product(f, g, -1))
    f = elements[0]
    assert f - f == ring.field.zero and not (f - f).numer


def test_sums_with_a_zero_operand_match_the_sums_over_the_product(monkeypatch):
    """A zero operand gives the other operand.  A sum reads the numerators
    and never asks a field element for its truth."""

    def refused(f):
        raise AssertionError("the truth of a field element was asked")

    ring = _jet_ring(1)
    zero = ring.field.zero
    elements = [*_term_fractions(ring, random.Random(11), 6), zero]
    monkeypatch.setattr(jets._JetFraction, "__bool__", refused)
    sums = [(f, g, f + g, f - g) for f in elements for g in elements]
    monkeypatch.undo()
    for f, g, plus, minus in sums:
        assert _entries(plus) == _entries(_over_product(f, g, 1))
        assert _entries(minus) == _entries(_over_product(f, g, -1))
    for f in elements:
        assert _entries(f + zero) == _entries(zero + f) == _entries(f - zero) == _entries(f)
        assert _entries(zero - f) == _entries(-f)


def test_a_sum_with_a_shift_off_by_one_fails_the_oracle(monkeypatch):
    # the last exponent of each lift to the lcm (a quotient by a term) one
    # too high: one more in the packed monomial's lowest field
    mutant = _mutant(jets._JetPoly.exquo, "k = m - n", "k = m - n + 1")
    monkeypatch.setattr(jets._JetPoly, "exquo", mutant)
    ring = _jet_ring(1)
    elements = _term_fractions(ring, random.Random(7), 10)
    assert any(
        _entries(f + g) != _entries(_over_product(f, g, 1)) for f in elements for g in elements
    )


# ---------------------------------------------------------------------------
# rings compared by identity first


def test_rings_built_apart_compare_equal_and_their_elements_add():
    ux, u = jet("u", "x"), jet("u")
    before = _jet_ring(2)
    f = before.convert(ux / u)
    try:
        _jet_ring.cache_clear()
        after = _jet_ring(2)
        assert after is not before
        assert after.ring == before.ring and after.field == before.field
        assert hash(after.ring) == hash(before.ring) and hash(after.field) == hash(before.field)
        assert f.numer.ring == after.ring and f.field == after.field
        g = after.convert(ux / u)
        assert f == g and g == f
        assert _entries(f + g) == _entries(after.convert(2 * ux / u))
        assert _entries(g - f) == _entries(after.field.zero)
        other = _jet_ring(1)
        assert after.ring != other.ring and other.field.one.field != after.field
    finally:
        _clear_caches()


def test_base_symbols_convert_to_generators():
    ring = _jet_ring(0)
    for b in BASE_SYMBOLS:
        assert ring.convert(b) == ring.gen(b)


# ---------------------------------------------------------------------------
# the element class of a jet ring, against sympy's ring over ZZ


def _poly(ring, rng: random.Random, terms: int):
    """A seeded element of a polynomial ring: ``terms`` products of up to
    three generators with nonzero coefficients of either sign."""
    out = {}
    while len(out) < terms:
        m = [0] * len(ring.symbols)
        for _ in range(rng.randint(0, 3)):
            m[rng.randrange(len(m))] += 1
        monom = ring.monom((i, e) for i, e in enumerate(m) if e)
        out[monom] = rng.choice((-7, -3, -2, -1, 1, 2, 5, 12))
    return ring.dtype(out)


def _operand_rings() -> list:
    # the order-6 ring has 171 generators: its monomials are ints of 2,736
    # bits
    return [
        _jet_ring(3).ring,
        geometry.catalog("exp-family").field.ring.ring,
        _ring_for(1, (formal("a", 1),)).ring,
        _jet_ring(6).ring,
    ]


def _operands(ring, seed: int) -> list:
    """Multi-term, one-term and constant elements, zero and one."""
    rng = random.Random(seed)
    out = [_poly(ring, rng, rng.randint(2, 6)) for _ in range(8)]
    out += [_poly(ring, rng, 1) for _ in range(4)]
    out += [ring.one * rng.choice((-4, 3)), ring.one * -1, ring.one, ring.dtype()]
    return out


def _sympys(ring, value):
    """A result of sympy's ring as a jet-ring polynomial; anything else
    (a truth value) as it is."""
    return jet_poly(ring, value) if isinstance(value, PolyElement) else value


def test_the_element_product_and_equality_match_sympys():
    for seed, ring in enumerate(_operand_rings()):
        elements = _operands(ring, seed)
        assert any(c < 0 for p in elements for c in p.values())
        for p in elements:
            for q in elements:
                got, want = p * q, _sympys(ring, sympy_poly(p) * sympy_poly(q))
                assert type(got) is ring.dtype and dict(got) == dict(want), (p, q)
                assert (p == q) is (sympy_poly(p) == sympy_poly(q)) and (p != q) is (not p == q)
            for n in (0, 1, -1, -2, 3, -4):
                assert dict(p * n) == dict(_sympys(ring, sympy_poly(p) * n))
                assert (p == n) is (sympy_poly(p) == n)
                assert (p != n) is (sympy_poly(p) != n)


def test_the_element_sums_and_powers_match_sympys():
    for seed, ring in enumerate(_operand_rings()):
        elements = _operands(ring, seed)
        for p in elements:
            P = sympy_poly(p)
            for q in elements:
                Q = sympy_poly(q)
                for got, want in ((p + q, P + Q), (p - q, P - Q)):
                    assert type(got) is ring.dtype and dict(got) == dict(_sympys(ring, want))
            for n in (0, 1, -1, 3):
                for got, want in ((p + n, P + n), (p - n, P - n)):
                    assert dict(got) == dict(_sympys(ring, want)), (p, n)
            # sympy refuses 0**0
            for k in range(0 if p else 1, 5):
                assert dict(p**k) == dict(_sympys(ring, P**k)), (p, k)
            assert dict(-p) == dict(_sympys(ring, -P))
        # the two operations of the program's hash: equal elements hash equal
        assert len({p: 0 for p in elements}) == len({frozenset(p.items()) for p in elements})


def test_an_element_compares_with_an_int_without_sympys_equality(monkeypatch):
    ints = (0, 1, -1, 3, -4)
    cases = []
    for seed, ring in enumerate(_operand_rings()):
        for p in _operands(ring, seed):
            cases += [(p, n, sympy_poly(p) == n) for n in ints]
    # constants equal to an int took part, and one-term elements that are not
    assert any(want and n for _, n, want in cases)
    assert any(len(p) == 1 and n and not want for p, n, want in cases)

    def refused(p, q):
        raise AssertionError("PolyElement's equality was called")

    monkeypatch.setattr(PolyElement, "__eq__", refused)
    monkeypatch.setattr(PolyElement, "__ne__", refused)
    for p, n, want in cases:
        assert (p == n) is want and (p != n) is (not want), (p, n)


def _quotient(divide, p, q):
    try:
        return dict(divide(p, q))
    except ExactQuotientFailed as exc:
        return str(exc)


def test_quotients_match_sympys():
    outcomes = []
    for seed, ring in enumerate(_operand_rings()):

        def sympys(d, q):
            return _sympys(ring, sympy_poly(d).exquo(sympy_poly(q)))

        elements = _operands(ring, seed)
        for p in elements:
            for q in filter(None, elements):
                for d in (p * q, p * q + ring.gens[0], p * q - ring.gens[-1] * 2, p + 1):
                    got = _quotient(type(d).exquo, d, q)
                    assert got == _quotient(sympys, d, q), (d, q)
                    outcomes.append(type(got))
    # exact quotients and refused ones both took part
    assert dict in outcomes and str in outcomes


def test_elements_of_a_ring_built_apart_compare_and_multiply():
    before = _jet_ring(3).ring
    p, q = _operands(before, 5)[:2]
    try:
        _jet_ring.cache_clear()
        after = _jet_ring(3).ring
        assert after is not before and after.dtype is not before.dtype
        twin = after.dtype(p)
        assert p == twin and twin == p and not (p != twin) and hash(p) == hash(twin)
        assert twin != q and q != twin
        assert dict(twin * q) == dict(p * q) == dict(q * twin)
        assert dict(twin + q) == dict(p + q) == dict(q + twin)
    finally:
        _clear_caches()


def test_elements_hash_as_sympys_and_zero_and_one_are_fresh():
    """An element hashes as sympy's do, by its terms (sympy's hash adds
    its ring): equal elements hash equal, and an element is a dict key.
    The zero element (``dtype()``) and ``one`` are fresh per call, so
    that changing one in place changes no other."""
    ring = _jet_ring(3).ring
    elements = _operands(ring, 11)
    assert all(hash(p) == hash(ring.dtype(dict(p))) for p in elements)
    keys = {p: dict(p) for p in elements}
    assert len(keys) == len({frozenset(p.items()) for p in elements})
    assert all(keys[ring.dtype(p)] == dict(p) for p in elements)
    assert ring.dtype() is not ring.dtype() and ring.one is not ring.one
    zero = ring.dtype()
    zero[ring.zero_monom] = 1
    assert not ring.dtype() and ring.one == 1


def _fractions(ring, seed: int) -> list:
    """Seeded elements of a jet field: one-term and several-term
    denominators, a constant, zero and one."""
    rng = random.Random(seed)
    out = _term_fractions(ring, rng, 6)
    while len(out) < 12:
        num, den = _poly(ring.ring, rng, rng.randint(1, 3)), _poly(ring.ring, rng, 2)
        out.append(ring.field.new(num, den))
    return out + [ring.field.new(ring.ring.one * 3, ring.ring.one * -6), ring.field.zero]


def test_the_fraction_arithmetic_and_equality_match_sympys():
    """Sums, differences, products, quotients, powers, negation and
    equality of field elements, with each other and with ints, against
    sympy's ``FracField`` over ZZ on the same pairs."""
    ring = _jet_ring(1)
    K = FracField(ring.symbols, ZZ)

    def theirs(f):
        return K.raw_new(*(K.ring.from_dict(_dense_terms(p)) for p in (f.numer, f.denom)))

    def same(got, want):
        want = K(want)  # sympy gives an int for some products with 0
        ours = _dense_terms(got.numer), _dense_terms(got.denom)
        return ours == (dict(want.numer), dict(want.denom))

    elements = _fractions(ring, 3)
    assert any(len(f.denom) > 1 for f in elements)
    for f in elements:
        F = theirs(f)
        assert same(-f, -F) and same(f**2, F**2)
        for g in elements:
            G = theirs(g)
            for got, want in ((f + g, F + G), (f - g, F - G), (f * g, F * G)):
                assert same(got, want), (f.as_expr(), g.as_expr())
            if g:
                assert same(f / g, F / G)
            assert (f == g) is (F == G) and (f != g) is (F != G)
        for n in (0, 1, -3):
            for got, want in ((f + n, F + n), (n - f, n - F), (f * n, F * n), (n * f, n * F)):
                assert same(got, want), (f.as_expr(), n)
            if f:
                assert same(n / f, n / F) and same(f / 2, F / 2)
            assert (f == n) is (F == n)


def test_a_product_with_an_exponent_off_by_one_fails_the_oracle():
    # one more in the packed monomial's lowest field
    mutant = _mutant(jets._JetPoly.__mul__, "k = m + n", "k = m + n + 1")
    ring = _jet_ring(3).ring
    elements = _operands(ring, 3)
    assert any(
        dict(mutant(p, q)) != dict(_sympys(ring, sympy_poly(p) * sympy_poly(q)))
        for p in elements
        for q in elements
    )


# ---------------------------------------------------------------------------
# exponents at the cap: exact up to MAX_EXPONENT, refused past it

_CAP = jets.MAX_EXPONENT


def test_quotients_one_below_the_cap_match_sympys():
    ring = _jet_ring(6).ring
    u, b, y = ring.gens[0], ring.gens[100], ring.gens[-1]
    high = u ** (_CAP - 1)
    cases = [
        (high * b * (y + 2), high),
        (high * (b + y) * (b - 3), u * (b + y)),
        (high * b**2 * 6 - high * y * 4, high * 2),
        # not exact: refused by sympy, with its message
        (high * b + y, high),
        (high * b, u ** (_CAP - 1) * y),
        (u ** (_CAP - 2) * b, high),
    ]
    def sympys(d, q):
        return jet_poly(ring, sympy_poly(d).exquo(sympy_poly(q)))

    outcomes = []
    for d, q in cases:
        got = _quotient(type(d).exquo, d, q)
        assert got == _quotient(sympys, d, q)
        outcomes.append(type(got))
    assert outcomes == [dict] * 3 + [str] * 3


def _past_the_cap(message_of):
    with pytest.raises(ExponentCapError) as info:
        message_of()
    assert str(_CAP) in str(info.value)
    return str(info.value)


def test_a_product_a_power_and_a_derivation_past_the_cap_are_refused():
    ring = _jet_ring(2)
    R = ring.ring
    ux, u = R.gens[ring.index["u_x"]], R.gens[ring.index["u"]]
    top = ux**_CAP
    assert R.pairs(next(iter(top))) == ((ring.index["u_x"], _CAP),)
    # a product by a term, a multi-term product, a power of a term and of a sum
    assert "u_x" in _past_the_cap(lambda: top * ux)
    assert "u_x" in _past_the_cap(lambda: (top + u) * (ux + u))
    assert "u_x" in _past_the_cap(lambda: ux ** (_CAP + 1))
    assert "u_x" in _past_the_cap(lambda: (top + u) ** 2)
    # decided before the squaring: (u_x + 1)^16384 alone has 16,385 terms
    assert "u_x" in _past_the_cap(lambda: (ux + 1) ** (_CAP + 1))
    assert "u_x" in _past_the_cap(lambda: (ux**3 + u * ux + 1) ** (_CAP // 3 + 1))
    # the digits of a literal exponent of the command line
    _past_the_cap(lambda: ux**123456789012)
    # D_x u = u_x: differentiating u raises the exponent of u_x past the cap
    f = ring.field.raw_new(top * u)
    assert "u_x" in _past_the_cap(lambda: ring.total(f, "x"))
    # a monomial built from its pairs, and one made by sympy
    _past_the_cap(lambda: R.monom([(0, _CAP + 1)]))
    R6 = _jet_ring(6).ring
    b, y = R6.gens[100], R6.gens[-1]
    # the lcm holds b^CAP * (b + 2)
    _past_the_cap(lambda: jets._lcm(b**_CAP * (y + 1), (b + 2) * y))
    # at the cap itself every operation is exact
    assert (top * u).exquo(top) == u and ux ** (_CAP - 1) * ux == top
    assert ring.total(ring.field.raw_new(top), "y") == ring.field.raw_new(
        R.gens[ring.index["u_xy"]] * ux ** (_CAP - 1) * _CAP
    )


def test_a_product_that_skips_the_guard_test_fails_the_oracle(monkeypatch):
    # without the test of the guard bits a field past the cap carries into
    # the generator before it: a wrong monomial, not an error
    monkeypatch.setattr(jets._JetPolyRing, "_checked", lambda self, p: p)
    ring = _jet_ring(2).ring
    ux = ring.gens[_jet_ring(2).index["u_x"]]
    wrapped = ux**_CAP * ux
    assert sympy_poly(wrapped) != sympy_poly(ux**_CAP) * sympy_poly(ux)


# the command line: exit code 4 and the message of the cap


@pytest.mark.parametrize(
    "argv, name",
    [
        (["reduce", "u_x^32768"], "u_x"),
        (["reduce", "u_x^123456789012"], "u_x"),
        (["reduce", "u_x^20000*u_x^20000"], "u_x"),
        (["reduce", "(u_x + v)^40000"], "v"),
        # the sympy route converts into the same field
        (["reduce", "t^(1/2)*u_x^40000"], "u_x"),
        (["invariants", "--eval", "u_x^40000"], "u_x"),
        (["check-solution", "u = x^40000; v = 0"], "x"),
    ],
)
def test_an_exponent_past_the_cap_is_a_domain_error(argv, name, capsys):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 4
    assert doc == {
        "error": "domain",
        "message": f"an exponent of {name} passes the cap {_CAP} of a jet-ring monomial",
    }


def test_an_exponent_at_the_cap_is_reduced(capsys):
    code = main(["reduce", "u_x^32767*v"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc == {"input": "u_x^32767*v", "reduced": "u_x^32767*v"}


def test_negative_powers_of_field_elements():
    ring = _jet_ring(1)
    ux = ring.gen("u_x")
    f = (ux + 1) ** -1
    assert f == ring.field.one / (ux + 1) and f * (ux + 1) == 1
    assert (ux / (ux - 1)) ** -2 == ((ux - 1) / ux) ** 2
    # the sign of the denominator is made canonical
    g = (ring.field.one - ux) ** -3
    assert g.denom[max(g.denom)] > 0 and g == ring.field.one / (ring.field.one - ux) ** 3
    with pytest.raises(ZeroDivisionError):
        ring.field.zero**-1
    assert ring.field.zero**0 == 1 and ux**0 == 1


# ---------------------------------------------------------------------------
# the format stays in jets

_FORMAT = {"_shifts", "_guards", "_values", "_at", "_FIELD", "_VALUE", "_fieldwise", "_checked"}


def _format_uses(source: str) -> list:
    """Names of the packed format (``_FORMAT``) that a module's source
    reads, as attributes or as imported names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _FORMAT:
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in _FORMAT]
    return found


def test_only_jets_reads_the_packed_format():
    src = Path(__file__).resolve().parents[1] / "src" / "jetweyl"
    offending = {
        path.name: uses
        for path in sorted(src.glob("*.py"))
        if path.name != "jets.py" and (uses := _format_uses(path.read_text()))
    }
    assert offending == {}
    assert "_shifts" in _format_uses((src / "jets.py").read_text())


def test_the_format_guard_sees_attributes_and_imports():
    assert _format_uses("from .jets import _FIELD, read\nm >> ring.ring._shifts[i]\n") == [
        "_FIELD",
        "_shifts",
    ]
