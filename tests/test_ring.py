"""The jet ring against the expression-tree jet calculus it replaced.

The tree principal table with its reduction and the tree prolonged
coefficients live here, built on ``tree_oracle.tree_total_derivative``, as
the oracle: every ring result must equal the tree result as a rational
function (``tree_normalize(a - b) == 0``, the sympy canonical form of
``tree_oracle``), and the ring's principal table must agree at random
rational points with the principal values ``JetPoint`` solves by Leibniz's
rule in integers, independently of the table (``test_jets`` matches that
solve against the ``Fraction`` solve ``tree_oracle.fraction_principal_values``).
"""

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from jetweyl.errors import DivisionByZeroExpression, ExprError, JetOrderError, JetweylError
from jetweyl.exprcore import (
    T,
    X,
    Y,
    formal,
    is_jet_symbol,
    jet,
    jet_info,
    jet_order,
)
from jetweyl.fields import PointField, ProlongedField, _bracket_in
from jetweyl.geometry import catalog
from jetweyl.invariants import (
    _families,
    _order3,
    apply_derivation,
    invariant,
    structure_K,
    verify_invariance,
)
from jetweyl.jets import (
    _JetRing,
    _equations,
    _jet_ring,
    _poly_sums,
    internal_indices,
    ms_system,
    principal_indices,
)
from jetweyl.trees import _canonical, _ring_for
from jetweyl.symmetry import ShapeField, _ansatz, _family_terms, generator
from tree_oracle import (
    generating_section,
    partial,
    tree_equations,
    tree_normalize,
    tree_total_derivative,
    written_derivation,
    written_equations,
)

# ---------------------------------------------------------------------------
# the tree oracle


class TreeTable:
    """The principal table by tree total derivatives and substitution."""

    def __init__(self):
        F1, F2 = tree_equations()
        self.table = {
            jet(dep, "tx"): sp.expand(jet(dep, "tx") - F) for dep, F in (("u", F1), ("v", F2))
        }

    def principal(self, dep, idx) -> sp.Expr:
        sym = jet(dep, idx)
        if sym not in self.table:
            d = "y" if idx.ny else ("x" if idx.nx > 1 else "t")
            parent = self.principal(dep, idx.drop(d))
            self.table[sym] = sp.expand(self.substitute(tree_total_derivative(parent, d)))
        return self.table[sym]

    def substitute(self, e) -> sp.Expr:
        rep = {
            s: self.principal(*jet_info(s))
            for s in e.free_symbols
            if is_jet_symbol(s) and jet_info(s)[1].is_principal
        }
        return e.xreplace(rep)

    def reduce(self, e) -> sp.Expr:
        num, den = sp.fraction(sp.together(sp.sympify(e)))
        return tree_normalize(self.substitute(sp.expand(num)) / self.substitute(sp.expand(den)))


TREE = TreeTable()


def tree_lie_derivative(field: PointField, e, k: int) -> sp.Expr:
    """The order-k prolongation applied to e, coefficient by coefficient."""
    e = sp.sympify(e)
    section = generating_section(field)
    out = field.at * partial(e, "t") + field.ax * partial(e, "x") + field.ay * partial(e, "y")
    for s in e.free_symbols:
        if not is_jet_symbol(s):
            continue
        dep, idx = jet_info(s)
        assert idx.order <= k
        coeff = getattr(section, f"phi_{dep}")
        for d, n in zip("txy", (idx.nt, idx.nx, idx.ny)):
            for _ in range(n):
                coeff = tree_total_derivative(coeff, d)
        for a, d in zip((field.at, field.ax, field.ay), "txy"):
            coeff += a * jet(dep, idx.bump(d))
        out += coeff * sp.diff(e, s)
    return out


def same(a, b) -> bool:
    return tree_normalize(sp.sympify(a) - sp.sympify(b)) == 0


def applied(field: PointField, e, k: int) -> sp.Expr:
    """The order-k prolongation applied to e in the ring of the
    prolongation and e (``ProlongedField._apply_in``)."""
    prolonged = ProlongedField(field, k)
    ring = prolonged._ring(e)
    return ring.to_expr(prolonged._apply_in(ring, ring.convert(e)))


FAMILIES = [generator(fam, name) for fam, name in zip(range(1, 6), "abcde")]
QUANTITIES = [invariant(i) for i in (1, 2, 3)] + [structure_K(i) for i in (1, 2, 3, 4)]


# ---------------------------------------------------------------------------
# the principal table


def _ring_entries(k: int):
    ring = _jet_ring(k)
    return ring, {
        (dep, idx): ring.principal(ring.symbol_index[jet(dep, idx)])
        for idx in principal_indices(k)
        for dep in ("u", "v")
    }


def test_principal_table_term_counts():
    counts = {k: sum(map(len, _ring_entries(k)[1].values())) for k in (3, 4, 5, 6)}
    assert counts == {3: 95, 4: 593, 5: 3107, 6: 14651}


def test_principal_table_matches_the_tree_table():
    ring, entries = _ring_entries(4)
    for (dep, idx), poly in entries.items():
        got = ring.to_expr(ring.field.raw_new(poly))
        assert got == TREE.principal(dep, idx), (dep, idx)


def test_each_order_has_one_ring_and_one_principal_table():
    # a key with no formal or auxiliary generator is _jet_ring(k)'s own, so
    # a plain ring and its principal table are built once per order
    assert _ring_for(3, (invariant(1),)) is _jet_ring(3)
    assert _ring_for(2, (jet("u", "x"),), derivatives=1) is _jet_ring(2)
    for k in (2, 3, 4):
        plain = _ring_for(k, (jet("u"),))
        assert plain is _jet_ring(k)
        padded = _ring_for(k, (formal("a"),))
        for idx in principal_indices(k):
            i = plain.symbol_index[jet("v", idx)]
            assert plain.principal(i) is _jet_ring(k).principal(i)
            # the same exponents, with zeros for the extras
            assert padded.principal(i) == padded.ring.dtype(
                {padded.ring.monom(plain.ring.pairs(m)): c for m, c in plain.principal(i).items()}
            )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=4, deadline=None)
def test_principal_table_matches_point_values_through_order_6(seed):
    rng = random.Random(seed)
    internal = {
        jet(dep, idx): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for dep in ("u", "v")
        for idx in internal_indices(6)
    }
    point = ms_system().point(6, internal=internal)
    ring, entries = _ring_entries(6)
    values = [
        point.value(s) if is_jet_symbol(s) else Fraction(0) for s in ring.symbols
    ]
    for (dep, idx), poly in entries.items():
        total = Fraction(0)
        for monom, c in poly.items():
            term = Fraction(int(c.numerator), int(c.denominator))
            for i, n in ring.ring.pairs(monom):
                term *= values[i] ** n
            total += term
        assert total == point.value(jet(dep, idx)), (dep, idx)


# ---------------------------------------------------------------------------
# total derivatives and reduction

_POOL = [
    jet("u"),
    jet("v"),
    jet("u", "x"),
    jet("u", "y"),
    jet("v", "x"),
    jet("u", "xx"),
    jet("v", "xy"),
    jet("u", "tx"),
    T,
    X,
    Y,
    formal("a"),
    formal("a", 1),
    sp.Rational(-3, 2),
    sp.Integer(2),
]


def _random_expression(rng: random.Random, depth: int = 0) -> sp.Expr:
    if depth > 2 or rng.random() < 0.3:
        return rng.choice(_POOL)
    a, b = _random_expression(rng, depth + 1), _random_expression(rng, depth + 1)
    op = rng.randrange(4)
    if op == 0:
        return a + b
    if op == 1:
        return a * b
    if op == 2:
        return a - 2 * b
    return a / b if b.free_symbols & {jet("u", "x"), jet("u", "xx"), Y} else a * b


def ring_total_derivative(e, d: str) -> sp.Expr:
    """D_d e by ``_JetRing.total`` in the ring of e one order up."""
    ring = _ring_for(jet_order(e) + 1, (e,), derivatives=1)
    return ring.to_expr(ring.total(ring.convert(e), d))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_total_derivative_matches_the_tree(seed):
    rng = random.Random(seed)
    e = _random_expression(rng)
    for d in "txy":
        got = ring_total_derivative(e, d)
        assert same(got, tree_total_derivative(e, d))
        assert tree_normalize(got) == got


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_reduce_matches_the_tree(seed):
    rng = random.Random(seed)
    e = tree_total_derivative(_random_expression(rng), rng.choice("txy"))
    got = ms_system().reduce(e, k=4)
    assert got == TREE.reduce(e)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_ring_round_trip_is_the_canonical_form(seed):
    e = _random_expression(random.Random(seed))
    ring = _ring_for(jet_order(e), (e,))
    assert ring.to_expr(ring.convert(e)) == tree_normalize(e)


def _embeds_as_converted(source, target, f) -> bool:
    """``target.embed(f)`` has the numerator and denominator of the
    conversion of f's expression in ``source``."""
    got, want = target.embed(f), target.convert(source.to_expr(f))
    return got.numer == want.numer and got.denom == want.denom


def test_embed_matches_conversion():
    o = _order3()
    families_ring = _families(3)[0]
    for f in (*o.I, *o.K, *o.twelve[3:]):
        assert _embeds_as_converted(o.ring, families_ring, f)
    source = _jet_ring(2)
    lift_ring = _ring_for(0, ShapeField(d=formal("d")).base_field().components(), derivatives=1)
    symmetry_ring = ProlongedField(generator(5, formal("f")), 2)._ring()
    metric, covector = _ansatz()
    for target in (_jet_ring(3), lift_ring, symmetry_ring):
        for f in (*_equations(), *metric[0], *metric[1], *metric[2], *covector):
            if all(source.symbols[i] in target.symbol_index for i in source.present(f)):
                assert _embeds_as_converted(source, target, f)
            else:
                # only the lift ring, of jet order 0, lacks a generator
                assert target is lift_ring
                with pytest.raises(JetOrderError):
                    target.embed(f)
    # K1 holds u_xxx
    with pytest.raises(JetOrderError):
        _jet_ring(2).embed(o.K[0])


def test_embed_between_extras_in_another_order_keeps_the_canonical_sign():
    a, b = sp.symbols("embed_a embed_b")
    source, target = _JetRing(1, (a, b)), _JetRing(1, (b, a))
    f = source.convert((jet("u", "x") + 1) / (a - b))
    # the denominator a - b leads with a in the source and is b - a here
    assert f.denom == source.convert(a - b).numer
    assert target.embed(f).denom == target.convert(b - a).numer
    assert _embeds_as_converted(source, target, f)


# ---------------------------------------------------------------------------
# prolonged fields, derivations, invariants


@pytest.mark.parametrize("fam", range(1, 6))
def test_lie_derivatives_match_the_tree(fam):
    field = FAMILIES[fam - 1]
    for e in QUANTITIES:
        k = jet_order(e)
        got = applied(field, e, k)
        assert same(got, tree_lie_derivative(field, e, k))
        assert TREE.reduce(got) == 0


def test_lie_derivative_of_a_non_invariant_matches_the_tree():
    e = invariant(2) + sp.Rational(3, 7) * jet("u", "xx")
    for field in FAMILIES:
        got = applied(field, e, 2)
        assert same(got, tree_lie_derivative(field, e, 2))
        assert ms_system().reduce(got) == TREE.reduce(got)


# rational coefficients give the derivation images with polynomial
# denominators, which it puts over one common denominator
_RATIONAL_FIELDS = (
    PointField(ax=1 / (1 + T**2), fu=jet("u") / Y, fv=X * formal("f")),
    PointField(at=X, ay=Y**2, fv=1 / (jet("v") + 1)),
)


def _tree_bracket_component(a: PointField, b: PointField, n: int) -> sp.Expr:
    coords = (T, X, Y, jet("u"), jet("v"))
    return sum(
        (
            c * partial(b.components()[n], s) - d * partial(a.components()[n], s)
            for c, d, s in zip(a.components(), b.components(), coords)
        ),
        sp.Integer(0),
    )


def test_lie_bracket_matches_the_tree():
    f, g = formal("f"), formal("g")
    pairs = [(generator(i, f), generator(j, g)) for i in range(1, 6) for j in range(1, 6)]
    pairs.append(_RATIONAL_FIELDS)
    for a, b in pairs:
        ring = _ring_for(0, (*a.components(), *b.components()), derivatives=1)
        fa, fb = ([ring.convert(c) for c in f.components()] for f in (a, b))
        for n, component in enumerate(_bracket_in(ring, fa, fb)):
            assert same(ring.to_expr(component), _tree_bracket_component(a, b, n)), (a, b, n)


def test_prolonged_field_with_rational_coefficients_matches_the_tree():
    e = jet("u", "x") / jet("u", "xx") + jet("v", "y") * formal("f", 1)
    for field in _RATIONAL_FIELDS:
        assert same(applied(field, e, 2), tree_lie_derivative(field, e, 2))


def test_apply_derivation_matches_the_tree():
    for e in QUANTITIES[:4]:
        for j in (1, 2, 3):
            raw = sum(
                (c * tree_total_derivative(e, s) for c, s in zip(written_derivation(j), "txy")),
                sp.Integer(0),
            )
            assert apply_derivation(j, e) == TREE.reduce(raw), (e, j)


def tree_nabla(j: int, e) -> sp.Expr:
    """The j-th invariant derivation applied to e by tree total
    derivatives, reduced by the tree table."""
    raw = sum(
        (c * tree_total_derivative(e, s) for c, s in zip(written_derivation(j), "txy")),
        sp.Integer(0),
    )
    return TREE.reduce(raw)


def tree_structure_K() -> list:
    """K1-K4 by their defining formulas on trees."""
    ux, uy, uxx, uxy, uyy = (jet("u", w) for w in ("x", "y", "xx", "xy", "yy"))
    uxxx, uxxy = jet("u", "xxx"), jet("u", "xxy")
    K2 = (uxy * uxxx - uxx * uxxy) / (ux * uxx**2)
    K3 = (
        K2 * (1 - 2 * uxy / ux**2)
        - 2 * uxx / ux**3 * tree_nabla(2, uy)
        + 2 / ux**2 * tree_nabla(2, uxy)
    )
    K4 = (
        uxx * tree_nabla(2, 2 * uyy - ux * uy)
        - tree_nabla(2, uxy / uxx) * uxx * (2 * uxy - ux**2)
        - tree_nabla(2, uxy**2)
    ) / ux**4
    return [ux * uxxx / uxx**2 - 3, K2, K3, K4]


def test_order3_table_matches_the_tree():
    # the one source of the order-3 data: I1-I3, the nine derivation
    # coefficients and K1-K4 (the twelve are matched below)
    table = _order3()
    tree = table.ring.to_expr
    for i in (1, 2, 3):
        assert tree(table.I[i - 1]) == tree_normalize(invariant(i))
    for j in (1, 2, 3):
        for got, c in zip(table.nabla[j - 1], written_derivation(j)):
            assert tree(got) == tree_normalize(c), (j, c)
    for i, want in enumerate(tree_structure_K(), 1):
        assert same(tree(table.K[i - 1]), want), i
        assert structure_K(i) == tree(table.K[i - 1])


def test_twelve_invariants_match_the_tree():
    table = _order3()
    twelve = [table.ring.to_expr(f) for f in table.twelve]
    for i in (1, 2, 3):
        assert twelve[i - 1] == tree_normalize(invariant(i))
        for j in (1, 2, 3):
            assert twelve[3 * i + j - 1] == tree_nabla(j, invariant(i)), (i, j)


def _monomial_tree(ring, monom) -> sp.Expr:
    return sp.Mul(*(ring.symbols[i] ** n for i, n in ring.ring.pairs(monom)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_point_evaluator_matches_the_tree(k):
    """``_poly_sums`` against ``JetPoint.eval`` of the polynomial as a tree, on
    every polynomial the program evaluates at jet points: the numerators
    and denominators of the twelve invariants with their gradients in the
    internal coordinates (the Jacobian entries of ``independence_rank``)
    and the base parts of the orbit vectors."""
    rng = random.Random(7100 + k)
    internal = {
        jet(dep, idx): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
        for dep in ("u", "v")
        for idx in internal_indices(k)
    }
    base = {c: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for c in "txy"}
    point = ms_system().point(k, base=base, internal=internal)
    table = _order3()
    ring = table.ring
    coords = [ring.symbol_index[jet(dep, idx)] for dep in ("u", "v") for idx in internal_indices(3)]
    for f in table.twelve:
        for p in (f.numer, f.denom):
            tree = p.as_expr()
            value, den, grad = _poly_sums(point, ring, p, coords)
            assert Fraction(value, den) == point.eval(tree)
            for i, g in zip(coords, grad):
                want = point.eval(sp.diff(tree, ring.symbols[i]))
                assert Fraction(g, den) == want, (p, i)
    ring1 = _jet_ring(1)
    for fam in range(1, 6):
        for component in _family_terms(fam)[:3]:
            for _, c, d in component:
                tree = sum(
                    (sp.Rational(q, d) * _monomial_tree(ring1, m) for m, q in c.items()),
                    sp.Integer(0),
                )
                value, den, _ = _poly_sums(point, ring1, c)
                assert Fraction(value, den * d) == point.eval(tree), (fam, c)


def test_invariance_proofs_of_order_up_to_3_share_one_prolongation_ring():
    _families.cache_clear()
    for e in (invariant(1), jet("u", "x"), structure_K(1)):
        verify_invariance(e)
    assert _families.cache_info().currsize == 1
    assert _families(3) is _families(3)


# ---------------------------------------------------------------------------
# error classes


def test_zero_reduced_denominator_raises():
    # the denominator is F1, which vanishes on the equation
    F1, _ = written_equations()
    with pytest.raises(DivisionByZeroExpression):
        ms_system().reduce(jet("u", "x") / F1)


@pytest.mark.parametrize(
    "e",
    [sp.sin(jet("u")), sp.sqrt(jet("u", "x")), sp.Float(0.5) * jet("u"), jet("u") ** sp.Rational(1, 3)],
)
def test_non_rational_input_to_total_derivative_raises(e):
    with pytest.raises(ExprError):
        ring_total_derivative(e, "x")


def _refusal(call) -> tuple:
    with pytest.raises(JetweylError) as info:
        call()
    return type(info.value), str(info.value)


def test_derivations_refuse_what_their_ring_cannot_differentiate():
    # a jet of the top order, a formal derivative of the highest order
    # carried and an auxiliary generator have no image under a total
    # derivative; past the formal derivatives of a section d/dt has none
    ring = _jet_ring(2)
    assert _refusal(lambda: ring.total(ring.gen(jet("u", "xx")), "x")) == (
        JetOrderError,
        "D_x u_xx lies outside the ring of jet order 2",
    )
    a1 = formal("a", 1)
    ring = _ring_for(1, (a1,))
    assert _refusal(lambda: ring.total(ring.gen(a1), "t")) == (
        JetOrderError,
        f"D_t {a1} lies outside the ring of jet order 1",
    )
    scaled, _ = _canonical(sp.sqrt(X))
    (aux,) = scaled.back
    assert str(aux) == "_X"
    assert _refusal(lambda: scaled.ring.total(scaled.ring.gen(aux), "x")) == (
        ExprError,
        "cannot differentiate the auxiliary generator _X",
    )
    field = catalog("exp-family").field
    f4 = field.ring.gen(formal("f", 4))
    assert _refusal(lambda: field.partial(f4, "t")) == (
        JetOrderError,
        "d/dt of a formal derivative of order past 4 beyond those of the section",
    )
    assert not field.partial(f4, "x")
