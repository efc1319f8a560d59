"""Exact expression kernel: canonical forms and text form; the tree
derivative ``tree_oracle.partial`` that other tests use as their oracle."""

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from jetweyl.errors import (
    ExpAtomError,
    ExponentPolicyError,
    UnknownSymbolError,
)
from jetweyl.exprcore import (
    MAX_JET_ORDER,
    MultiIndex,
    _prime_radicals,
    T,
    X,
    Y,
    equal,
    formal,
    formal_shift,
    is_zero,
    jet,
    jet_info,
    normalize,
    to_text,
    validate_kernel,
)
from tree_oracle import partial

u = jet("u")
v = jet("v")
u_x = jet("u", (0, 1, 0))
u_xx = jet("u", (0, 2, 0))
u_xy = jet("u", (0, 1, 1))
v_x = jet("v", (0, 1, 0))


def test_cancellation():
    assert equal((u_x + v_x) - v_x, u_x)


def test_factor_cancellation():
    assert equal((u_x**2 - u_xy**2) / (u_x - u_xy), u_x + u_xy)


def test_rational_exponent_product():
    assert equal(Y ** sp.Rational(2, 3) * Y ** sp.Rational(1, 3), Y)


def test_zero_test_sees_through_radicals():
    assert is_zero((Y ** sp.Rational(2, 3)) ** 3 - Y**2)


def _sympys_split(q: sp.Rational, e: sp.Rational) -> tuple:
    """(c, {p: r}) of sympy's own q**e: its rational coefficient and, over
    the powers of integers in it, each prime's exponent."""
    value = q**e
    c, rest = value.as_coeff_Mul()
    radicals = {}
    for factor in sp.Mul.make_args(rest) if rest != 1 else ():
        base, k = factor.as_base_exp()
        assert base.is_Integer and base > 1 and k.is_Rational, value
        for p, n in sp.factorint(int(base)).items():
            radicals[p] = radicals.get(p, 0) + n * k
    return c, radicals


def test_the_prime_split_is_sympys_power_of_a_rational():
    """q^e as a rational times prime radicals p^r with 0 < r < 1: the
    coefficient and exponents sympy gives the evaluated power."""
    rng = random.Random(5)
    cases = [(sp.Rational(n, d), sp.Rational(k, m)) for n, d, k, m in (
        (9, 4, 1, 2), (8, 1, 1, 3), (1, 2, 1, 2), (12, 5, 1, 2), (27, 1, 1, 2),
        (1, 2, 1, 3), (18, 1, 1, 3), (2, 1, -2, 3), (3, 8, 5, 6), (2**61 - 1, 3, 1, 2),
    )]
    for _ in range(60):
        q = sp.Rational(rng.randint(1, 400), rng.randint(1, 60))
        e = sp.Rational(rng.randint(-9, 9), rng.randint(1, 7))
        cases.append((q, e))
    for q, e in cases:
        c, radicals = _prime_radicals(Fraction(int(q.p), int(q.q)), Fraction(int(e.p), int(e.q)))
        assert all(0 < r < 1 for r in radicals.values())
        want_c, want = _sympys_split(q, e)
        assert (sp.Rational(c.numerator, c.denominator), radicals) == (want_c, want), (q, e)


def test_partial_basic():
    assert equal(partial(u_x * v, v), u_x)
    assert equal(partial(Y ** sp.Rational(2, 3), Y), sp.Rational(2, 3) * Y ** sp.Rational(-1, 3))


def test_partial_formal_chain():
    # d/dt of a(t)*x introduces the next derivative symbol a'(t)
    a = formal("a")
    assert equal(partial(a * X, T), formal("a", 1) * X)
    assert formal_shift(a) == formal("a", 1)
    assert to_text(formal("a", 1)) == "a'(t)"


def test_kernel_policy():
    with pytest.raises(ExpAtomError):
        validate_kernel(sp.exp(Y))
    validate_kernel(sp.exp(Y), allow_exp=True)
    with pytest.raises(UnknownSymbolError):
        validate_kernel(sp.Symbol("zz"))
    with pytest.raises(ExponentPolicyError):
        # fractional powers are a base-variable privilege
        validate_kernel(u_x ** sp.Rational(1, 2))


def test_exp_argument_that_is_a_quotient_is_refused_as_an_exp_atom_error():
    # sympy's Poly raises PolynomialError on y/(t^2 + 1); the kernel's
    # own error class must come out
    with pytest.raises(ExpAtomError, match="not linear"):
        validate_kernel(sp.exp(Y / (T**2 + 1)), allow_exp=True)


def test_the_constant_e_prints_as_exp_of_one():
    from jetweyl.dsl import parse_expr

    for e in (sp.E * X + 1, X / sp.E, sp.E**2 * Y, sp.exp(sp.Rational(1, 3)) + X):
        text = to_text(e)
        assert "E" not in text
        assert parse_expr(text, allow_exp=True) == normalize(e)
    assert to_text(sp.E * X) == "exp(1)*x"


def test_jet_symbols():
    assert jet_info(u_xy) == ("u", MultiIndex(0, 1, 1))
    assert jet("u", MultiIndex(0, 1, 1)) is jet("u", (0, 1, 1))
    assert MultiIndex(1, 2, 0).order == 3
    assert to_text(jet("u", (1, 2, 0))) == "u_txx"
    with pytest.raises(Exception):
        jet("u", (MAX_JET_ORDER + 1, 0, 0))


# -- randomized laws -------------------------------------------------------

_POOL = [T, X, Y, u, v, u_x, u_xy, v_x, formal("a"), formal("b", 1)]


def _random_expr(rng, depth=2):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.3:
            return sp.Integer(rng.randint(-3, 3))
        return rng.choice(_POOL)
    op = rng.choice(("add", "mul", "pow"))
    lhs = _random_expr(rng, depth - 1)
    if op == "pow":
        return lhs ** rng.randint(1, 2)
    rhs = _random_expr(rng, depth - 1)
    return lhs + rhs if op == "add" else lhs * rhs


def test_ring_axioms_thousand_triples():
    """Associativity, commutativity, distributivity under canonical equality."""
    rng = random.Random(20240817)
    for _ in range(1000):
        a, b, c = (_random_expr(rng) for _ in range(3))
        assert equal((a + b) + c, a + (b + c))
        assert equal(a * b, b * a)
        assert equal(a * (b + c), a * b + a * c)


@given(st.integers(0, len(_POOL) - 1), st.integers(0, len(_POOL) - 1), st.integers(-4, 4))
def test_normalize_idempotent(i, j, k):
    e = normalize((_POOL[i] + k) * _POOL[j] - _POOL[i] ** 2)
    assert normalize(e) == e


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_partial_commutes(seed):
    rng = random.Random(seed)
    e = _random_expr(rng, depth=3)
    s1, s2 = rng.choice(_POOL[:8]), rng.choice(_POOL[:8])
    assert equal(partial(partial(e, s1), s2), partial(partial(e, s2), s1))
