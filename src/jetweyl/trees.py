"""The sympy boundary of the jet field: sympy trees into jet rings and out.

:mod:`jetweyl.jets` holds the field, the equation and its points without
sympy.  This module holds what takes or gives a sympy expression:

* the generators as sympy symbols (:func:`symbol_of`, :func:`key_of`);
* :func:`convert`, which reads a tree straight into a ring, and
  :func:`to_expr`, which prints an element as a tree in ``normalize``'s
  canonical form;
* :func:`_ring_for`, the ring that holds the formal functions of some
  trees, and :func:`_canonical`, the conversion behind
  ``exprcore.normalize``;
* the tree side of ``sections._Rescaled``, a ring with the auxiliary
  generators of fractional powers, exponential atoms and non-rational
  constants: the readings of the generators of a rescaling
  (:func:`_readings_of`), their sympy values (:func:`back_of`), the
  canonical expression of an element (:func:`rescaled_expr`) and the
  section field of sympy trees (:func:`section_ring`, also of a move's data);
* the sympy forms of ``EquationSystem.reduce`` and ``JetPoint.eval``.

``_JetRing.convert``, ``to_expr`` and ``symbols``, ``_JetPoly.as_expr``,
``EquationSystem.reduce``, ``JetPoint.eval`` and the tree methods of
``sections`` import their code from here on first use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import sympy as sp

from .errors import (
    DivisionByZeroExpression,
    ExprError,
    JetOrderError,
    PointNotOnEquationError,
)
from .exprcore import (
    _AUX_KEYS,
    BASE_SYMBOLS,
    MAX_JET_ORDER,
    _aux_symbol,
    _constant,
    _rescaled,
    formal_info,
    is_formal_symbol,
    is_jet_symbol,
    jet_order,
    resolve_symbol,
    to_text,
)
from .jets import _JetRing, _merge, _ring_of
from .sections import _Rescaled

# ---------------------------------------------------------------------------
# generators as symbols


@lru_cache(maxsize=None)
def symbol_of(key) -> sp.Symbol:
    """The sympy symbol of a generator key: the registered symbol of a DSL
    name, the fixed ``Dummy`` of an auxiliary key
    (``exprcore._aux_symbol``), else the key itself (a foreign symbol)."""
    if type(key) is str:
        return resolve_symbol(key)
    return _aux_symbol(key) if type(key) is tuple else key


def key_of(s: sp.Symbol):
    """The generator key of a sympy symbol: the name of a base, jet or
    formal symbol, the tuple of an auxiliary one, else the symbol itself."""
    if s in BASE_SYMBOLS or is_jet_symbol(s) or is_formal_symbol(s):
        return s.name
    return _AUX_KEYS.get(s, s)


def poly_tree(p) -> sp.Expr:
    """A polynomial of a jet ring as a sympy tree."""
    symbols = p.ring.symbols
    return sp.Add(*[sp.Mul(c, *[s**e for s, e in zip(symbols, m) if e]) for m, c in p.items()])


# ---------------------------------------------------------------------------
# trees into a ring


class _Unreadable(Exception):
    """A tree :func:`_read` cannot read."""


def _rational_tree(e) -> bool:
    """Whether a tree holds symbols, rationals, sums, products and integer
    powers only."""
    if e.is_Symbol or e.is_Rational:
        return True
    if e.is_Pow:
        return e.exp.is_Integer and _rational_tree(e.base)
    return (e.is_Add or e.is_Mul) and all(map(_rational_tree, e.args))


def convert(ring: _JetRing, e):
    """The field element of a rational expression in the generators.

    The tree is read directly (:func:`_read`): symbols, rationals, sums,
    products and integer powers go straight into the field, with one
    cancellation per quotient formed.  A tree it cannot read is refused by
    :func:`_refuse`, which names the whole expression."""
    e = sp.sympify(e)
    try:
        num, den = _read(ring, e)
    except _Unreadable:
        pass
    else:
        # a denominator None is 1
        return ring.field.raw_new(num, den)
    _refuse(ring, e)


def _read(ring: _JetRing, e):
    """(numerator, denominator) of a tree in lowest terms, the
    denominator None for 1.  The polynomial terms of a sum are merged in
    one dict and its fractions added in the field; a negative power goes
    through ``field.new``, whose cancellation makes the sign of the
    denominator canonical.  ``_Unreadable`` for any other node and for a
    negative power of zero."""
    if e.is_Symbol:
        i = ring.symbol_index.get(e)
        if i is None:
            raise _Unreadable
        return ring.gens[i], None
    if e.is_Rational:
        one = ring.ring.one
        return one * int(e.p), (None if e.q == 1 else one * int(e.q))
    field = ring.field
    if e.is_Add:
        acc: dict = {}
        out = None
        for arg in e.args:
            num, den = _read(ring, arg)
            if den is None:
                _merge(acc, num)
            else:
                out = field.raw_new(num, den) if out is None else out + field.raw_new(num, den)
        if out is None:
            return ring.ring.dtype(acc), None
        out = out + field.raw_new(ring.ring.dtype(acc))
    elif e.is_Mul:
        poly, out = None, None
        for arg in e.args:
            num, den = _read(ring, arg)
            if den is None:
                poly = num if poly is None else poly * num
            else:
                out = field.raw_new(num, den) if out is None else out * field.raw_new(num, den)
        if out is None:
            return poly, None
        if poly is not None:
            out = out * poly
    elif e.is_Pow and e.exp.is_Integer:
        n = int(e.exp)
        num, den = _read(ring, e.base)
        if n > 0:
            return num**n, (None if den is None else den**n)
        if not num:
            raise _Unreadable
        out = field.new(ring.ring.one if den is None else den**-n, num**-n)
    else:
        raise _Unreadable
    return out.numer, (None if out.denom == 1 else out.denom)


def _refuse(ring: _JetRing, e):
    """Raise the error of an expression :func:`_read` cannot read: a
    symbol outside the ring, then a float, then a node that is not a
    rational function (an undefined value among them), else a zero
    denominator."""
    for s in e.free_symbols:
        ring._generator(s)
    if e.has(sp.Float):
        raise ExprError(f"{e} has a floating-point coefficient")
    if not _rational_tree(e):
        if e.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
            raise DivisionByZeroExpression(f"{e} contains an undefined value")
        raise ExprError(f"{e} is not a rational function of the jet coordinates")
    raise DivisionByZeroExpression(f"zero denominator in {e}")


def to_expr(ring: _JetRing, f) -> sp.Expr:
    """The expression in ``normalize``'s canonical form: numerator over
    denominator, in lowest terms as f is, with the denominator's leading
    coefficient in sympy's generator order positive."""
    num, den = f.numer, f.denom
    if not num:
        return sp.Integer(0)
    order = ring._sympy_order
    if den[max(den, key=lambda m: [m[i] for i in order])] < 0:
        num, den = -num, -den
    return poly_tree(num) / poly_tree(den)


def _ring_for(order: int, exprs: Iterable, derivatives: int = 0, aux: tuple = ()) -> _JetRing:
    """The ring of jet order ``order`` holding every formal function of the
    expressions with ``derivatives`` more t-derivatives than occur, and the
    auxiliary generators ``aux`` (sympy symbols, keyed by :func:`key_of`)."""
    formals: dict[str, int] = {}
    for e in exprs:
        for s in e.free_symbols:
            if is_formal_symbol(s):
                name, m = formal_info(s)
                formals[name] = max(formals.get(name, 0), m)
    return _ring_of(order, formals, derivatives, tuple(map(key_of, aux)))


# ---------------------------------------------------------------------------
# canonical forms


def _readings_of(back: dict) -> dict:
    """The readings ({key: reading}, see ``sections``) of the generators of
    a rescaling (``exprcore._rescaled``: generator -> value), in its
    order."""
    out = {}
    for gen, atom in back.items():
        key = key_of(gen)
        if not atom.free_symbols:
            out[key] = ("radical", None, (key[1], Fraction(1, key[2])))
        elif isinstance(atom, sp.exp):
            (b,) = atom.args[0].free_symbols
            s = atom.args[0].coeff(b)
            out[key] = ("exp", BASE_SYMBOLS.index(b), Fraction(int(s.p), int(s.q)))
        else:
            out[key] = ("root", BASE_SYMBOLS.index(atom.base), int(atom.exp.q))
    return out


def back_of(scaled: _Rescaled) -> dict:
    """generator symbol -> value of the auxiliary generators of a field, as
    ``exprcore._rescaled`` gives them: b^(1/m), exp(s*b), p^(1/M) and
    exp(1/M)."""
    return {symbol_of(key): _value_of(reading) for key, reading in scaled._readings.items()}


@lru_cache(maxsize=None)
def _value_of(reading: tuple) -> sp.Expr:
    """The sympy value of an auxiliary generator with a reading, made once
    per reading (a power of an integer costs sympy a factorization)."""
    kind, i, k = reading
    if kind == "root":
        return BASE_SYMBOLS[i] ** sp.Rational(1, k)
    if kind == "exp":
        return sp.exp(sp.Rational(k.numerator, k.denominator) * BASE_SYMBOLS[i])
    p, r = k
    return _constant(p, r.denominator)[1]


def section_ring(exprs, derivatives: int) -> tuple:
    """(ring, readings, values) of the section field of sympy trees: the
    trees rescaled jointly (``exprcore._rescaled``), in the ring of jet
    order 0 with their formal functions, ``derivatives`` more of their
    t-derivatives and the auxiliary generators."""
    scaled, back = _rescaled(sp.Tuple(*exprs))
    ring = _ring_for(0, scaled.args, derivatives=derivatives, aux=tuple(back))
    return ring, _readings_of(back), tuple(ring.convert(e) for e in scaled.args)


def rescaled_expr(scaled: _Rescaled, f) -> sp.Expr:
    """The canonical expression of an element of a field with auxiliary
    generators: ``to_expr`` of the reduced element, a product of radicals
    of several primes written as one root, and the auxiliary generators
    substituted back."""
    out = scaled.ring.to_expr(scaled._reduced_element(f))
    if len(scaled._radicals) > 1:
        out = out.replace(lambda e: e.is_Mul, lambda term: _one_root(scaled, term))
    back = scaled.back
    return out.xreplace(back) if back else out


def _one_root(scaled: _Rescaled, term: sp.Expr) -> sp.Expr:
    """A product with radicals of several primes written as one root of a
    rational, the way sympy writes a power of a rational: 2^(2/3) * 3^(1/3)
    as 12^(1/3)."""
    radicals = {scaled.ring.symbols[i]: (p, M) for i, p, M in scaled._radicals}
    found, rest = {}, []
    for factor in term.args:
        base, k = factor.as_base_exp()
        if base in radicals:
            found[base] = k
        else:
            rest.append(factor)
    if len(found) < 2:
        return term
    M = sp.ilcm(*(radicals[g][1] for g in found))
    q = sp.Integer(1)
    for g, k in found.items():
        p, m = radicals[g]
        q *= sp.Integer(p) ** (k * M // m)
    return sp.Mul(*rest) * q ** sp.Rational(1, M)


def _canonical(e: sp.Expr) -> tuple[_Rescaled, object]:
    """An expression of the term language as an element of the ring of its
    jet order, with its formal functions, the auxiliary generators of its
    rescaling and every other symbol (such as the ``z`` of a Poincare
    function) as extras.  ``exprcore.normalize``, ``is_zero``, ``equal``
    and ``to_text`` are this conversion."""
    scaled, back = _rescaled(e)
    foreign = sorted(
        (
            s
            for s in scaled.free_symbols
            if s not in BASE_SYMBOLS
            and s not in back
            and not is_jet_symbol(s)
            and not is_formal_symbol(s)
        ),
        key=sp.default_sort_key,
    )
    ring = _ring_for(jet_order(scaled), (scaled,), aux=(*back, *foreign))
    return _Rescaled(ring, _readings_of(back)), ring.convert(scaled)


# ---------------------------------------------------------------------------
# the system on trees


def reduce_tree(e, k: int | None = None) -> sp.Expr:
    """Restriction to the order-k equation submanifold in internal
    coordinates (``EquationSystem.reduce``).  ``k`` defaults to the
    expression's own jet order and may not exceed the hard cap; high orders
    are slow, the table grows about sevenfold per order.

    Fractional powers of base variables, exponential atoms and
    non-rational constants become auxiliary generators of the ring
    (``exprcore._rescaled``); reduction never differentiates them.  The
    result is in ``normalize``'s canonical form.
    """
    e = sp.sympify(e)
    order = jet_order(e)
    if k is None:
        k = order
    if order > k:
        raise JetOrderError(
            f"expression has jet order {order}, beyond the requested {k}"
        )
    if k > MAX_JET_ORDER:
        raise JetOrderError(f"order {k} beyond hard cap {MAX_JET_ORDER}")
    scaled, back = _rescaled(e)
    ring = _ring_for(k, (scaled,), aux=tuple(back))
    return _Rescaled(ring, _readings_of(back)).expr(ring.reduce(ring.convert(scaled)))


def eval_tree(point, e) -> Fraction:
    """Exact evaluation of a term-language expression at a jet point
    (``JetPoint.eval``).  Of several formal functions, the first by name
    is named as the one that cannot be evaluated."""
    e = sp.sympify(e)
    rep = {}
    for s in sorted(e.free_symbols, key=sp.default_sort_key):
        if s not in BASE_SYMBOLS and not is_jet_symbol(s):
            raise PointNotOnEquationError(f"cannot evaluate symbol {s} at a jet point")
        q = point.value(s)
        rep[s] = sp.Rational(q.numerator, q.denominator)
    val = e.xreplace(rep)
    if not val.is_Rational:
        if val.has(sp.zoo, sp.nan):
            raise DivisionByZeroExpression(
                f"the denominator of {to_text(e)} vanishes at the jet point ({point._where()})"
            )
        raise PointNotOnEquationError(f"non-rational value {val}")
    return Fraction(int(val.p), int(val.q))
