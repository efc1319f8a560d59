"""Jet-space bookkeeping for the modified dispersionless system.

The system lives on sections (t, x, y) -> (u, v) and reads

    F1 = D_x(u_t + u*u_y + v*u_x) - D_y(u_y) = 0,
    F2 = D_x(v_t + v*v_x - u*v_y) - D_y(v_y - 2*u*v_x) = 0.

Both equations are monic in a second-order coordinate carrying one t- and
one x-derivative (u_tx resp. v_tx).  Calling a multi-index *principal* when
it contains at least one t and at least one x, every prolonged equation
D_sigma F_i is monic in exactly one principal coordinate, so the equation
submanifold of any jet order is the graph of a triangular substitution:
principal coordinates are polynomials in the remaining *internal* ones.
F1, F2 are written once (``_ms_equations``) and held in one form, the
elements of the order-2 jet ring that ``_equations`` converts.
:meth:`EquationSystem.reduce` performs that substitution in one sparse
field of rational functions over ZZ (``_JetRing``: generators t, x, y, the
jet coordinates up to the order in play and the formal functions present).
The field is the package's own: a polynomial is a dict from monomial to
int (``_JetPoly``), a fraction a pair of them in lowest terms
(``_JetFraction``), and a one-term side cancels without a gcd
(``_cancel``).  sympy's polynomials compute the gcd of two multi-term
polynomials only (``_by_sympy``); sympy trees are read and printed at the
boundary (``_JetRing.convert``, ``to_expr``).  Every derivation (total,
section, point or prolonged field) is applied by generator index by
``_JetRing.apply``, to its images lifted over one common denominator
(``_JetRing.lift``).  A :class:`JetPoint` holds every coordinate in
Python integers over powers of one denominator and solves the same
triangular system there; ``_poly_sums`` evaluates integer ring
polynomials, and their gradients, from those integers.

The dimension counts of jet spaces and equation submanifolds live in
:mod:`jetweyl.counts`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from operator import add, mul, sub
from typing import Iterable

import sympy as sp

# the boundary with sympy's polynomials: the gcd of two multi-term
# polynomials (``_by_sympy``) and the generator order of printed trees
# (``_JetRing.to_expr``)
from sympy.polys.domains import ZZ
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyRing

from .errors import (
    DivisionByZeroExpression,
    ExprError,
    JetOrderError,
    PointNotOnEquationError,
    UnknownSymbolError,
)
from .exprcore import (
    BASE_SYMBOLS,
    MAX_JET_ORDER,
    DEPENDENTS,
    MultiIndex,
    _rescaled,
    formal,
    formal_info,
    formal_shift,
    is_formal_symbol,
    is_jet_symbol,
    jet,
    jet_info,
    jet_order,
    resolve_symbol,
    to_text,
)

__all__ = [
    "EquationSystem",
    "ms_system",
    "JetPoint",
    "internal_indices",
    "principal_indices",
]


def _shift(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _minus(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _ms_equations() -> tuple[sp.Expr, sp.Expr]:
    """F1 = D_x(u_t + u*u_y + v*u_x) - D_y(u_y) and
    F2 = D_x(v_t + v*v_x - u*v_y) - D_y(v_y - 2*u*v_x), written out."""
    u, v = jet("u"), jet("v")
    ux, uy, vx, vy = jet("u", "x"), jet("u", "y"), jet("v", "x"), jet("v", "y")
    F1 = jet("u", "tx") + ux * uy + u * jet("u", "xy") + ux * vx + v * jet("u", "xx") - jet("u", "yy")
    F2 = (
        jet("v", "tx") + vx**2 + v * jet("v", "xx") - ux * vy + u * jet("v", "xy")
        - jet("v", "yy") + 2 * uy * vx
    )
    return F1, F2


# ---------------------------------------------------------------------------
# the jet calculus in a sparse rational-function field


def _coordinates(order: int) -> tuple[sp.Symbol, ...]:
    """Every jet coordinate of order <= ``order``, by order."""
    return tuple(
        jet(dep, (a, b, m - a - b))
        for m in range(order + 1)
        for dep in DEPENDENTS
        for a in range(m + 1)
        for b in range(m - a + 1)
    )


def _merge(acc: dict, poly) -> None:
    """acc += poly, in place, on {monomial: nonzero coefficient} dicts."""
    for m, c in poly.items():
        c += acc.get(m, 0)
        if c:
            acc[m] = c
        else:
            del acc[m]


def _by_sympy(name: str, p, q):
    """``p.name(q)`` for ``name`` cancel, lcm or exquo in sympy's ``PolyRing``
    over ZZ on the generators of p's ring, built once per ring on first
    use: the one way to a multi-term cancel, lcm or exact quotient, and to
    the refusal of an inexact quotient by a term."""
    ring = p.ring
    if ring._sympy is None:
        ring._sympy = PolyRing(ring.symbols, ZZ)
    new = ring._sympy.from_dict
    got = getattr(new(dict(p)), name)(new(dict(q)))
    dtype = ring.dtype
    if name == "cancel":
        return tuple(dtype({m: int(c) for m, c in r.items()}) for r in got)
    return dtype({m: int(c) for m, c in got.items()})


def _cancel(numer, denom):
    """numer/denom in lowest terms, the lex-leading coefficient of the
    denominator positive: the pair sympy's ``PolyElement.cancel`` gives.

    With one side a single term (a constant, a monomial, or 1), the common
    factor of the two sides is a term, so no gcd of polynomials is needed:
    both sides are divided by the gcd of all their coefficients and by the
    componentwise minimum of all monomials.  A pair of two multi-term sides
    goes to :func:`_by_sympy`.  A sum of two fractions with one-term
    denominators comes here over their lcm, one term too."""
    ring = numer.ring
    if not numer:
        return numer, ring.one
    if len(numer) != 1 and len(denom) != 1:
        return _by_sympy("cancel", numer, denom)
    content = math.gcd(*numer.values(), *denom.values())
    if denom[max(denom)] < 0:
        content = -content
    # the common monomial divides the one-term side: only its support counts
    (term,) = (numer if len(numer) == 1 else denom).keys()
    low = list(term)
    for i in itertools.compress(range(len(term)), term):
        low[i] = min(m[i] for p in (numer, denom) for m in p)
    if content == 1 and not any(low):
        # already in lowest terms
        return numer, denom
    return (
        ring.dtype({tuple(map(sub, m, low)): c // content for m, c in numer.items()}),
        ring.dtype({tuple(map(sub, m, low)): c // content for m, c in denom.items()}),
    )


def _lcm(a, b):
    """The lcm of two polynomials as sympy's ``PolyElement.lcm`` returns
    it; for two terms, their monomials' lcm with the lcm of their
    coefficients, signed as their product."""
    if len(a) == 1 and len(b) == 1:
        ((m, c),), ((n, d),) = a.items(), b.items()
        return a.ring.dtype({tuple(map(max, m, n)): c * d // math.gcd(c, d)})
    return _by_sympy("lcm", a, b)


def _common_denominator(ring, elements):
    """(c, [n_i]): the elements written n_i/c over one common denominator
    c of a polynomial ring, the lcm of their denominators (one term, by
    :func:`_lcm`, when every denominator is a term)."""
    c = ring.one
    for f in elements:
        if f.denom != 1:
            c = _lcm(c, f.denom)
    return c, [f.numer if f.denom == c else f.numer * c.exquo(f.denom) for f in elements]


def _support(*polys) -> list[int]:
    """Indices of the generators that occur in the polynomials, ascending:
    the places where some monomial has a positive exponent."""
    return list(itertools.compress(itertools.count(), map(any, zip(*itertools.chain(*polys)))))


class _JetPoly(dict):
    """A polynomial of a jet ring: {monomial (a tuple of exponents, one per
    generator): nonzero int coefficient}.  Each :class:`_JetPolyRing`
    builds a subclass of its own with the ring as a class attribute, its
    ``dtype``, so ``dict.__init__`` alone builds an element.  The operands
    are ints and elements of the ring (or of an equal ring built apart)."""

    __slots__ = ()
    ring = None

    def _other(p, q):
        """q as terms of p's ring (an int as a constant), or None."""
        if type(q) is int:
            return {p.ring.zero_monom: q} if q else {}
        return q if isinstance(q, _JetPoly) and q.ring == p.ring else None

    def __eq__(p, q):
        q = q if type(q) is type(p) else p._other(q)
        return NotImplemented if q is None else dict.__eq__(p, q)

    def __ne__(p, q):
        equal = p.__eq__(q)
        return equal if equal is NotImplemented else not equal

    def __hash__(p):
        return hash(frozenset(p.items()))

    def __neg__(p):
        return type(p)({m: -c for m, c in p.items()})

    def __add__(p, q):
        q = q if type(q) is type(p) else p._other(q)
        if q is None:
            return NotImplemented
        out = dict(p)
        _merge(out, q)
        return type(p)(out)

    def __sub__(p, q):
        return p + -q

    def __mul__(p, q):
        """p*q in one dict; a one-term or constant factor is a shift of
        the monomials and a scale of the coefficients."""
        cls = type(p)
        q = q if type(q) is cls else p._other(q)
        if q is None:
            return NotImplemented
        if len(p) < len(q):
            p, q = q, p
        if len(q) == 1:
            # over an integral domain no product of two terms is zero
            ((n, b),) = q.items()
            if any(n):
                return cls({tuple(map(add, m, n)): a * b for m, a in p.items()})
            return cls({m: a * b for m, a in p.items()})
        out: dict = {}
        get = out.get
        terms = list(q.items())
        for m, a in p.items():
            for n, b in terms:
                k = tuple(map(add, m, n))
                v = get(k)
                out[k] = a * b if v is None else v + a * b
        return cls({k: v for k, v in out.items() if v})

    def __pow__(p, n: int):
        """p**n for n >= 0: a term raised directly, else by squaring along
        the bits of n."""
        if n < 0:
            raise ValueError("negative exponent of a polynomial")
        if len(p) == 1:
            ((m, c),) = p.items()
            return type(p)({tuple(map(mul, m, itertools.repeat(n))): c**n})
        out = p.ring.one
        for bit in bin(n)[2:]:
            out = out * out * p if bit == "1" else out * out
        return out

    def exquo(p, q):
        """p/q, which must be exact: term by term for a term q; any other
        q, and a quotient by a term that is not exact, go to
        :func:`_by_sympy` (which refuses the latter with sympy's
        ``ExactQuotientFailed``)."""
        if len(q) == 1:
            ((n, b),) = q.items()
            out = {}
            for m, a in p.items():
                k = tuple(map(sub, m, n))
                if a % b or min(k, default=0) < 0:
                    break
                out[k] = a // b
            else:
                return type(p)(out)
        return _by_sympy("exquo", p, q)

    def as_expr(p) -> sp.Expr:
        """The polynomial as a sympy tree."""
        symbols = p.ring.symbols
        return sp.Add(*[sp.Mul(c, *[s**e for s, e in zip(symbols, m) if e]) for m, c in p.items()])


class _JetPolyRing:
    """ZZ[symbols]: the element class (``dtype``), the generators and, for
    :func:`_by_sympy`, sympy's ring on the same symbols, built on first
    use.  Rings compare by their symbols, so that the elements of equal
    rings built apart mix."""

    def __init__(self, symbols: tuple):
        self.symbols = symbols
        n = len(symbols)
        self.zero_monom = (0,) * n
        self.dtype = type("JetPoly", (_JetPoly,), {"__slots__": (), "ring": self})
        self.gens = tuple([self.dtype({(0,) * i + (1,) + (0,) * (n - i - 1): 1}) for i in range(n)])
        self._sympy = None
        self._hash = hash(symbols)

    def __eq__(self, other):
        return self is other or (type(other) is _JetPolyRing and self.symbols == other.symbols)

    def __hash__(self):
        return self._hash

    # elements are dicts: each call builds a fresh one
    @property
    def one(self):
        return self.dtype({self.zero_monom: 1})


class _JetFraction:
    """An element of a jet field: ``numer``/``denom`` in lowest terms, the
    lex-leading coefficient of ``denom`` positive (a denominator left out
    is 1).  Each :class:`_JetField` builds a subclass of its own with the
    field as a class attribute, its ``raw_new``; the field's ``new``
    cancels (:func:`_cancel`).  The operands are ints, ``Fraction``s,
    polynomials of the ring and elements of the field (or of an equal
    field built apart).  Two elements with one-term denominators are added
    over the lcm of the denominators (:func:`_common_denominator`)."""

    __slots__ = ("numer", "denom")
    field = None

    def __init__(f, numer, denom=None):
        f.numer = numer
        f.denom = f.field.one.denom if denom is None else denom

    def _other(f, g):
        """g as an element of f's field, or None."""
        one = f.field.ring.one
        if type(g) is int or isinstance(g, _JetPoly) and g.ring == one.ring:
            return f.field.raw_new(one * g)
        if isinstance(g, Fraction):
            return f.field.raw_new(one * g.numerator, one * g.denominator)
        return g if isinstance(g, _JetFraction) and g.field == f.field else None

    def __bool__(f):
        return bool(f.numer)

    def __eq__(f, g):
        g = g if type(g) is type(f) else f._other(g)
        return NotImplemented if g is None else f.numer == g.numer and f.denom == g.denom

    def __neg__(f):
        return type(f)(-f.numer, f.denom)

    def __add__(f, g):
        g = g if type(g) is type(f) else f._other(g)
        if g is None:
            return NotImplemented
        if not g.numer or not f.numer:
            return g if g.numer else f
        if len(f.denom) == 1 == len(g.denom):
            den, (a, b) = _common_denominator(f.field.ring, (f, g))
            return f.field.new(a + b, den)
        return f.field.new(f.numer * g.denom + g.numer * f.denom, f.denom * g.denom)

    __radd__ = __add__

    def __sub__(f, g):
        return f + -g

    def __rsub__(f, g):
        return -f + g

    def __mul__(f, g):
        g = g if type(g) is type(f) else f._other(g)
        if g is None:
            return NotImplemented
        if not f.numer or not g.numer:
            return f.field.zero
        return f.field.new(f.numer * g.numer, f.denom * g.denom)

    __rmul__ = __mul__

    def __truediv__(f, g):
        g = g if type(g) is type(f) else f._other(g)
        if g is None:
            return NotImplemented
        if not g.numer:
            raise ZeroDivisionError("division by zero in a jet field")
        return f.field.new(f.numer * g.denom, f.denom * g.numer)

    def __rtruediv__(f, g):
        g = f._other(g)
        return NotImplemented if g is None else g / f

    def __pow__(f, n: int):
        return type(f)(f.numer**n, f.denom**n)

    def as_expr(f) -> sp.Expr:
        """numer/denom as a sympy tree, with no change of sign."""
        return f.numer.as_expr() / f.denom.as_expr()


class _JetField:
    """The rational functions over ZZ in ``symbols``: the polynomial ring,
    the element class (``dtype``, also ``raw_new``) and the generators as
    elements.  Fields compare as their rings do."""

    def __init__(self, symbols: tuple):
        self.symbols = symbols
        self.ring = ring = _JetPolyRing(symbols)
        attributes = {"__slots__": (), "field": self}
        self.dtype = self.raw_new = type("JetFraction", (_JetFraction,), attributes)
        # elements are not changed in place: these are shared
        one = ring.one
        self.zero, self.one = self.dtype(ring.dtype(), one), self.dtype(one, one)
        self.gens = tuple(self.dtype(g, one) for g in ring.gens)

    def __eq__(self, other):
        return self is other or (type(other) is _JetField and self.ring == other.ring)

    def __hash__(self):
        return hash(self.ring)

    def new(self, numer, denom):
        return self.raw_new(*_cancel(numer, denom))


class _Unreadable(Exception):
    """A tree :meth:`_JetRing._read` cannot read."""


def _rational_tree(e) -> bool:
    """Whether a tree holds symbols, rationals, sums, products and integer
    powers only."""
    if e.is_Symbol or e.is_Rational:
        return True
    if e.is_Pow:
        return e.exp.is_Integer and _rational_tree(e.base)
    return (e.is_Add or e.is_Mul) and all(map(_rational_tree, e.args))


class _JetRing:
    """Q(jet coordinates of order <= ``order``, t, x, y, ``extras``) as one
    sparse field of rational functions (``_JetField``), each element a pair
    of polynomials over ZZ in lowest terms.

    ``extras`` are formal functions of t, with the derivative orders a
    computation can reach, and the auxiliary generators of fractional
    powers and exponential atoms (see ``exprcore._rescaled``), which only
    ever ride along.  The total derivatives are ring derivations given by
    the images of the generators (u_sigma -> u_{sigma+i}, a^(m) -> a^(m+1)
    for D_t), lifted once; the principal table is a table of polynomials
    in the internal coordinates, and reduction is substitution of
    generators.
    """

    def __init__(self, order: int, extras: tuple = ()):
        self.order = order
        self.extras = extras
        jets = _coordinates(order)
        self.symbols = jets + BASE_SYMBOLS + extras
        self.field = _JetField(self.symbols)
        self.ring = self.field.ring
        self.gens = self.ring.gens
        self.index = {s: i for i, s in enumerate(self.symbols)}
        self._principal = [
            i for i, s in enumerate(jets) if jet_info(s)[1].is_principal
        ]
        # D_t, D_x, D_y lifted once (see ``lift``): each image is a
        # generator or 1.  A jet of the top order, a formal derivative of
        # the highest order carried and an auxiliary generator have none.
        self._totals = {}
        for d, base in zip("txy", BASE_SYMBOLS):
            terms = [None] * len(self.symbols)
            terms[self.index[base]] = [((), 1)]
            outside = (JetOrderError, f"D_{d} {{s}} lies outside the ring of jet order {order}")
            auxiliary = (ExprError, "cannot differentiate the auxiliary generator {s}")
            refused = {}
            # j: the index of the image generator, -1 for none, None for a refusal
            for i, s in enumerate(self.symbols):
                if is_jet_symbol(s):
                    dep, idx = jet_info(s)
                    j = self.index[jet(dep, idx.bump(d))] if idx.order < order else None
                elif is_formal_symbol(s):
                    j = self.index.get(formal_shift(s)) if d == "t" else -1
                else:
                    j = -1 if s in BASE_SYMBOLS else None
                if j is None:
                    refused[i] = outside if is_jet_symbol(s) or is_formal_symbol(s) else auxiliary
                elif j >= 0:
                    terms[i] = [(((j, 1),), 1)]
            self._totals[d] = (self.ring.one, terms, refused)
        # sympy's generator order, which fixes the sign of the canonical
        # denominator of a printed tree
        self._sympy_order = [self.index[s] for s in _sort_gens(self.symbols)]
        self._table: dict[int, object] = {}
        # source field -> its generators' indices here (None where missing)
        self._embeddings: dict = {}

    # -- conversion ---------------------------------------------------------

    def convert(self, e):
        """The field element of a rational expression in the generators.

        The tree is read directly (:meth:`_read`): symbols, rationals,
        sums, products and integer powers go straight into the field, with
        one cancellation per quotient formed.  A tree it cannot read is
        refused by :meth:`_refuse`, which names the whole expression."""
        e = sp.sympify(e)
        try:
            num, den = self._read(e)
        except _Unreadable:
            pass
        else:
            # a denominator None is 1
            return self.field.raw_new(num, den)
        self._refuse(e)

    def _read(self, e):
        """(numerator, denominator) of a tree in lowest terms, the
        denominator None for 1.  The polynomial terms of a sum are merged
        in one dict and its fractions added in the field; a negative power
        goes through ``field.new``, whose cancellation makes the sign of
        the denominator canonical.  ``_Unreadable`` for any other node and
        for a negative power of zero."""
        if e.is_Symbol:
            i = self.index.get(e)
            if i is None:
                raise _Unreadable
            return self.gens[i], None
        if e.is_Rational:
            one = self.ring.one
            return one * int(e.p), (None if e.q == 1 else one * int(e.q))
        field = self.field
        if e.is_Add:
            acc: dict = {}
            out = None
            for arg in e.args:
                num, den = self._read(arg)
                if den is None:
                    _merge(acc, num)
                else:
                    out = field.raw_new(num, den) if out is None else out + field.raw_new(num, den)
            if out is None:
                return self.ring.dtype(acc), None
            out = out + field.raw_new(self.ring.dtype(acc))
        elif e.is_Mul:
            poly, out = None, None
            for arg in e.args:
                num, den = self._read(arg)
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
            num, den = self._read(e.base)
            if n > 0:
                return num**n, (None if den is None else den**n)
            if not num:
                raise _Unreadable
            out = field.new(self.ring.one if den is None else den**-n, num**-n)
        else:
            raise _Unreadable
        return out.numer, (None if out.denom == 1 else out.denom)

    def _refuse(self, e):
        """Raise the error of an expression :meth:`_read` cannot read: a
        symbol outside the ring, then a float, then a node that is not a
        rational function (an undefined value among them), else a zero
        denominator."""
        for s in e.free_symbols:
            self._generator(s)
        if e.has(sp.Float):
            raise ExprError(f"{e} has a floating-point coefficient")
        if not _rational_tree(e):
            if e.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
                raise DivisionByZeroExpression(f"{e} contains an undefined value")
            raise ExprError(f"{e} is not a rational function of the jet coordinates")
        raise DivisionByZeroExpression(f"zero denominator in {e}")

    def embed(self, f):
        """An element of another jet ring as an element of this one, with no
        expression and no cancellation: its monomials are read through the
        source's generator indices here, cached per source ring, and the
        sign is made canonical (a no-op unless extras come in another
        order).  ``JetOrderError`` when f uses a jet this ring lacks."""
        source = f.field
        places = self._embeddings.get(source)
        if places is None:
            places = self._embeddings[source] = [self.index.get(s) for s in source.symbols]
        n = len(self.symbols)

        def moved(p):
            out = {}
            for monom, c in p.items():
                m = [0] * n
                for i in itertools.compress(range(len(monom)), monom):
                    if places[i] is None:
                        self._generator(source.symbols[i])
                    m[places[i]] = monom[i]
                out[tuple(m)] = c
            return self.ring.dtype(out)

        num, den = moved(f.numer), moved(f.denom)
        if den[max(den)] < 0:
            num, den = -num, -den
        return self.field.raw_new(num, den)

    def gen(self, s):
        """The generator ``s`` as a field element."""
        return self.field.gens[self._generator(s)]

    def _generator(self, s) -> int:
        i = self.index.get(s)
        if i is None:
            if is_jet_symbol(s) or is_formal_symbol(s):
                raise JetOrderError(f"{s} lies outside the ring of jet order {self.order}")
            raise UnknownSymbolError(f"unregistered symbol {s}")
        return i

    def to_expr(self, f) -> sp.Expr:
        """The expression in ``normalize``'s canonical form: numerator over
        denominator, in lowest terms as f is, with the denominator's leading
        coefficient in sympy's generator order positive."""
        num, den = f.numer, f.denom
        if not num:
            return sp.Integer(0)
        order = self._sympy_order
        if den[max(den, key=lambda m: [m[i] for i in order])] < 0:
            num, den = -num, -den
        return num.as_expr() / den.as_expr()

    # -- derivations --------------------------------------------------------

    def total(self, f, d: str):
        """The total derivative D_d of a field element."""
        return self.apply(f, self._totals[d])

    def lift(self, images, refused=None):
        """A derivation with images (generator index, element) as
        :meth:`apply` takes it: (c, terms, refused), with the images n_i/c
        over one common denominator (:func:`_common_denominator`),
        ``terms[i]`` the terms of n_i with sparse monomials ((generator,
        exponent), ...) or None, and ``refused`` {generator index: (error
        class, message in the generator ``{s}``)}."""
        images = [(i, img) for i, img in images if img]
        c, nums = _common_denominator(self.ring, [img for _, img in images])
        terms = [None] * len(self.symbols)
        for (i, _), num in zip(images, nums):
            terms[i] = [
                (tuple(zip(itertools.compress(itertools.count(), m), filter(None, m))), a)
                for m, a in num.items()
            ]
        return c, terms, refused or {}

    def apply(self, f, lifted):
        """The lifted derivation (c, terms, refused) (see :meth:`lift`)
        applied to f: P -> sum_i n_i dP/dg_i / c on numerator and
        denominator (:meth:`_along`)."""
        c = lifted[0]
        num = self._along(f.numer, lifted)
        if f.denom == 1:
            return self.field.raw_new(num) if c == 1 else self.field.new(num, c)
        num = num * f.denom - f.numer * self._along(f.denom, lifted)
        return self.field.new(num, f.denom**2 if c == 1 else c * f.denom**2)

    def _along(self, p, lifted):
        """sum_i n_i dp/dg_i of a polynomial for the lifted images: each
        term of p is differentiated by the generators in its support, and
        every product with an n_i is accumulated in one dict.  A refused
        generator in the support raises its error."""
        _, terms, refused = lifted
        out: dict = {}
        for monom, coef in p.items():
            for i in itertools.compress(itertools.count(), monom):
                image = terms[i]
                if image is None:
                    if i in refused:
                        error, message = refused[i]
                        raise error(message.format(s=self.symbols[i]))
                    continue
                e = monom[i]
                k = coef * e
                for m, a in image:
                    key = list(monom)
                    key[i] = e - 1
                    for j, x in m:
                        key[j] += x
                    key = tuple(key)
                    v = out.get(key)
                    out[key] = k * a if v is None else v + k * a
        return self.ring.dtype({m: v for m, v in out.items() if v})

    def present(self, f) -> list[int]:
        """Indices of the generators that occur in f, ascending."""
        return _support(f.numer, f.denom)

    # -- the equation -------------------------------------------------------

    def principal(self, i: int):
        """The principal coordinate ``symbols[i]`` as a polynomial in the
        internal coordinates on the equation submanifold, memoized in the
        ring without extras, which every ring of the same order extends.

        The recursion drops a y first, then an x, then a t.  It terminates
        because entries with a single t-derivative never contain principal
        coordinates (the leading solves R_u, R_v are free of t-jets), and
        each t-drop strictly lowers the t-count of what remains."""
        got = self._table.get(i)
        if got is not None:
            return got
        if self.extras:
            pad = (0,) * len(self.extras)
            plain = _jet_ring(self.order).principal(i)
            got = self.ring.dtype({m + pad: c for m, c in plain.items()})
        else:
            dep, idx = jet_info(self.symbols[i])
            if idx == MultiIndex(1, 1, 0):
                # the checked leading solve w_tx = w_tx - F_w/c
                c, _ = _recurrence(dep)
                F = self.embed(_equations()[DEPENDENTS.index(dep)]).numer
                got = self.ring.gens[i] - F.exquo(self.ring.one * c)
            else:
                d = "y" if idx.ny else ("x" if idx.nx > 1 else "t")
                parent = self.principal(self.index[jet(dep, idx.drop(d))])
                got = self._reduce_poly(self._along(parent, self._totals[d]))
        self._table[i] = got
        return got

    def _reduce_poly(self, p):
        """Substitute every principal generator of a polynomial; terms with
        the same principal part share one product of table entries."""
        groups: dict = {}
        plain: dict = {}
        for monom, c in p.items():
            key = tuple((i, monom[i]) for i in self._principal if monom[i])
            if not key:
                plain[monom] = c
                continue
            rest = list(monom)
            for i, _ in key:
                rest[i] = 0
            groups.setdefault(key, {})[tuple(rest)] = c
        if not groups:
            return p
        powers: dict = {}
        for key, rest in groups.items():
            factor = self.ring.dtype(rest)
            for i, n in key:
                pw = powers.get((i, n))
                if pw is None:
                    pw = powers[(i, n)] = self.principal(i) ** n
                factor = factor * pw
            _merge(plain, factor)
        return self.ring.dtype(plain)

    def reduce(self, f):
        """Restriction of a field element to the equation submanifold."""
        num = self._reduce_poly(f.numer)
        if f.denom == 1:
            return self.field.raw_new(num)
        den = self._reduce_poly(f.denom)
        if not den:
            raise DivisionByZeroExpression(
                "the denominator vanishes on the equation submanifold"
            )
        return self.field.new(num, den)


@lru_cache(maxsize=128)
def _jet_ring(order: int, extras: tuple = ()) -> _JetRing:
    return _JetRing(order, extras)


@lru_cache(maxsize=None)
def _equations() -> tuple:
    """(F1, F2) as elements of the order-2 jet ring: the one form of the
    system, converted once from its written definition
    (:func:`_ms_equations`).  The point recurrence, the principal table,
    the symmetry check, the section residuals and the reductions read it;
    other rings take it by ``_JetRing.embed``."""
    ring = _jet_ring(2)
    return tuple(map(ring.convert, _ms_equations()))


@lru_cache(maxsize=None)
def _recurrence(dep: str) -> tuple[int, tuple]:
    """(c, terms) with F_w = c*w_tx + sum of terms and c = 1 or -1, read
    off the numerator of the ring form: each term an integer coefficient
    and at most two jet factors (dependent, (nt, nx, ny)).

    No factor besides the leading one carries a t-derivative, so
    D_sigma of a term only involves coordinates of order <= |sigma|+2
    and t-count <= that of sigma: D_sigma F = 0 then gives
    w_{sigma+tx} from coordinates that come earlier when principal
    values are solved order by order, by ascending t-count.
    """
    ring = _jet_ring(2)
    F = _equations()[DEPENDENTS.index(dep)]
    lead = jet(dep, "tx")
    c, terms = None, []
    for monom, coef in F.numer.items():
        factors = []
        for i in itertools.compress(range(len(monom)), monom):
            d, idx = jet_info(ring.symbols[i])
            factors += [(d, (idx.nt, idx.nx, idx.ny))] * monom[i]
        if factors == [(dep, (1, 1, 0))]:
            c = coef
            continue
        if len(factors) > 2 or any(ix[0] for _, ix in factors):
            raise AssertionError(f"{lead} does not lead {ring.to_expr(F)}")
        terms.append((coef, tuple(factors)))
    if c not in (1, -1) or F.denom != 1:
        raise AssertionError(f"equation not affine-monic in {lead}")
    return c, tuple(terms)


def _ring_for(order: int, exprs: Iterable, derivatives: int = 0, aux: tuple = ()) -> _JetRing:
    """The ring of jet order ``order`` holding every formal function of the
    expressions with ``derivatives`` more t-derivatives than occur, and the
    auxiliary generators ``aux``."""
    formals: dict[str, int] = {}
    for e in exprs:
        for s in e.free_symbols:
            if is_formal_symbol(s):
                name, m = formal_info(s)
                formals[name] = max(formals.get(name, 0), m)
    extras = tuple(
        formal(name, m)
        for name in sorted(formals)
        for m in range(formals[name] + derivatives + 1)
    ) + tuple(aux)
    # _jet_ring(order, ()) would be a second key: a second ring and table
    return _jet_ring(order, extras) if extras else _jet_ring(order)


class _Rescaled:
    """A jet ring holding the auxiliary generators of one joint
    ``exprcore._rescaled``, or the constant generators of a section at a
    rational point (``SectionField.at``), with their values (``back``:
    generator -> value), the canonical form of its elements and the
    substitution of its elements for the generators of another ring
    (:meth:`_quotient`).

    Prime radicals R = p^(1/M) among the generators are reduced by R^M = p
    before every zero test and conversion; radicals of distinct primes are
    linearly independent over QQ (Besicovitch) and the other generators are
    algebraically independent, so the zero test of the reduced numerator is
    exact."""

    def __init__(self, ring: _JetRing, back: dict):
        self.ring = ring
        self.back = back
        self._radicals = [
            (ring.index[g], int(v.base), int(v.exp.q))
            for g, v in back.items()
            if v.is_Pow and v.base.is_Integer
        ]

    def _reduced(self, p):
        """A polynomial with every prime radical R = p^(1/M) reduced by
        R^M = p."""
        if not self._radicals or not p:
            return p
        out: dict = {}
        for monom, c in p.items():
            m = list(monom)
            for i, prime, M in self._radicals:
                if m[i] >= M:
                    q, m[i] = divmod(m[i], M)
                    c = c * prime**q
            _merge(out, {tuple(m): c})
        return self.ring.ring.dtype(out)

    def _reduced_element(self, f):
        if not self._radicals:
            return f
        return self.ring.field.new(self._reduced(f.numer), self._reduced(f.denom))

    def vanishes(self, f) -> bool:
        """Exact zero test of a field element."""
        return not self._reduced(f.numer)

    def sum(self, elements):
        """The sum of field elements."""
        return sum(elements, self.ring.field.zero)

    def rational(self, f) -> Fraction | None:
        """The value of a constant element, None for a non-constant one."""
        f = self._reduced_element(f)
        if _support(f.numer, f.denom):
            return None
        zero = self.ring.ring.zero_monom
        return Fraction(f.numer.get(zero, 0), f.denom[zero])

    def _quotient(self, f, value, message):
        """An element of a jet ring with each generator s replaced by the
        element ``value(s)`` of this field; ``message()`` is the text of the
        error raised when the denominator vanishes.  Over one common
        denominator L of the values, each side P of f is P~ / L^D; a term
        in a generator whose value is zero is left out."""
        used = _support(f.numer, f.denom)
        L, nums = _common_denominator(self.ring.ring, [value(f.field.symbols[i]) for i in used])
        zero = [i for i, n in zip(used, nums) if not n]
        dtype, constant = self.ring.ring.dtype, self.ring.ring.zero_monom
        powers: dict = {}

        def power(j, n):
            got = powers.get((j, n))
            if got is None:
                got = powers[(j, n)] = (L if j < 0 else nums[j]) ** n
            return got

        def side(p):
            terms = [
                (m, c, sum(m[i] for i in used))
                for m, c in p.items()
                if not (zero and any(m[i] for i in zero))
            ]
            top = max((deg for _, _, deg in terms), default=0)
            acc: dict = {}
            for m, c, deg in terms:
                term = dtype({constant: c})
                if deg < top:
                    term = term * power(-1, top - deg)
                for j, i in enumerate(used):
                    if m[i]:
                        term = term * power(j, m[i])
                _merge(acc, term)
            return dtype(acc), top

        (n, dn), (d, dd) = side(f.numer), side(f.denom)
        if not self._reduced(d):
            raise DivisionByZeroExpression(message())
        if dd > dn:
            n = n * L ** (dd - dn)
        elif dn > dd:
            d = d * L ** (dn - dd)
        return self.ring.field.new(n, d)

    def expr(self, f) -> sp.Expr:
        """The canonical expression of a field element: ``to_expr`` of the
        reduced element, a product of radicals of several primes written
        as one root, and the auxiliary generators substituted back."""
        out = self.ring.to_expr(self._reduced_element(f))
        if len(self._radicals) > 1:
            out = out.replace(lambda e: e.is_Mul, self._one_root)
        return out.xreplace(self.back) if self.back else out

    def _one_root(self, term: sp.Expr) -> sp.Expr:
        """A product with radicals of several primes written as one root of
        a rational, the way sympy writes a power of a rational: 2^(2/3) *
        3^(1/3) as 12^(1/3)."""
        radicals = {self.ring.symbols[i]: (p, M) for i, p, M in self._radicals}
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
    function) as extras.  ``exprcore.normalize``, ``is_zero`` and ``equal``
    are this conversion."""
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
    return _Rescaled(ring, back), ring.convert(scaled)


def internal_indices(k: int) -> list[MultiIndex]:
    """All internal multi-indices of order <= k (no t together with x)."""
    out = []
    for m in range(k + 1):
        for a, b in itertools.product(range(m + 1), repeat=2):
            c = m - a - b
            if c < 0 or (a >= 1 and b >= 1):
                continue
            out.append(MultiIndex(a, b, c))
    return sorted(out, key=lambda i: (i.order, i.nt, i.nx, i.ny))


def principal_indices(k: int) -> list[MultiIndex]:
    out = []
    for m in range(2, k + 1):
        for a, b in itertools.product(range(1, m + 1), repeat=2):
            c = m - a - b
            if c >= 0:
                out.append(MultiIndex(a, b, c))
    return sorted(out, key=lambda i: (i.order, i.nt, i.nx, i.ny))


class EquationSystem:
    """The modified dispersionless system: restriction to its equation
    submanifold and rational points on it.

    Holds no state: F1, F2 have one form, the jet-ring elements of
    :func:`_equations`, and the principal table behind :meth:`reduce`
    lives in the jet rings, which are built on first use.
    """

    def reduce(self, e, k: int | None = None) -> sp.Expr:
        """Restriction to the order-k equation submanifold in internal
        coordinates.  ``k`` defaults to the expression's own jet order and
        may not exceed the hard cap; high orders are slow, the table grows
        about sevenfold per order.

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
        return _Rescaled(ring, back).expr(ring.reduce(ring.convert(scaled)))

    # -- points -------------------------------------------------------------

    def point(self, k: int, base=None, internal=None) -> "JetPoint":
        return JetPoint(k, base=base, internal=internal)


@lru_cache(maxsize=None)
def ms_system() -> EquationSystem:
    """Shared instance of the system (tables cached across callers)."""
    return EquationSystem()


def _point_key(s) -> str | tuple[str, tuple[int, int, int]]:
    """The key of a base or jet symbol's coordinate in a :class:`JetPoint`:
    its name for t, x, y, else (dependent, (nt, nx, ny))."""
    if s in BASE_SYMBOLS:
        return s.name
    dep, idx = jet_info(s)  # KeyError -> not a jet symbol
    return dep, (idx.nt, idx.nx, idx.ny)


def _exact(name, val) -> Fraction:
    """A coordinate's value as a ``Fraction``.  A float is refused: its
    binary expansion would pass for the value and inflate the point's
    common denominator."""
    if isinstance(val, float):
        raise ValueError(f"{name} = {val!r} is a float; give it as an exact rational")
    return Fraction(val)


class JetPoint:
    """A rational point of the order-k equation submanifold.

    Stores the base point and internal coordinates only (unset ones are 0);
    principal coordinates are solved from the prolonged equations on
    demand, so the point always lies on the equations.  Internal
    coordinates of order beyond k are taken to extend by zero, which is how
    the tangent-space computations lift the point to higher jet orders: the
    point is the jet of a truncated power-series solution.

    Every coordinate, base and jet, is held as an integer pair (n, e), the
    value n / L^e with L the lcm of the denominators of the given
    coordinates, so the solve runs in Python integers.  :meth:`integers`
    reads coordinates as integers over one common denominator, which is how
    the point layer evaluates, and :meth:`value` makes one ``Fraction``.
    """

    def __init__(self, k: int, base=None, internal=None):
        if k < 0:
            raise ValueError("jet order must be non-negative")
        self.k = k
        self.base: dict[str, Fraction] = {"t": Fraction(0), "x": Fraction(0), "y": Fraction(0)}
        for name, val in (base or {}).items():
            name = name if isinstance(name, str) else name.name
            if name not in self.base:
                raise ValueError(f"base coordinate must be t,x,y, got {name!r}")
            self.base[name] = _exact(name, val)
        self.internal: dict[sp.Symbol, Fraction] = {}
        given: dict = dict(self.base)
        for key, val in (internal or {}).items():
            s = resolve_symbol(key)
            dep, idx = jet_info(s)  # KeyError -> not a jet symbol
            if idx.is_principal:
                raise ValueError(
                    f"{s} is principal; JetPoint stores internal coordinates only"
                )
            if idx.order > k:
                raise JetOrderError(f"{s} has order beyond k={k}")
            self.internal[s] = given[(dep, (idx.nt, idx.nx, idx.ny))] = _exact(s, val)
        self._L = math.lcm(*(q.denominator for q in given.values()))
        # coordinate key (see _point_key) -> (n, e); unset internal
        # coordinates are absent, principal entries are filled by
        # _solve_through, all orders <= _solved at a time
        self._values: dict = {
            key: (q.numerator * (self._L // q.denominator), 1) for key, q in given.items()
        }
        self._solved = 1
        # keys -> integers(keys): a solved value never changes, so a read
        # stands
        self._read: dict[tuple, tuple[list[int], int]] = {}

    def value(self, key) -> Fraction:
        """Value of a base or jet coordinate (any order up to the hard cap)."""
        (n,), den = self.integers((_point_key(resolve_symbol(key)),))
        return Fraction(n, den)

    def integers(self, keys: tuple) -> tuple[list[int], int]:
        """The coordinates ``keys`` (see :func:`_point_key`) as integers
        n_i over one common denominator D, a power of L: coordinate i is
        n_i / D.  Principal coordinates are solved first.  A read is made
        once per point and keys, and its list is shared: callers do not
        change it."""
        got = self._read.get(keys)
        if got is None:
            # a principal key holds a t and an x
            principal = [key[1] for key in keys if type(key) is tuple and key[1][0] and key[1][1]]
            self._solve_through(max(map(sum, principal), default=0))
            pairs = [self._values.get(key, (0, 0)) for key in keys]
            top = max([e for _, e in pairs], default=0)
            powers = [self._L**i for i in range(top + 1)]
            got = self._read[keys] = [n * powers[top - e] for n, e in pairs], powers[top]
        return got

    def _coord(self, dep: str, idx: tuple[int, int, int]) -> tuple[int, int]:
        """The pair (n, e) of a jet coordinate of order <= ``_solved``: its
        value is n / L^e."""
        got = self._values.get((dep, idx))
        if got is None:
            if idx[0] and idx[1]:
                raise AssertionError(f"{dep}_{idx} read before it was solved")
            return 0, 0
        return got

    def _solve_through(self, order: int) -> None:
        """Principal values of every order <= ``order``: D_sigma F_w = 0 is
        solved for w_{sigma+tx}, order by order and by ascending t-count
        within an order, with D_sigma of each term of F_w (:func:`_recurrence`)
        evaluated by Leibniz's rule on the values already known.

        The sums run on the pairs (n, e) of :meth:`_coord`: a product of
        two values adds their exponents, and the terms of D_sigma F_w are
        lifted to the largest exponent among them and added.  The leading
        coefficient is 1 or -1, so solving for w_{sigma+tx} divides
        exactly."""
        if order <= self._solved:
            return
        coord, L = self._coord, self._L
        for idx in principal_indices(order):
            if idx.order <= self._solved:
                continue
            sigma = (idx.nt - 1, idx.nx - 1, idx.ny)
            shifts = [
                (tau, _minus(sigma, tau), prod(comb(n, m) for n, m in zip(sigma, tau)))
                for tau in itertools.product(*(range(n + 1) for n in sigma))
            ]
            for dep in DEPENDENTS:
                lead, terms = _recurrence(dep)
                parts = []
                for coef, factors in terms:
                    if len(factors) == 1:
                        (d, a), = factors
                        n, e = coord(d, _shift(a, sigma))
                        if n:
                            parts.append((coef * n, e))
                        continue
                    (d1, a), (d2, b) = factors
                    for tau, other, binom in shifts:
                        n1, e1 = coord(d1, _shift(a, tau))
                        if n1:
                            n2, e2 = coord(d2, _shift(b, other))
                            if n2:
                                parts.append((coef * binom * n1 * n2, e1 + e2))
                top = max((e for _, e in parts), default=0)
                total = sum(n * L ** (top - e) for n, e in parts)
                # lead is 1 or -1, its own inverse
                self._values[(dep, (idx.nt, idx.nx, idx.ny))] = (-lead * total, top)
        self._solved = order

    def eval(self, e) -> Fraction:
        """Exact evaluation of a term-language expression at the point."""
        e = sp.sympify(e)
        rep = {}
        for s in e.free_symbols:
            if s not in BASE_SYMBOLS and not is_jet_symbol(s):
                raise PointNotOnEquationError(f"cannot evaluate symbol {s} at a jet point")
            q = self.value(s)
            rep[s] = sp.Rational(q.numerator, q.denominator)
        val = e.xreplace(rep)
        if not val.is_Rational:
            if val.has(sp.zoo, sp.nan):
                known = (*self.base.items(), *self.internal.items())
                where = ", ".join(f"{s}={q}" for s, q in known)
                raise DivisionByZeroExpression(
                    f"the denominator of {to_text(e)} vanishes at the jet point ({where})"
                )
            raise PointNotOnEquationError(f"non-rational value {val}")
        return Fraction(int(val.p), int(val.q))


def _clear_denominators(p, L: int) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """An integer polynomial whose variables are integers over the common
    denominator L, in integers: with ``top`` its total degree, the pairs
    (m, c L^(top - |m|)) of its terms c * x^m and the denominator L^top.
    Summing coefficient * prod n_i^m_i over the pairs gives the value times
    that denominator."""
    top = max(map(sum, p), default=0)
    powers = [1]
    for _ in range(top):
        powers.append(powers[-1] * L)
    return [(m, int(c) * powers[top - sum(m)]) for m, c in p.items()], powers[top]


@lru_cache(maxsize=None)
def _generator_keys(ring: _JetRing) -> tuple:
    """The :class:`JetPoint` keys of the generators of a jet ring without
    extras, in the ring's order."""
    return tuple(map(_point_key, ring.symbols))


def _poly_sums(point: JetPoint, ring: _JetRing, p, coords=()) -> tuple[int, int, list[int]]:
    """(value, den, grad): an integer polynomial over the generators of a
    jet ring without extras is value / den at the point, and its partial
    derivative by the generator ``coords[n]`` is grad[n] / den.  One walk
    in integers over the terms of :func:`_clear_denominators` gives both,
    from the values of the ring's generators as integers n_i over one
    common denominator D (:meth:`JetPoint.integers`)."""
    nums, D = point.integers(_generator_keys(ring))
    terms, den = _clear_denominators(p, D)
    place = {i: n for n, i in enumerate(coords)}
    value, grad = 0, [0] * len(coords)
    for monom, scale in terms:
        support = list(itertools.compress(range(len(monom)), monom))
        powers = [nums[i] ** monom[i] for i in support]
        value += scale * prod(powers)
        for s, i in enumerate(support):
            n = place.get(i)
            if n is not None:
                # the derivative has degree |m| - 1: one more factor D
                e = monom[i]
                rest = prod(powers[:s]) * prod(powers[s + 1 :])
                grad[n] += scale * e * D * nums[i] ** (e - 1) * rest
    return value, den, grad
