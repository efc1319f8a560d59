"""Jet-space bookkeeping for the modified dispersionless system, in a field
of its own that imports no sympy.

The system lives on sections (t, x, y) -> (u, v) and reads

    F1 = D_x(u_t + u*u_y + v*u_x) - D_y(u_y) = 0,
    F2 = D_x(v_t + v*v_x - u*v_y) - D_y(v_y - 2*u*v_x) = 0.

Both equations are monic in a second-order coordinate carrying one t- and
one x-derivative (u_tx resp. v_tx).  Calling a multi-index *principal* when
it contains at least one t and at least one x, every prolonged equation
D_sigma F_i is monic in exactly one principal coordinate, so the equation
submanifold of any jet order is the graph of a triangular substitution:
principal coordinates are polynomials in the remaining *internal* ones.
:meth:`_JetRing.reduce` performs that substitution in one sparse field of
rational functions over ZZ (``_JetRing``: generators t, x, y, the jet
coordinates up to the order in play and the formal functions present).
A polynomial is a dict from monomial to int (``_JetPoly``), a fraction a
pair of them in lowest terms (``_JetFraction``), and a one-term side
cancels without a gcd (``_cancel``).  Every derivation (total, section,
point or prolonged field) is applied by generator index by
``_JetRing.apply``, to its images lifted over one common denominator
(``_JetRing.lift``).  A :class:`JetPoint` holds every coordinate in Python
integers over powers of one denominator and solves the same triangular
system there; ``_poly_sums`` evaluates integer ring polynomials, and their
gradients, from those integers.

The generators are keyed by their DSL names (``"u_tx"``, ``"t"``,
``"f''"``), the auxiliary generators of fractional powers, exponential
atoms and non-rational constants by plain tuples (``("root", "y")``,
``("exp", "x")``, ``("radical", p, M)``, printed by :func:`_key_text`),
and any other symbol a canonical form carries is its own key.  The
written definitions (F1, F2, I1-I3, the coefficients of the invariant
derivations, the structure coefficients K1-K4 and the metric and covector
of the ansatz) are DSL text here, and :func:`read` is their one reader:
it reads a tree of :mod:`jetweyl.syntax` with no ``exp`` straight into a
field, fractional powers of base variables as powers of root generators.
:func:`text` prints a field element as the canonical text
``exprcore.to_text`` gives.  So ``jetweyl reduce`` and ``jetweyl
invariants`` run here alone on such text, and ``sections`` builds the
section field on it.

This module imports no sympy.  sympy is reached through lazy imports
only: its polynomials compute the gcd of two multi-term polynomials
(``_by_sympy``), and :mod:`jetweyl.trees` reads sympy trees into a field
and prints them (``_JetRing.convert``, ``to_expr``, the ``symbols`` view).
Those imports name ``jetweyl.trees`` in full: a relative import resolves
its package through a Python-level call each time it runs.

The dimension counts of jet spaces and equation submanifolds live in
:mod:`jetweyl.counts`.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, prod
from operator import add, mul, sub

from .errors import (
    DivisionByZeroExpression,
    ExprError,
    JetOrderError,
    PointNotOnEquationError,
    UnknownSymbolError,
)
from .syntax import (
    _FORMAL_NAME_RE,
    _RESERVED_FORMAL,
    DEPENDENTS,
    MAX_JET_ORDER,
    MultiIndex,
    jet_parts,
    parse_expr,
)

__all__ = [
    "EquationSystem",
    "ms_system",
    "JetPoint",
    "internal_indices",
    "principal_indices",
]

BASE_NAMES = ("t", "x", "y")

# ---------------------------------------------------------------------------
# the written definitions, as DSL text

#: F1 and F2, written out
EQUATIONS = (
    "u_tx + u_x*u_y + u*u_xy + u_x*v_x + v*u_xx - u_yy",
    "v_tx + v_x^2 + v*v_xx - u_x*v_y + u*v_xy - v_yy + 2*u_y*v_x",
)

#: the three generating second-order invariants I1, I2, I3
INVARIANTS = (
    "(u_xy + v_xx)/u_x^2",
    "(u_x^2*u_xy + u_x*u_xx*v_x + u_xx*u_yy - u_xy^2)/u_x^4",
    "(u_x^2*v_xx - u_x*u_xx*v_x + u_xx*v_xy - u_xy*v_xx)/u_x^4",
)

#: the coefficients (c_t, c_x, c_y) of the invariant derivations
#: nabla_i = c_t D_t + c_x D_x + c_y D_y
DERIVATIONS = (
    ("0", "u_x/u_xx", "0"),
    ("0", "u_xy/(u_x*u_xx)", "-1/u_x"),
    ("u_xx/u_x^3", "(v_x*u_x + v*u_xx + u_yy)/u_x^3", "(u_x^2 + u*u_xx - 2*u_xy)/u_x^3"),
)

#: the structure coefficients K1-K4 of the derivation commutators, each a
#: sum of terms c * nabla_2(a) over (c, a), a term with a = None being c
_K2 = "(u_xy*u_xxx - u_xx*u_xxy)/(u_x*u_xx^2)"
STRUCTURE = (
    (("u_x*u_xxx/u_xx^2 - 3", None),),
    ((_K2, None),),
    (
        (f"{_K2}*(1 - 2*u_xy/u_x^2)", None),
        ("-2*u_xx/u_x^3", "u_y"),
        ("2/u_x^2", "u_xy"),
    ),
    (
        ("u_xx/u_x^4", "2*u_yy - u_x*u_y"),
        ("-u_xx*(2*u_xy - u_x^2)/u_x^4", "u_xy/u_xx"),
        ("-1/u_x^4", "u_xy^2"),
    ),
)

#: the Manakov-Santini ansatz: the metric
#: g = -(u^2 + 4v) dt^2 + 4 dt dx + 2u dt dy - dy^2 as rows in the
#: coordinates (t, x, y), and the covector
#: omega = (u u_x + 2 u_y + 4 v_x) dt - u_x dy as its (dt, dx, dy) components
_METRIC = (("-u^2 - 4*v", "2", "u"), ("2", "0", "0"), ("u", "0", "-1"))
_COVECTOR = ("u*u_x + 2*u_y + 4*v_x", "0", "-u_x")


def _shift(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _minus(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


# ---------------------------------------------------------------------------
# generator keys


def _jet_key(dep: str, idx: MultiIndex) -> str:
    """The key (DSL name) of the jet coordinate w_idx."""
    return f"{dep}_{idx.word()}" if idx.order else dep


@lru_cache(maxsize=None)
def _coordinates(order: int) -> tuple[tuple[str, str, MultiIndex], ...]:
    """(key, dependent, index) of every jet coordinate of order <=
    ``order``, by order."""
    out = []
    for m in range(order + 1):
        for dep in DEPENDENTS:
            for a in range(m + 1):
                for b in range(m - a + 1):
                    idx = MultiIndex(a, b, m - a - b)
                    out.append((_jet_key(dep, idx), dep, idx))
    return tuple(out)


def _key_text(key) -> str:
    """The name a generator prints with: a DSL name as it is, an auxiliary
    key as the name of its sympy symbol (``_Y`` for the root ("root", "y"),
    ``_Ex`` for ("exp", "x"), ``_R2_6`` for the radical ("radical", 2, 6)
    of 2^(1/6) and ``_E_3`` for ("radical", 0, 3), exp(1/3)), and a
    foreign symbol as sympy prints it."""
    if type(key) is tuple:
        kind, *rest = key
        if kind == "root":
            return "_" + rest[0].upper()
        if kind == "exp":
            return "_E" + rest[0]
        p, M = rest
        return f"_R{p}_{M}" if p else f"_E_{M}"
    return str(key)


def _is_formal_key(key) -> bool:
    """Whether a key names a formal function of t (or a derivative)."""
    return type(key) is str and key not in BASE_NAMES and jet_parts(key) is None


#: sympy's rank of a one-letter generator name in its default generator
#: order (``sympy.polys.polyutils._gens_order``); other names rank 1000
_LETTER_RANK = {
    **{c: 301 + i for i, c in enumerate("abcdefghijklmno")},
    **{c: 216 + i for i, c in enumerate("pqrstuvw")},
    "x": 124,
    "y": 125,
    "z": 126,
}
_NAME_INDEX_RE = re.compile(r"^(.*?)(\d*)$")


@lru_cache(maxsize=None)
def _print_rank(key) -> tuple:
    """sympy's default sort key of a generator (``_sort_gens``), on the
    name it prints with (:func:`_key_text`): (rank of the name, name,
    trailing index); the rings share their keys, so each is ranked once."""
    name, index = _NAME_INDEX_RE.match(_key_text(key)).groups()
    return (_LETTER_RANK.get(name, 1000), name, int(index) if index else 0)


# ---------------------------------------------------------------------------
# the jet calculus in a sparse rational-function field


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
    the refusal of an inexact quotient by a term.  sympy is imported here,
    on the first call."""
    ring = p.ring
    if ring._sympy is None:
        from sympy.polys.domains import ZZ
        from sympy.polys.rings import PolyRing

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
        if type(q) is int:
            # a constant: its constant term read directly, no terms built
            return p.get(p.ring.zero_monom) == q and len(p) == 1 if q else not p
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

    def as_expr(p):
        """The polynomial as a sympy tree (``trees.poly_tree``)."""
        from jetweyl.trees import poly_tree

        return poly_tree(p)


class _JetPolyRing:
    """ZZ[generators]: the element class (``dtype``), the generators, the
    sympy symbols of the generators (``symbols``, built on first use) and,
    for :func:`_by_sympy`, sympy's ring, built on first use too.  Rings
    compare by their keys, so that the elements of equal rings built apart
    mix."""

    def __init__(self, keys: tuple):
        self.keys = keys
        n = len(keys)
        self.zero_monom = (0,) * n
        self.dtype = type("JetPoly", (_JetPoly,), {"__slots__": (), "ring": self})
        self.gens = tuple([self.dtype({(0,) * i + (1,) + (0,) * (n - i - 1): 1}) for i in range(n)])
        self._sympy = None
        self._hash = hash(keys)

    def __eq__(self, other):
        return self is other or (type(other) is _JetPolyRing and self.keys == other.keys)

    def __hash__(self):
        return self._hash

    # elements are dicts: each call builds a fresh one
    @property
    def one(self):
        return self.dtype({self.zero_monom: 1})

    @cached_property
    def symbols(self) -> tuple:
        """The generators as sympy symbols (``trees.symbol_of``)."""
        from jetweyl.trees import symbol_of

        return tuple(map(symbol_of, self.keys))


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

    def as_expr(f):
        """numer/denom as a sympy tree, with no change of sign."""
        return f.numer.as_expr() / f.denom.as_expr()


class _JetField:
    """The rational functions over ZZ in the generators ``keys``: the
    polynomial ring, the element class (``dtype``, also ``raw_new``) and
    the generators as elements.  Fields compare as their rings do."""

    def __init__(self, keys: tuple):
        self.keys = keys
        self.ring = ring = _JetPolyRing(keys)
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

    @cached_property
    def symbols(self) -> tuple:
        return self.ring.symbols

    def new(self, numer, denom):
        return self.raw_new(*_cancel(numer, denom))


class _JetRing:
    """Q(jet coordinates of order <= ``order``, t, x, y, ``extras``) as one
    sparse field of rational functions (``_JetField``), each element a pair
    of polynomials over ZZ in lowest terms.

    The generators are keyed by ``keys`` (``index``: key -> position): the
    jet coordinates by order, t, x, y and the extras.  ``extras`` are
    formal functions of t, with the derivative orders a computation can
    reach, and the auxiliary generators of fractional powers and
    exponential atoms (see ``exprcore._rescaled``), which only ever ride
    along.  The total derivatives are ring derivations given by the images
    of the generators (u_sigma -> u_{sigma+i}, a^(m) -> a^(m+1) for D_t),
    lifted once; the principal table is a table of polynomials in the
    internal coordinates, and reduction is substitution of generators.

    ``symbols``, the generators as sympy symbols, and ``symbol_index`` are
    built on first use; :meth:`convert` and :meth:`to_expr` are the sympy
    boundary in :mod:`jetweyl.trees`.
    """

    def __init__(self, order: int, extras: tuple = ()):
        self.order = order
        self.extras = extras
        jets = _coordinates(order)
        self.keys = tuple(key for key, _, _ in jets) + BASE_NAMES + extras
        self.field = _JetField(self.keys)
        self.ring = self.field.ring
        self.gens = self.ring.gens
        self.index = {k: i for i, k in enumerate(self.keys)}
        # the jets come first: position -> (dependent, index)
        self._jets = [(dep, idx) for _, dep, idx in jets]
        self._principal = [i for i, (_, idx) in enumerate(self._jets) if idx.is_principal]
        # D_t, D_x, D_y lifted once (see ``lift``): each image is a
        # generator or 1.  A jet of the top order, a formal derivative of
        # the highest order carried and an auxiliary generator have none.
        self._totals = {}
        for d in BASE_NAMES:
            terms = [None] * len(self.keys)
            terms[self.index[d]] = [((), 1)]
            outside = (JetOrderError, f"D_{d} {{s}} lies outside the ring of jet order {order}")
            auxiliary = (ExprError, "cannot differentiate the auxiliary generator {s}")
            refused = {}
            # j: the index of the image generator, -1 for none, None for a refusal
            for i, s in enumerate(self.keys):
                if i < len(jets):
                    dep, idx = self._jets[i]
                    j = self.index[_jet_key(dep, idx.bump(d))] if idx.order < order else None
                elif s in BASE_NAMES:
                    j = -1
                elif type(s) is str:
                    # a formal derivative a^(m): D_t a^(m) = a^(m+1)
                    j = self.index.get(s + "'") if d == "t" else -1
                else:
                    j = None
                if j is None:
                    refused[i] = outside if type(s) is str else auxiliary
                elif j >= 0:
                    terms[i] = [(((j, 1),), 1)]
            self._totals[d] = (self.ring.one, terms, refused)
        self._table: dict[int, object] = {}
        # source field -> its generators' indices here (None where missing)
        self._embeddings: dict = {}

    @cached_property
    def symbols(self) -> tuple:
        """The generators as sympy symbols, built on first use."""
        return self.field.symbols

    @cached_property
    def symbol_index(self) -> dict:
        """sympy symbol -> position of the generator."""
        return {s: i for i, s in enumerate(self.symbols)}

    @cached_property
    def _sympy_order(self) -> list[int]:
        """The generators' positions in sympy's generator order
        (:func:`_print_rank`), which fixes the sign of the denominator of
        a printed element; computed on first print."""
        return sorted(range(len(self.keys)), key=lambda i: _print_rank(self.keys[i]))

    # -- the sympy boundary (jetweyl.trees) ------------------------------------

    def convert(self, e):
        """The field element of a sympy tree (``trees.convert``)."""
        from jetweyl.trees import convert

        return convert(self, e)

    def to_expr(self, f):
        """The sympy tree of f in ``normalize``'s canonical form
        (``trees.to_expr``)."""
        from jetweyl.trees import to_expr

        return to_expr(self, f)

    # -- generators -----------------------------------------------------------

    def embed(self, f):
        """An element of another jet ring as an element of this one, with no
        expression and no cancellation: its monomials are read through the
        source's generator indices here, cached per source ring, and the
        sign is made canonical (a no-op unless extras come in another
        order).  ``JetOrderError`` when f uses a jet this ring lacks."""
        source = f.field
        places = self._embeddings.get(source)
        if places is None:
            places = self._embeddings[source] = [self.index.get(s) for s in source.keys]
        n = len(self.keys)

        def moved(p):
            out = {}
            for monom, c in p.items():
                m = [0] * n
                for i in itertools.compress(range(len(monom)), monom):
                    if places[i] is None:
                        self._generator(source.keys[i])
                    m[places[i]] = monom[i]
                out[tuple(m)] = c
            return self.ring.dtype(out)

        num, den = moved(f.numer), moved(f.denom)
        if den[max(den)] < 0:
            num, den = -num, -den
        return self.field.raw_new(num, den)

    def gen(self, s):
        """The generator ``s`` (a key or a sympy symbol) as a field element."""
        return self.field.gens[self._generator(s)]

    def _generator(self, s) -> int:
        i = self.index.get(s)
        if i is None:
            key = s
            if type(s) not in (str, tuple):
                # a sympy symbol, from the boundary
                i = self.symbol_index.get(s)
                if i is not None:
                    return i
                from jetweyl.trees import key_of

                key = key_of(s)
            if type(key) is str:
                raise JetOrderError(f"{key} lies outside the ring of jet order {self.order}")
            raise UnknownSymbolError(f"unregistered symbol {_key_text(s)}")
        return i

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
        terms = [None] * len(self.keys)
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
                        raise error(message.format(s=_key_text(self.keys[i])))
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
        """The principal coordinate ``keys[i]`` as a polynomial in the
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
            dep, idx = self._jets[i]
            if idx == MultiIndex(1, 1, 0):
                # the checked leading solve w_tx = w_tx - F_w/c
                c, _ = _recurrence(dep)
                F = self.embed(_equations()[DEPENDENTS.index(dep)]).numer
                got = self.ring.gens[i] - F.exquo(self.ring.one * c)
            else:
                d = "y" if idx.ny else ("x" if idx.nx > 1 else "t")
                parent = self.principal(self.index[_jet_key(dep, idx.drop(d))])
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


def _ring_of(order: int, formals: dict, derivatives: int = 0, aux: tuple = ()) -> _JetRing:
    """The ring of jet order ``order`` holding the formal functions
    ``formals`` ({name: highest derivative order that occurs}) with
    ``derivatives`` more t-derivatives, and the auxiliary generators
    ``aux``."""
    extras = tuple(
        name + "'" * m
        for name in sorted(formals)
        for m in range(formals[name] + derivatives + 1)
    ) + tuple(aux)
    # _jet_ring(order, ()) would be a second key: a second ring and table
    return _jet_ring(order, extras) if extras else _jet_ring(order)


# ---------------------------------------------------------------------------
# the reader: syntax trees into a field


class _ZeroDivisor(Exception):
    """A divisor, or the base of a negative power, that is zero in the
    field.  How such a text is refused depends on sympy's evaluation of
    the tree (``x/(x - x)`` is a literal zero there, other zeros surface
    in the conversion), so the caller reads it with ``dsl`` instead."""


def is_rational(tree) -> bool:
    """Whether a syntax tree holds no ``exp`` and no fractional power: a
    rational function that :func:`read` reads."""
    kind = tree[0]
    if kind in ("int", "name", "formal"):
        return True
    if kind == "exp":
        return False
    if kind == "neg":
        return is_rational(tree[2])
    if kind == "^":
        return tree[3].denominator == 1 and is_rational(tree[2])
    return is_rational(tree[2]) and all(is_rational(operand) for _, operand, _ in tree[3])


def read(tree, ring, roots=None):
    """The element of ``ring`` of a rational syntax tree (see
    :func:`is_rational`): integers, generators, sums, products, quotients
    and integer powers formed in the field.  ``JetOrderError`` for a
    generator the ring lacks, :class:`_ZeroDivisor` for a zero divisor.

    ``roots`` ({base variable: m}) reads fractional powers too: a base
    variable b with an entry is B^m for the ring's root generator
    ("root", b), and b^(k/q) is B^(k*m/q); m must clear every exponent
    denominator of b in the tree."""
    kind = tree[0]
    field = ring.field
    if kind == "int":
        return field.one * tree[2]
    if kind == "name":
        m = roots.get(tree[2]) if roots else None
        if m is not None:
            return field.gens[ring.index[("root", tree[2])]] ** m
        return field.gens[ring._generator(tree[2])]
    if kind == "formal":
        return field.gens[ring._generator(tree[2] + "'" * tree[3])]
    if kind == "neg":
        return -read(tree[2], ring, roots)
    if kind == "^":
        if tree[3].denominator == 1:
            base, n = read(tree[2], ring, roots), int(tree[3])
        else:
            b = tree[2][2]
            base, n = field.gens[ring.index[("root", b)]], int(tree[3] * roots[b])
        if n >= 0:
            return base**n
        if not base:
            raise _ZeroDivisor
        return field.one / base**-n
    out = read(tree[2], ring, roots)
    for op, operand, _ in tree[3]:
        f = read(operand, ring, roots)
        if op == "+":
            out = out + f
        elif op == "-":
            out = out - f
        elif op == "*":
            out = out * f
        elif not f:
            raise _ZeroDivisor
        else:
            out = out / f
    return out


def _names(tree, acc: dict) -> dict:
    """``acc`` ({"order": highest jet order, "formals": {name: highest
    derivative order}}) updated with the generators a syntax tree names."""
    kind = tree[0]
    if kind == "name":
        parts = jet_parts(tree[2])
        if parts is not None:
            acc["order"] = max(acc["order"], parts[1].order)
    elif kind == "formal":
        formals = acc["formals"]
        formals[tree[2]] = max(formals.get(tree[2], 0), tree[3])
    elif kind in ("neg", "^"):
        _names(tree[2], acc)
    elif kind in ("sum", "product"):
        _names(tree[2], acc)
        for _, operand, _ in tree[3]:
            _names(operand, acc)
    return acc


def _read_rational(tree):
    """(ring, element) of a syntax tree in the ring of its own jet order
    and formal functions, or None where the tree is not rational or holds
    a zero divisor (the sympy path then reads it)."""
    if not is_rational(tree):
        return None
    names = _names(tree, {"order": 0, "formals": {}})
    ring = _ring_of(names["order"], names["formals"])
    try:
        return ring, read(tree, ring)
    except _ZeroDivisor:
        return None


def _defined(text: str, ring):
    """A written definition (DSL text) as an element of ``ring``."""
    return read(parse_expr(text), ring)


def reduced(tree, k: int | None = None):
    """(ring, element, reduced element) of a rational syntax tree
    restricted to the order-k equation submanifold, as
    ``EquationSystem.reduce`` restricts its tree: ``k`` defaults to the
    element's own jet order, and the ring is that of order k with the
    element's formal functions.  None where :func:`_read_rational` gives
    none."""
    got = _read_rational(tree)
    if got is None:
        return None
    ring, f = got
    present = ring.present(f)
    order = max([ring._jets[i][1].order for i in present if i < len(ring._jets)], default=0)
    if k is None:
        k = order
    if order > k:
        raise JetOrderError(f"expression has jet order {order}, beyond the requested {k}")
    if k > MAX_JET_ORDER:
        raise JetOrderError(f"order {k} beyond hard cap {MAX_JET_ORDER}")
    formals: dict[str, int] = {}
    for s in filter(_is_formal_key, (ring.keys[i] for i in present)):
        name = s.rstrip("'")
        formals[name] = max(formals.get(name, 0), len(s) - len(name))
    target = _ring_of(k, formals)
    if target is not ring:
        f = target.embed(f)
    return target, f, target.reduce(f)


# ---------------------------------------------------------------------------
# the printer: canonical text of a field element
#
# ``exprcore.to_text`` printed the sympy tree numer/denom: sympy's
# ``default_sort_key`` orders the terms of a sum and the factors of a
# product, and sympy's evaluation of the quotient decides what is printed
# as numerator and denominator.  The keys below are those sort keys, for
# products of generator powers with a rational coefficient.

_NUMBER = (1, 0, "Number")
_SYMBOL = (2, 0, "Symbol")
_MUL = (3, 0, "Mul")


def _number_key(q) -> tuple:
    return (_NUMBER, (0, ()), (), q)


_ONE_KEY = _number_key(1)


def _term_key(c, factors) -> tuple:
    """The sort key of the term c * prod name^e over ``factors``."""
    if not factors:
        return _number_key(c)
    if len(factors) == 1:
        ((name, e),) = factors
        return (_SYMBOL, (1, (name,)), _number_key(e), c)
    keys = sorted(_term_key(1, (f,)) for f in factors)
    return (_MUL, (len(keys), tuple(keys)), _ONE_KEY, c)


def _rational_text(q) -> str:
    return str(q) if q >= 0 else f"({q})"


def _atom_text(name: str) -> str:
    return f"{name}(t)" if _is_formal_key(name) else name


def _product_text(c, factors) -> str:
    """c * prod name^e; a sign of c is the caller's."""
    parts = [_rational_text(c)] if c != 1 or not factors else []
    for name, e in sorted(factors, key=lambda f: _term_key(1, (f,))):
        parts.append(_atom_text(name) if e == 1 else f"{_atom_text(name)}^{e}")
    return "*".join(parts)


def _sum_text(terms) -> str:
    chunks = []
    for c, factors in sorted(terms, key=lambda t: _term_key(*t)):
        sign = "-" if c < 0 else "+"
        chunks.append((sign, _product_text(-c if c < 0 else c, factors)))
    (sign, first), rest = chunks[0], chunks[1:]
    return ("-" if sign == "-" else "") + first + "".join(f" {s} {body}" for s, body in rest)


def _expr_text(terms) -> str:
    if len(terms) > 1:
        return _sum_text(terms)
    ((c, factors),) = terms
    return "-" + _product_text(-c, factors) if c < 0 else _product_text(c, factors)


def text(ring, f) -> str:
    """The canonical text of a field element whose generators are all
    named (DSL names as keys): numerator over denominator, the leading
    coefficient of the denominator in sympy's generator order positive,
    printed as ``exprcore.to_text`` prints the sympy tree of that quotient.
    A denominator that is an integer is spread over a sum (1/2*u_x + u_y);
    one term over one term shares one rational coefficient."""
    num, den = f.numer, f.denom
    if not num:
        return "0"
    order = ring._sympy_order
    if den[max(den, key=lambda m: [m[i] for i in order])] < 0:
        num, den = -num, -den

    def terms(p):
        return [
            (c, [(ring.keys[i], m[i]) for i in itertools.compress(range(len(m)), m)])
            for m, c in p.items()
        ]

    top, bottom = terms(num), terms(den)
    if len(bottom) == 1 and not bottom[0][1]:
        # an integer denominator d
        d = bottom[0][0]
        if len(top) > 1:
            return _expr_text([(Fraction(c, d), fs) for c, fs in top])
        ((c, fs),) = top
        if not fs:
            return str(Fraction(c, d))
        if d == 1:
            return _expr_text(top)
        bottom_text = str(d)
    elif len(bottom) == 1:
        ((d, gs),) = bottom
        if len(top) == 1:
            # one rational coefficient c/d in lowest terms
            ((c, fs),) = top
            q = Fraction(c, d)
            top, d = [(q.numerator, fs)], q.denominator
        if d == 1 and len(gs) == 1:
            ((name, e),) = gs
            bottom_text = _atom_text(name) if e == 1 else f"{_atom_text(name)}^{e}"
        else:
            bottom_text = f"({_product_text(d, gs)})"
    else:
        bottom_text = f"({_sum_text(bottom)})"
    top_text = _expr_text(top)
    if len(top) > 1 or top[0][0] < 0:
        top_text = f"({top_text})"
    return f"{top_text}/{bottom_text}"


# ---------------------------------------------------------------------------
# the system


@lru_cache(maxsize=None)
def _equations() -> tuple:
    """(F1, F2) as elements of the order-2 jet ring: the one form of the
    system, read once from its written definition (:data:`EQUATIONS`).
    The point recurrence, the principal table, the symmetry check, the
    section residuals and the reductions read it; other rings take it by
    ``_JetRing.embed``."""
    ring = _jet_ring(2)
    return tuple(_defined(F, ring) for F in EQUATIONS)


@lru_cache(maxsize=None)
def _ansatz() -> tuple:
    """(the rows of the metric, the components of the covector) of the
    ansatz as elements of the order-2 jet ring, read once from their
    written definitions (``_METRIC``, ``_COVECTOR``); every other ring
    takes them by ``_JetRing.embed``."""
    ring = _jet_ring(2)
    g = tuple(tuple(_defined(c, ring) for c in row) for row in _METRIC)
    return g, tuple(_defined(c, ring) for c in _COVECTOR)


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
    lead = _jet_key(dep, MultiIndex(1, 1, 0))
    c, terms = None, []
    for monom, coef in F.numer.items():
        factors = []
        for i in itertools.compress(range(len(monom)), monom):
            d, idx = ring._jets[i]
            factors += [(d, (idx.nt, idx.nx, idx.ny))] * monom[i]
        if factors == [(dep, (1, 1, 0))]:
            c = coef
            continue
        if len(factors) > 2 or any(ix[0] for _, ix in factors):
            raise AssertionError(f"{lead} does not lead {text(ring, F)}")
        terms.append((coef, tuple(factors)))
    if c not in (1, -1) or F.denom != 1:
        raise AssertionError(f"equation not affine-monic in {lead}")
    return c, tuple(terms)


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

    def reduce(self, e, k: int | None = None):
        """Restriction of a sympy tree to the order-k equation submanifold
        in internal coordinates, in ``normalize``'s canonical form
        (``trees.reduce_tree``)."""
        from jetweyl.trees import reduce_tree

        return reduce_tree(e, k)

    # -- points -------------------------------------------------------------

    def point(self, k: int, base=None, internal=None) -> "JetPoint":
        return JetPoint(k, base=base, internal=internal)


@lru_cache(maxsize=None)
def ms_system() -> EquationSystem:
    """Shared instance of the system (tables cached across callers)."""
    return EquationSystem()


# ---------------------------------------------------------------------------
# the order-3 invariant data


def _apply_in(ring, coefficients, f):
    """The derivation with the coefficients (c_t, c_x, c_y), elements of a
    jet ring, applied to an element f of that ring, reduced."""
    out = ring.field.zero
    for c, d in zip(coefficients, "txy"):
        if c:
            out += c * ring.total(f, d)
    return ring.reduce(out)


class _Order3:
    """The order-3 invariant data as elements of ``ring``, the order-3 jet
    ring, read from their written definitions: ``I`` = (I1, I2, I3) and,
    each built on first use, ``nabla`` = the coefficients (c_t, c_x, c_y)
    of nabla_1..nabla_3 (the one ring form of the derivations; another
    ring embeds them), ``K`` = (K1, ..., K4) and the ``twelve`` signature
    invariants."""

    def __init__(self):
        self.ring = _jet_ring(3)
        self.I = tuple(_defined(text, self.ring) for text in INVARIANTS)

    @cached_property
    def nabla(self) -> tuple:
        return tuple(tuple(_defined(c, self.ring) for c in row) for row in DERIVATIONS)

    def apply(self, j: int, f):
        """nabla_j applied to an element of the order-3 ring, reduced."""
        return _apply_in(self.ring, self.nabla[j - 1], f)

    @cached_property
    def K(self) -> tuple:
        out = []
        for terms in STRUCTURE:
            acc = self.ring.field.zero
            for c, a in terms:
                c = _defined(c, self.ring)
                acc += c if a is None else c * self.apply(2, _defined(a, self.ring))
            out.append(acc)
        return tuple(out)

    @cached_property
    def twelve(self) -> tuple:
        """The signature components (I1, I2, I3, I_ij) with I_ij = the j-th
        derivation applied to I_i, in row-major order."""
        derived = (self.apply(j, b) for b in self.I for j in (1, 2, 3))
        return self.I + tuple(derived)


@lru_cache(maxsize=None)
def _order3() -> _Order3:
    """The order-3 invariant data, built once."""
    return _Order3()


# ---------------------------------------------------------------------------
# points


def _point_key(s) -> str | tuple[str, tuple[int, int, int]]:
    """The key of a base or jet coordinate (a name or a sympy symbol) in a
    :class:`JetPoint`: its name for t, x, y, else (dependent, (nt, nx,
    ny)).  ``KeyError`` for a formal function, ``UnknownSymbolError`` for
    a name of nothing."""
    name = s if type(s) is str else s.name
    if name in BASE_NAMES:
        return name
    parts = jet_parts(name)
    if parts is None:
        base = name.rstrip("'")
        if _FORMAL_NAME_RE.match(base) and base not in _RESERVED_FORMAL:
            raise KeyError(name)
        raise UnknownSymbolError(f"unknown symbol {name!r}")
    dep, idx = parts
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
    Coordinates are named by DSL names or sympy symbols.
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
        # the given internal coordinates by their DSL names
        self.internal: dict[str, Fraction] = {}
        given: dict = dict(self.base)
        for key, val in (internal or {}).items():
            key = _point_key(key)
            if type(key) is str:
                raise KeyError(key)  # a base coordinate is no jet
            dep, (nt, nx, ny) = key
            idx = MultiIndex(nt, nx, ny)
            s = _jet_key(dep, idx)
            if idx.is_principal:
                raise ValueError(
                    f"{s} is principal; JetPoint stores internal coordinates only"
                )
            if idx.order > k:
                raise JetOrderError(f"{s} has order beyond k={k}")
            self.internal[s] = given[key] = _exact(s, val)
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
        (n,), den = self.integers((_point_key(key),))
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

    def _where(self) -> str:
        """The given coordinates, as an error message names the point."""
        known = (*self.base.items(), *self.internal.items())
        return ", ".join(f"{s}={q}" for s, q in known)

    def value_of(self, ring, f) -> Fraction:
        """The value of a field element at the point: its numerator and
        denominator summed in integers over the values of the generators
        that occur.  A formal function cannot be evaluated
        (``PointNotOnEquationError``); a denominator that vanishes raises
        ``DivisionByZeroExpression``, naming f by its canonical text."""
        used = ring.present(f)
        for i in used:
            s = ring.keys[i]
            if type(s) is not str or _is_formal_key(s):
                raise PointNotOnEquationError(f"cannot evaluate symbol {s} at a jet point")
        nums, D = self.integers(tuple(_point_key(ring.keys[i]) for i in used))
        values = [0] * len(ring.keys)
        for i, n in zip(used, nums):
            values[i] = n

        def at(p) -> Fraction:
            terms, den = _clear_denominators(p, D)
            total = sum(
                scale * prod(values[i] ** m[i] for i in itertools.compress(range(len(m)), m))
                for m, scale in terms
            )
            return Fraction(total, den)

        den = at(f.denom)
        if not den:
            raise DivisionByZeroExpression(
                f"the denominator of {text(ring, f)} vanishes at the jet point ({self._where()})"
            )
        return at(f.numer) / den

    def eval(self, e) -> Fraction:
        """Exact evaluation of a term-language expression (a sympy tree) at
        the point (``trees.eval_tree``)."""
        from jetweyl.trees import eval_tree

        return eval_tree(self, e)


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
    return tuple(map(_point_key, ring.keys))


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
