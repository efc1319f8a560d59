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
:meth:`EquationSystem.reduce` performs that substitution in one sparse
rational-function field over QQ (the private ``_JetRing``: generators t,
x, y, the jet coordinates up to the order in play and the formal functions
present), where the total derivatives are ring derivations and reduction
is a substitution of generators; the symmetry and invariance checks
compute there and convert sympy expressions only at their boundary.  A
:class:`JetPoint` solves the same triangular system in rational numbers.

Counting internal multi-indices (a, b, c) with a*b = 0 and a+b+c <= k gives
(k+1)^2 per dependent variable, whence

    dim (k-jet space)            = 3 + 2*C(k+3, 3),
    dim (equation submanifold_k) = 3 + 2*(k+1)^2   for k >= 2,

with the low orders 5 (k=0) and 11 (k=1) where no equation constrains yet.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Iterable, Mapping

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.fields import FracField
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _sort_gens

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
    T,
    X,
    Y,
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
)
from .linalg import as_fraction

__all__ = [
    "total_derivative",
    "total_derivative_multi",
    "dims",
    "DimRecord",
    "EquationSystem",
    "ms_system",
    "JetPoint",
    "internal_indices",
    "principal_indices",
]

_DIRECTIONS = {"t": T, "x": X, "y": Y}
_ZERO = Fraction(0)


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
    """acc += poly, in place, on {monomial: coefficient} dicts."""
    for m, c in poly.items():
        v = acc.get(m)
        if v is None:
            acc[m] = c
        else:
            v += c
            if v:
                acc[m] = v
            else:
                del acc[m]


class _JetRing:
    """Q(jet coordinates of order <= ``order``, t, x, y, ``extras``) as one
    sparse rational-function field (``sympy.polys.fields``).

    ``extras`` are formal functions of t, with the derivative orders a
    computation can reach, and the auxiliary generators of fractional
    powers and exponential atoms (see ``exprcore._rescaled``), which only
    ever ride along.  The total derivatives are ring derivations given by
    the images of the generators (u_sigma -> u_{sigma+i}, a^(m) -> a^(m+1)
    for D_t); the principal table is a table of polynomials in the internal
    coordinates, and reduction is substitution of generators.
    """

    def __init__(self, order: int, extras: tuple = ()):
        self.order = order
        self.extras = extras
        jets = _coordinates(order)
        self.symbols = jets + BASE_SYMBOLS + extras
        self.field = FracField(self.symbols, QQ, lex)
        self.ring = self.field.ring
        self.gens = self.ring.gens
        self.index = {s: i for i, s in enumerate(self.symbols)}
        self._principal = [
            i for i, s in enumerate(jets) if jet_info(s)[1].is_principal
        ]
        # generator -> image generator under D_i; -1 stands for the image 1
        # and None for a generator the ring cannot differentiate
        self._shifts = {}
        for d, base in zip("txy", BASE_SYMBOLS):
            pairs = [(self.index[base], -1)]
            for i, s in enumerate(jets):
                dep, idx = jet_info(s)
                pairs.append((i, self.index[jet(dep, idx.bump(d))] if idx.order < order else None))
            for s in extras:
                if is_formal_symbol(s):
                    if d == "t":
                        pairs.append((self.index[s], self.index.get(formal_shift(s))))
                else:
                    pairs.append((self.index[s], None))
            self._shifts[d] = pairs
        # sympy's generator order, which fixes the sign of the canonical
        # denominator
        self._sympy_order = [self.index[s] for s in _sort_gens(self.symbols)]
        self._table: dict[int, object] = {}

    # -- conversion ---------------------------------------------------------

    def convert(self, e):
        """The field element of a rational expression in the generators."""
        e = sp.sympify(e)
        for s in e.free_symbols:
            self._generator(s)
        if e.has(sp.Float):
            # from_expr would read a float as a rational number
            raise ExprError(f"{e} has a floating-point coefficient")
        num, den = e.as_numer_denom()
        try:
            num, den = self.ring.from_expr(num), self.ring.from_expr(den)
        except ValueError:
            if e.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
                raise DivisionByZeroExpression(f"{e} contains an undefined value") from None
            raise ExprError(f"{e} is not a rational function of the jet coordinates") from None
        if not den:
            raise DivisionByZeroExpression(f"zero denominator in {e}")
        return self.field.raw_new(num) if den == 1 else self.field.new(num, den)

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
        denominator with integer coefficients, no common factor (contents
        included), and the denominator's leading coefficient positive."""
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

    # -- derivations --------------------------------------------------------

    def _derive(self, p, d: str):
        """D_d of a polynomial: every image is a generator or 1."""
        out: dict = {}
        shifts = self._shifts[d]
        for monom, c in p.items():
            for i, j in shifts:
                e = monom[i]
                if not e:
                    continue
                if j is None:
                    s = self.symbols[i]
                    if is_jet_symbol(s) or is_formal_symbol(s):
                        raise JetOrderError(
                            f"D_{d} {s} lies outside the ring of jet order {self.order}"
                        )
                    raise ExprError(f"cannot differentiate the auxiliary generator {s}")
                m = list(monom)
                m[i] = e - 1
                if j >= 0:
                    m[j] += 1
                m = tuple(m)
                v = out.get(m)
                out[m] = c * e if v is None else v + c * e
        return self.ring.dtype({m: c for m, c in out.items() if c})

    def total(self, f, d: str):
        """The total derivative D_d of a field element."""
        dn = self._derive(f.numer, d)
        if f.denom == 1:
            return self.field.raw_new(dn)
        dd = self._derive(f.denom, d)
        return self.field.new(dn * f.denom - f.numer * dd, f.denom**2)

    def derivation(self, f, images):
        """sum_i images[i] * df/dg_i for (generator index, element) pairs:
        with the images written n_i/c over one common denominator c, the
        derivation is P -> sum_i n_i dP/dg_i / c on numerator and
        denominator."""
        images = [(i, img) for i, img in images if img]
        c = self.ring.one
        for _, img in images:
            if img.denom != 1:
                c = c.lcm(img.denom)
        polys = [
            (self.gens[i], img.numer if img.denom == c else img.numer * c.exquo(img.denom))
            for i, img in images
        ]

        def along(p):
            out: dict = {}
            for g, n in polys:
                dp = p.diff(g)
                if dp:
                    _merge(out, dp * n)
            return self.ring.dtype(out)

        if f.denom == 1:
            num, den = along(f.numer), c
        else:
            num, den = along(f.numer) * f.denom - f.numer * along(f.denom), c * f.denom**2
        return self.field.raw_new(num) if den == 1 else self.field.new(num, den)

    def present(self, f) -> list[int]:
        """Indices of the generators that occur in f."""
        degs = f.numer.degrees()
        if f.denom != 1:
            degs = map(max, degs, f.denom.degrees())
        return [i for i, n in enumerate(degs) if n > 0]

    # -- the equation -------------------------------------------------------

    def principal(self, i: int):
        """The principal coordinate ``symbols[i]`` as a polynomial in the
        internal coordinates; built by the recursion of
        :meth:`EquationSystem.principal_expr` in the ring without extras,
        which every ring of the same order extends."""
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
                # the checked leading solve w_tx = R_w
                R = ms_system().principal_solve()[DEPENDENTS.index(dep)]
                got = self.convert(R).numer
            else:
                d = "y" if idx.ny else ("x" if idx.nx > 1 else "t")
                parent = self.principal(self.index[jet(dep, idx.drop(d))])
                got = self._reduce_poly(self._derive(parent, d))
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


@lru_cache(maxsize=None)
def _jet_ring(order: int, extras: tuple = ()) -> _JetRing:
    return _JetRing(order, extras)


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
    )
    return _jet_ring(order, extras + tuple(aux))


class _Rescaled:
    """A jet ring holding the auxiliary generators of one joint
    ``exprcore._rescaled`` (``back``: generator -> value), with the
    canonical form of its elements.

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


def total_derivative(e, direction, order_cap: int | None = None) -> sp.Expr:
    """Total derivative D_i in coordinates: base partial plus jet transport.

    D_i e = d_{x^i} e + sum_sigma (u_{sigma+i} * de/du_sigma + ...),
    computed as a derivation of the jet ring.

    Raises the jet order by at most one; ``order_cap`` (if given) bounds the
    order of the result, erroring out instead of creating deeper jets.
    """
    dname = direction if isinstance(direction, str) else direction.name
    if dname not in _DIRECTIONS:
        raise ValueError(f"direction must be one of t,x,y, got {direction!r}")
    return total_derivative_multi(
        e, MultiIndex(*(int(dname == d) for d in _DIRECTIONS)), order_cap
    )


def total_derivative_multi(e, index, order_cap: int | None = None) -> sp.Expr:
    """Iterated total derivative D_sigma, applied in the fixed order
    t-then-x-then-y (the result is order-independent since [D_i, D_j] = 0)."""
    idx = index if isinstance(index, MultiIndex) else MultiIndex(*index)
    e = sp.sympify(e)
    cap = MAX_JET_ORDER if order_cap is None else min(order_cap, MAX_JET_ORDER)
    order = 0
    if any(is_jet_symbol(s) for s in e.free_symbols):
        order = jet_order(e) + idx.order
        if order > cap:
            raise JetOrderError(
                f"D_{idx} would create an order-{order} jet coordinate past the cap {cap}"
            )
    ring = _ring_for(order, (e,), derivatives=idx.nt)
    out = ring.convert(e)
    for d, count in zip("txy", (idx.nt, idx.nx, idx.ny)):
        for _ in range(count):
            out = ring.total(out, d)
    return ring.to_expr(out)


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


@dataclass(frozen=True)
class DimRecord:
    k: int
    dim_jet_space: int
    dim_equation: int
    internal_per_dependent: int


def dims(k: int) -> DimRecord:
    """Dimension count at jet order k.

    dim J^k = 3 + 2*C(k+3,3); the equation submanifold has dimension
    3 + 2*(k+1)^2 for k >= 2 (5 and 11 at orders 0 and 1, where the
    second-order equations impose nothing); each dependent variable
    contributes (k+1)^2 internal coordinates.
    """
    if k < 0:
        raise ValueError("jet order must be non-negative")
    dim_jet = 3 + 2 * comb(k + 3, 3)
    if k >= 2:
        dim_eq = 3 + 2 * (k + 1) ** 2
    else:
        dim_eq = dim_jet  # 5 at k=0, 11 at k=1
    return DimRecord(k, dim_jet, dim_eq, (k + 1) ** 2)


class EquationSystem:
    """The modified dispersionless system with its reduction machinery.

    Immutable; the principal table behind :meth:`reduce` lives in the jet
    rings, which are built on first use.
    """

    def __init__(self):
        self.F1, self.F2 = _ms_equations()
        self.equations = (self.F1, self.F2)
        self._recurrences = {
            dep: self._recurrence(F, dep)
            for F, dep in ((self.F1, "u"), (self.F2, "v"))
        }

    # -- principal coordinates ---------------------------------------------

    def principal_solve(self) -> tuple[sp.Expr, sp.Expr]:
        """(R_u, R_v) with u_tx = R_u, v_tx = R_v on the equation; both
        right-hand sides are free of principal coordinates."""
        out = []
        for F, dep in ((self.F1, "u"), (self.F2, "v")):
            lead = jet(dep, "tx")
            coeff = sp.diff(F, lead)
            if not coeff.is_Rational or coeff == 0:
                raise AssertionError(f"equation not affine-monic in {lead}")
            R = sp.expand(lead - F / coeff)
            assert not any(
                jet_info(s)[1].is_principal
                for s in R.free_symbols
                if is_jet_symbol(s)
            ), "leading-coordinate solve left principal coordinates"
            out.append(R)
        return tuple(out)

    def _recurrence(self, F: sp.Expr, dep: str):
        """(c, terms) with F = c*w_tx + sum of terms, each term a rational
        coefficient and at most two jet factors (dependent, (nt, nx, ny)).

        No factor besides the leading one carries a t-derivative, so
        D_sigma of a term only involves coordinates of order <= |sigma|+2
        and t-count <= that of sigma: D_sigma F = 0 then gives
        w_{sigma+tx} from coordinates that come earlier when principal
        values are solved order by order, by ascending t-count.
        """
        lead = jet(dep, "tx")
        gens = sorted(
            (s for s in F.free_symbols if is_jet_symbol(s)), key=sp.default_sort_key
        )
        c, terms = None, []
        for monom, coef in sp.Poly(F, *gens, domain="QQ").terms():
            factors = []
            for s, n in zip(gens, monom):
                d, idx = jet_info(s)
                factors += [(d, (idx.nt, idx.nx, idx.ny))] * n
            if factors == [(dep, (1, 1, 0))]:
                c = as_fraction(coef)
                continue
            if len(factors) > 2 or any(ix[0] for _, ix in factors):
                raise AssertionError(f"{lead} does not lead {F}")
            terms.append((as_fraction(coef), tuple(factors)))
        if not c:
            raise AssertionError(f"equation not affine-monic in {lead}")
        return c, tuple(terms)

    def principal_expr(self, dependent: str, index: MultiIndex) -> sp.Expr:
        """The internal-coordinate expression of a principal coordinate on
        the equation submanifold (memoized triangular substitution).

        Recursion drops a y first, then an x, then a t; termination holds
        because entries with a single t-derivative never contain principal
        coordinates (the leading solves R_u, R_v are free of t-jets), and
        each t-drop strictly lowers the t-count of what remains.
        """
        if not index.is_principal:
            raise ValueError(f"{dependent}_{index} is not principal")
        if index.order > MAX_JET_ORDER:
            raise JetOrderError(
                f"principal coordinate of order {index.order} past hard cap"
            )
        ring = _jet_ring(index.order)
        poly = ring.principal(ring.index[jet(dependent, index)])
        return ring.to_expr(ring.field.raw_new(poly))

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
        return JetPoint(self, k, base=base, internal=internal)

    def point_from_full_assignment(self, k: int, values: Mapping) -> "JetPoint":
        """Build a point from values for *all* coordinates up to order k,
        checking that principal values satisfy the equations."""
        base = {}
        internal = {}
        principal = {}
        for key, val in values.items():
            s = resolve_symbol(key)
            q = sp.Rational(val if not isinstance(val, Fraction) else sp.Rational(val.numerator, val.denominator))
            if s in BASE_SYMBOLS:
                base[s.name] = q
            else:
                dep, idx = jet_info(s)
                if idx.order > k:
                    raise JetOrderError(f"{s} has order beyond {k}")
                (internal if idx.is_internal else principal)[s] = q
        pt = JetPoint(self, k, base=base, internal=internal)
        for s, claimed in principal.items():
            derived = pt.value(s)
            if derived != as_fraction(claimed):
                raise PointNotOnEquationError(
                    f"{s} = {claimed} contradicts the equation value {derived}"
                )
        return pt


@lru_cache(maxsize=None)
def ms_system() -> EquationSystem:
    """Shared instance of the system (tables cached across callers)."""
    return EquationSystem()


class JetPoint:
    """A rational point of the order-k equation submanifold.

    Stores the base point and internal coordinates only (unset ones are 0);
    principal coordinates are solved from the prolonged equations on
    demand, so the point always lies on the equations.  Internal
    coordinates of order beyond k are taken to extend by zero, which is how
    the tangent-space computations lift the point to higher jet orders: the
    point is the jet of a truncated power-series solution.
    """

    def __init__(self, system: EquationSystem, k: int, base=None, internal=None):
        if k < 0:
            raise ValueError("jet order must be non-negative")
        self.system = system
        self.k = k
        self.base: dict[str, Fraction] = {"t": Fraction(0), "x": Fraction(0), "y": Fraction(0)}
        for name, val in (base or {}).items():
            name = name if isinstance(name, str) else name.name
            if name not in self.base:
                raise ValueError(f"base coordinate must be t,x,y, got {name!r}")
            self.base[name] = Fraction(val)
        self.internal: dict[sp.Symbol, Fraction] = {}
        # (dependent, (nt, nx, ny)) -> value; principal entries are filled
        # by _solve_through, all orders <= _solved at a time
        self._values: dict[tuple[str, tuple[int, int, int]], Fraction] = {}
        self._solved = 1
        for key, val in (internal or {}).items():
            s = resolve_symbol(key)
            dep, idx = jet_info(s)  # KeyError -> not a jet symbol
            if idx.is_principal:
                raise ValueError(
                    f"{s} is principal; JetPoint stores internal coordinates only"
                )
            if idx.order > k:
                raise JetOrderError(f"{s} has order beyond k={k}")
            self.internal[s] = self._values[(dep, (idx.nt, idx.nx, idx.ny))] = Fraction(val)

    def value(self, key) -> Fraction:
        """Value of a base or jet coordinate (any order up to the hard cap)."""
        s = resolve_symbol(key)
        if s in BASE_SYMBOLS:
            return self.base[s.name]
        dep, idx = jet_info(s)
        if idx.is_principal:
            self._solve_through(idx.order)
        return self._coord(dep, (idx.nt, idx.nx, idx.ny))

    def _coord(self, dep: str, idx: tuple[int, int, int]) -> Fraction:
        got = self._values.get((dep, idx))
        if got is None:
            if idx[0] and idx[1]:
                raise AssertionError(f"{dep}_{idx} read before it was solved")
            return _ZERO
        return got

    def _solve_through(self, order: int) -> None:
        """Principal values of every order <= ``order``: D_sigma F_w = 0 is
        solved for w_{sigma+tx}, order by order and by ascending t-count
        within an order, with D_sigma of each term of F_w evaluated by
        Leibniz's rule on the values already known."""
        if order <= self._solved:
            return
        for idx in principal_indices(order):
            if idx.order <= self._solved:
                continue
            sigma = (idx.nt - 1, idx.nx - 1, idx.ny)
            shifts = [
                (tau, prod(comb(n, m) for n, m in zip(sigma, tau)))
                for tau in itertools.product(*(range(n + 1) for n in sigma))
            ]
            for dep in DEPENDENTS:
                lead, terms = self.system._recurrences[dep]
                rest = _ZERO
                for coef, factors in terms:
                    if len(factors) == 1:
                        (d, a), = factors
                        rest += coef * self._coord(d, _shift(a, sigma))
                        continue
                    (d1, a), (d2, b) = factors
                    rest += coef * sum(
                        binom
                        * self._coord(d1, _shift(a, tau))
                        * self._coord(d2, _shift(b, _minus(sigma, tau)))
                        for tau, binom in shifts
                    )
                self._values[(dep, (idx.nt, idx.nx, idx.ny))] = -rest / lead
        self._solved = order

    def eval(self, e) -> Fraction:
        """Exact evaluation of an internal-coordinate expression at the point."""
        e = sp.sympify(e)
        rep = {}
        for s in e.free_symbols:
            if s in BASE_SYMBOLS:
                q = self.base[s.name]
            elif is_jet_symbol(s):
                q = self.value(s)
            else:
                raise PointNotOnEquationError(
                    f"cannot evaluate symbol {s} at a jet point"
                )
            rep[s] = sp.Rational(q.numerator, q.denominator)
        val = e.xreplace(rep)
        if not val.is_Rational:
            raise PointNotOnEquationError(f"non-rational value {val}")
        return as_fraction(val)
