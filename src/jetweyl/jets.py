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
:meth:`EquationSystem.reduce` performs that substitution symbolically;
the symmetry and invariance checks rely on it.  A :class:`JetPoint` solves
the same triangular system in rational numbers.

Counting internal multi-indices (a, b, c) with a*b = 0 and a+b+c <= k gives
(k+1)^2 per dependent variable, whence

    dim (k-jet space)            = 3 + 2*C(k+3, 3),
    dim (equation submanifold_k) = 3 + 2*(k+1)^2   for k >= 2,

with the low orders 5 (k=0) and 11 (k=1) where no equation constrains yet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Iterable, Mapping

import sympy as sp

from .errors import JetOrderError, PointNotOnEquationError
from .exprcore import (
    BASE_SYMBOLS,
    MAX_JET_ORDER,
    DEPENDENTS,
    MultiIndex,
    T,
    X,
    Y,
    is_jet_symbol,
    jet,
    jet_info,
    jet_order,
    normalize,
    partial,
    resolve_symbol,
)

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


def total_derivative(e, direction, order_cap: int | None = None) -> sp.Expr:
    """Total derivative D_i in coordinates: base partial plus jet transport.

    D_i e = d_{x^i} e + sum_sigma (u_{sigma+i} * de/du_sigma + ...).

    Raises the jet order by at most one; ``order_cap`` (if given) bounds the
    order of the result, erroring out instead of creating deeper jets.
    """
    e = sp.sympify(e)
    dname = direction if isinstance(direction, str) else direction.name
    if dname not in _DIRECTIONS:
        raise ValueError(f"direction must be one of t,x,y, got {direction!r}")
    cap = MAX_JET_ORDER if order_cap is None else min(order_cap, MAX_JET_ORDER)
    out = partial(e, dname)
    for s in e.free_symbols:
        if not is_jet_symbol(s):
            continue
        dep, idx = jet_info(s)
        coeff = sp.diff(e, s)
        if coeff == 0:
            continue
        if idx.order + 1 > cap:
            raise JetOrderError(
                f"D_{dname} would create an order-{idx.order + 1} jet "
                f"coordinate past the cap {cap}"
            )
        out += jet(dep, idx.bump(dname)) * coeff
    return out


def total_derivative_multi(e, index, order_cap: int | None = None) -> sp.Expr:
    """Iterated total derivative D_sigma, applied in the fixed order
    t-then-x-then-y (the result is order-independent since [D_i, D_j] = 0)."""
    idx = index if isinstance(index, MultiIndex) else MultiIndex(*index)
    out = sp.sympify(e)
    for dname, count in (("t", idx.nt), ("x", idx.nx), ("y", idx.ny)):
        for _ in range(count):
            out = total_derivative(out, dname, order_cap=order_cap)
    return out


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

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.dim_jet_space, self.dim_equation, self.internal_per_dependent)


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

    Immutable after construction apart from the memoized symbolic
    principal-coordinate table behind :meth:`reduce`.
    """

    def __init__(self):
        u, v = jet("u"), jet("v")
        u_t, u_x, u_y = jet("u", "t"), jet("u", "x"), jet("u", "y")
        v_t, v_x, v_y = jet("v", "t"), jet("v", "x"), jet("v", "y")
        self.F1 = sp.expand(
            total_derivative(u_t + u * u_y + v * u_x, "x")
            - total_derivative(u_y, "y")
        )
        self.F2 = sp.expand(
            total_derivative(v_t + v * v_x - u * v_y, "x")
            - total_derivative(v_y - 2 * u * v_x, "y")
        )
        self.equations = (self.F1, self.F2)
        self._table: dict[sp.Symbol, sp.Expr] = {}
        self._R = self.principal_solve()
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
                c = Fraction(int(coef.p), int(coef.q))
                continue
            if len(factors) > 2 or any(ix[0] for _, ix in factors):
                raise AssertionError(f"{lead} does not lead {F}")
            terms.append((Fraction(int(coef.p), int(coef.q)), tuple(factors)))
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
        sym = jet(dependent, index)
        cached = self._table.get(sym)
        if cached is not None:
            return cached
        if index == MultiIndex(1, 1, 0):
            value = self._R[DEPENDENTS.index(dependent)]
        elif index.ny > 0:
            parent = self.principal_expr(dependent, index.drop("y"))
            value = self._reduce_raw(total_derivative(parent, "y"))
        elif index.nx > 1:
            parent = self.principal_expr(dependent, index.drop("x"))
            value = self._reduce_raw(total_derivative(parent, "x"))
        else:
            parent = self.principal_expr(dependent, index.drop("t"))
            value = self._reduce_raw(total_derivative(parent, "t"))
        value = sp.expand(value)
        self._table[sym] = value
        return value

    def _reduce_raw(self, e: sp.Expr) -> sp.Expr:
        """Substitute every principal coordinate; table values are already
        internal-only, so one simultaneous pass suffices."""
        psyms = [
            s
            for s in e.free_symbols
            if is_jet_symbol(s) and jet_info(s)[1].is_principal
        ]
        if not psyms:
            return e
        # highest order first is automatic: building a table entry only
        # recurses into strictly simpler entries (see principal_expr)
        rep = {s: self.principal_expr(*jet_info(s)) for s in psyms}
        out = e.xreplace(rep)
        assert not any(
            is_jet_symbol(s) and jet_info(s)[1].is_principal
            for s in out.free_symbols
        )
        return out

    def reduce(self, e, k: int | None = None) -> sp.Expr:
        """Restriction to the order-k equation submanifold in internal
        coordinates.  ``k`` defaults to the expression's own jet order and
        may not exceed the hard cap; high orders are slow, the table grows
        about sevenfold per order."""
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
        num, den = sp.fraction(sp.together(e))
        rnum = self._reduce_raw(sp.expand(num))
        rden = self._reduce_raw(sp.expand(den))
        return normalize(rnum / rden)

    def section_residuals(self, u_expr, v_expr) -> tuple[sp.Expr, sp.Expr]:
        """The two equation residuals of a section u = u(t,x,y), v = v(t,x,y).

        Jet coordinates in F1, F2 are replaced by the corresponding
        derivatives of the section; both residuals vanish exactly when the
        section solves the system.
        """
        exprs = {"u": sp.sympify(u_expr), "v": sp.sympify(v_expr)}
        cache: dict[tuple[str, MultiIndex], sp.Expr] = {}

        def derivative(dep: str, idx: MultiIndex) -> sp.Expr:
            got = cache.get((dep, idx))
            if got is not None:
                return got
            if idx.order == 0:
                val = exprs[dep]
            else:
                d = "y" if idx.ny else ("x" if idx.nx else "t")
                val = partial(derivative(dep, idx.drop(d)), d)
            cache[(dep, idx)] = val
            return val

        out = []
        for F in self.equations:
            rep = {
                s: derivative(*jet_info(s))
                for s in F.free_symbols
                if is_jet_symbol(s)
            }
            out.append(normalize(F.xreplace(rep)))
        return tuple(out)

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
            if derived != Fraction(int(claimed.p), int(claimed.q)):
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
            val = sp.nsimplify(val, rational=True)
        if not val.is_Rational:
            raise PointNotOnEquationError(f"non-rational value {val}")
        return Fraction(int(val.p), int(val.q))
