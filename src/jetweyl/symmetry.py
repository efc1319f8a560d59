"""Symmetry algebra of the dispersionless system and its group action.

Five one-function families of point fields span the symmetry algebra.  Each
family X_i(p) is linear in its parameter p(t) and in p' and p'', and is
written once, as the table ``_FAMILIES`` of the coefficients of (p, p',
p'').  Every use reads the table: :func:`generator` builds X_i(p), the base
part of a :class:`ShapeField` is the sum of the families' base parts, the
table is converted into a jet ring once (:func:`_ring_rows`), the
commutation table is verified on its coefficients in one jet ring, and the
orbit vectors compose the table's generating sections with a point's
Taylor series.  The ansatz metric and covector are DSL text in
:mod:`jetweyl.jets`, read into a jet ring once (``jets._ansatz``).

This module also checks the defining symmetry property against the
equations, lifts shape-preserving base fields to the total space, defines
the closed-form pseudogroup elements that act on sections
(``geometry.Solution.transform``), and measures jet-space orbit dimensions
by exact rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod

import sympy as sp

from .counts import dims
from .errors import ExprError, JetOrderError, LiftError, PseudogroupError
from .exprcore import (
    BASE_SYMBOLS,
    DEPENDENTS,
    MAX_JET_ORDER,
    T,
    X,
    Y,
    formal,
    formal_shift,
    is_formal_symbol,
    jet,
    jet_info,
    to_text,
    validate_kernel,
)
from .fields import PointField, ProlongedField, _bracket_in, _phi_in, _point_apply
from .jets import (
    EquationSystem,
    _ansatz,
    JetPoint,
    _clear_denominators,
    _equations,
    _jet_ring,
    _poly_sums,
    internal_indices,
)
from .trees import _ring_for
from .linalg import _eliminate, rank

__all__ = [
    "generator",
    "GRADES",
    "table_cell_text",
    "CellReport",
    "verify_commutation_table",
    "check_symmetry",
    "grading_check",
    "ShapeField",
    "LiftResult",
    "lift_shape_field",
    "PseudogroupElement",
    "orbit_dimension",
    "orbit_spanning_count",
    "orbit_expected_dimension",
]

_U = jet("u")
_V = jet("v")

# grading weights of the five families; brackets must land in weight i+j
GRADES = {1: 2, 2: 1, 3: 1, 4: 0, 5: 0}


# The five families as one table: X_i(p) has the components a^t, a^x, a^y,
# f^u, f^v in this order, each c0*p + c1*p' + c2*p'' with the row
# (c0, c1, c2) of polynomials in t, x, y, u, v.
_FAMILIES = {
    1: ((0, 0, 0), (1, 0, 0), (0, 0, 0), (0, 0, 0), (0, 1, 0)),
    2: ((0, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 0)),
    3: ((0, 0, 0), (Y, 0, 0), (0, 0, 0), (-2, 0, 0), (_U, Y, 0)),
    4: ((1, 0, 0), (0, 0, 0), (0, Y / 2, 0), (0, -_U / 2, Y / 2), (0, -_V, 0)),
    5: (
        (0, 0, 0),
        (2 * X, Y**2, 0),
        (Y, 0, 0),
        (_U, -3 * Y, 0),
        (2 * _V, 2 * X + 2 * Y * _U, Y**2),
    ),
}


@lru_cache(maxsize=None)
def _ring_rows(rows: tuple) -> tuple:
    """A family's rows of ``_FAMILIES`` as elements of ``_jet_ring(0)``,
    converted once per distinct rows; every other ring takes the entries
    by ``_JetRing.embed``."""
    ring = _jet_ring(0)
    return tuple(tuple(map(ring.convert, row)) for row in rows)


def _parameter(p) -> sp.Expr:
    """Coerce a family parameter: a formal-function name or a closed form
    in t (constants included).  Anything involving x, y or jet coordinates
    is refused with ``ExprError``."""
    if isinstance(p, str):
        return formal(p)
    e = sp.sympify(p)
    for s in e.free_symbols:
        if s == T or is_formal_symbol(s):
            continue
        raise ExprError(f"family parameter must depend on t only, got {s}")
    return validate_kernel(e)


def _derivatives(p, n: int) -> list[sp.Expr]:
    """A family parameter and its first n t-derivatives.  A rational
    constant has zeros, a bare formal function a^(m) has a^(m+1),
    a^(m+2), ... (``formal_shift``); any other parameter is differentiated
    in one jet ring.  The ring holds rational functions with rational
    coefficients only, so any other closed form (such as t^(1/2)) is
    refused with ``ExprError``."""
    p = _parameter(p)
    if p.is_Rational:
        return [p] + [sp.Integer(0)] * n
    out = [p]
    if is_formal_symbol(p):
        for _ in range(n):
            out.append(formal_shift(out[-1]))
        return out
    ring = _ring_for(0, (p,), derivatives=n)
    try:
        f = ring.convert(p)
    except ExprError:
        raise ExprError(
            f"family parameter must be a rational function of t over QQ, got {to_text(p)}"
        ) from None
    for _ in range(n):
        f = ring.total(f, "t")
        out.append(ring.to_expr(f))
    return out


def generator(family: int, parameter) -> PointField:
    """X_family(parameter): each component is c0*p + c1*p' + c2*p'' with
    its row of the table."""
    rows = _FAMILIES.get(family)
    if rows is None:
        raise ValueError(f"family must be 1..5, got {family}")
    p = _derivatives(parameter, 2)
    return PointField(*(sum(c * q for c, q in zip(row, p)) for row in rows))


# ---------------------------------------------------------------------------
# commutation table
#
# Upper-triangular cells (i <= j); each entry is a tuple of
# (result family, parameter as a function of the two inputs f, g and the
# t-derivative ``dot`` that acts on them).  Cells with i > j follow by
# antisymmetry with the inputs swapped.

_TABLE: dict[tuple[int, int], tuple] = {
    (1, 1): (),
    (1, 2): (),
    (1, 3): (),
    (1, 4): ((1, lambda f, g, dot: -g * dot(f)),),
    (1, 5): ((1, lambda f, g, dot: 2 * f * g),),
    (2, 2): (),
    (2, 3): ((1, lambda f, g, dot: f * g),),
    (2, 4): ((2, lambda f, g, dot: f * dot(g) / 2 - g * dot(f)),),
    (2, 5): ((2, lambda f, g, dot: f * g), (3, lambda f, g, dot: 2 * f * dot(g))),
    (3, 3): (),
    (3, 4): ((3, lambda f, g, dot: -g * dot(f) - f * dot(g) / 2),),
    (3, 5): ((3, lambda f, g, dot: f * g),),
    (4, 4): ((4, lambda f, g, dot: f * dot(g) - g * dot(f)),),
    (4, 5): ((5, lambda f, g, dot: f * dot(g)),),
    (5, 5): (),
}


def _cell(i: int, j: int, f, g, dot) -> list[tuple[int, object]]:
    if i <= j:
        return [(fam, make(f, g, dot)) for fam, make in _TABLE[(i, j)]]
    return [(fam, -p) for fam, p in _cell(j, i, g, f, dot)]


def table_cell_text(i: int, j: int, f="f", g="g") -> str:
    f, g = _parameter(f), _parameter(g)
    parts = [
        f"X{fam}({to_text(param)})"
        for fam, param in _cell(i, j, f, g, lambda p: _derivatives(p, 1)[1])
    ]
    return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class CellReport:
    i: int
    j: int
    ok: bool
    residual: PointField


def verify_commutation_table() -> list[CellReport]:
    """Check all 25 cells [X_i(f), X_j(g)] against the table, with formal
    parameters f, g.  Failures appear as report entries, never exceptions.

    The table's coefficients are embedded from their ring form
    (:func:`_ring_rows`) into one jet ring, where X_i(p) = c0*p +
    c1*D_t p + c2*D_t^2 p is built for the parameters and for the
    tabulated right-hand sides, the brackets are taken and the residuals
    are zero-tested."""
    f, g = formal("f"), formal("g")
    # the brackets of second-order fields reach the third derivatives
    ring = _ring_for(0, (formal("f", 2), formal("g", 2)), derivatives=1)
    zero = ring.field.zero
    slopes = {
        fam: [[ring.embed(c) for c in row] for row in _ring_rows(rows)]
        for fam, rows in _FAMILIES.items()
    }

    def dot(p):
        return ring.total(p, "t")

    def family(fam: int, p) -> list:
        derivatives = (p, dot(p), dot(dot(p)))
        return [sum((s * q for s, q in zip(row, derivatives) if s), zero) for row in slopes[fam]]

    inring = {(i, w): family(i, ring.gen(p)) for i in _FAMILIES for w, p in (("f", f), ("g", g))}
    report = []
    for i in range(1, 6):
        for j in range(1, 6):
            residual = _bracket_in(ring, inring[(i, "f")], inring[(j, "g")])
            for fam, p in _cell(i, j, ring.gen(f), ring.gen(g), dot):
                residual = [b - r for b, r in zip(residual, family(fam, p))]
            report.append(
                CellReport(i, j, not any(residual), PointField(*map(ring.to_expr, residual)))
            )
    return report


def check_symmetry(field: PointField, system: EquationSystem | None = None):
    """True when the prolonged field is tangent to the equation submanifold;
    otherwise the pair of nonzero reduced residuals.  ``system`` is ignored
    (the rings hold the one system); it stays for callers that pass it,
    such as the benchmark workloads."""
    prolonged = ProlongedField(field, 2)
    ring = prolonged._ring()
    reduced = [ring.reduce(prolonged._apply_in(ring, ring.embed(F))) for F in _equations()]
    if not any(reduced):
        return True
    return tuple(map(ring.to_expr, reduced))


def grading_check() -> bool:
    """Verify the weight decomposition and perfectness off the table.

    Families carry weights 2, 1, 1, 0, 0; every verified bracket must land
    in the weight-sum component (an empty cell counts as any weight), and
    every family must occur in some bracket so the algebra equals its own
    derived algebra.
    """
    report = verify_commutation_table()
    if not all(cell.ok for cell in report):
        return False
    seen = set()
    for (i, j), entries in _TABLE.items():
        for fam, _ in entries:
            if GRADES[fam] != GRADES[i] + GRADES[j]:
                return False
            seen.add(fam)
    return seen == set(GRADES)


# ---------------------------------------------------------------------------
# shape-preserving fields and their lift


@dataclass(frozen=True)
class ShapeField:
    """Base vector field preserving the metric/covector ansatz shape: the
    base part of X1(a) + X2(b) + X3(c) + X4(d) + X5(e) for five functions
    of t."""

    a: object = 0
    b: object = 0
    c: object = 0
    d: object = 0
    e: object = 0

    def base_field(self) -> PointField:
        params = (self.a, self.b, self.c, self.d, self.e)
        bases = [generator(i, p).components()[:3] for i, p in enumerate(params, start=1)]
        return PointField(*map(sum, zip(*bases)))


@dataclass(frozen=True)
class LiftResult:
    field: PointField
    conformal: sp.Expr


def lift_shape_field(shape: ShapeField | PointField) -> LiftResult:
    """Lift a base field to the total space by conformal invariance.

    The fiber coefficients A, B and the conformal factor chi are the unique
    solution of L_{X + A d_u + B d_v} g = chi * g for the ansatz metric g;
    the six component equations are pointwise linear in (A, B, chi) and
    are solved by exact elimination in the jet ring.
    """
    base = shape.base_field() if isinstance(shape, ShapeField) else shape
    ring = _ring_for(0, base.components(), derivatives=1)
    comps = [ring.convert(c) for c in base.components()]
    if comps[3] or comps[4]:
        raise LiftError("shape field must have no fiber components")
    g, _ = _ansatz()
    G = [[ring.embed(e) for e in row] for row in g]
    zero, one = ring.field.zero, ring.field.one

    def d(f, n):
        # the partial derivative along t, x, y, u or v (n = 0..4)
        return _point_apply(ring, [one if m == n else zero for m in range(5)], f)

    rows = []
    for i in range(3):
        for j in range(i, 3):
            known = sum(
                (
                    comps[k] * d(G[i][j], k)
                    + G[k][j] * d(comps[k], i)
                    + G[i][k] * d(comps[k], j)
                    for k in range(3)
                ),
                zero,
            )
            rows.append([d(G[i][j], 3), d(G[i][j], 4), -G[i][j], -known])
    A, B, chi = map(ring.to_expr, _solve_lift(rows))
    return LiftResult(PointField(at=base.at, ax=base.ax, ay=base.ay, fu=A, fv=B), chi)


def _solve_lift(rows: list) -> list:
    """The unique solution (A, B, chi) of the rows [a, b, c, r] meaning
    a*A + b*B + c*chi = r, over a field; ``LiftError`` when a component
    is left over (no solution) or the system is underdetermined (more than
    one solution)."""
    pivots = _eliminate(rows)
    if 3 in pivots:
        raise LiftError(
            "lift solution does not satisfy all components: the system has no solution"
        )
    if len(pivots) < 3:
        raise LiftError(
            f"lift system is underdetermined (rank {len(pivots)} in A, B, chi): "
            "it has more than one solution"
        )
    return [row[3] for row in rows[:3]]


# ---------------------------------------------------------------------------
# pseudogroup elements


def _require_positive_rational(e: sp.Expr, what: str) -> None:
    """Refuse unless e is a rational function of t without a real zero or
    pole and positive at t = 0, hence positive on the whole line."""
    num, den = sp.fraction(sp.together(e))
    try:
        polys = [sp.Poly(p, T, domain="QQ") for p in (num, den)]
    except (sp.PolynomialError, sp.polys.polyerrors.CoercionFailed):
        raise PseudogroupError(
            f"{what} must be a rational function of t, got {to_text(e)}"
        ) from None
    for p, part in zip(polys, ("zero", "pole")):
        if p.is_zero or p.count_roots() > 0:
            raise PseudogroupError(f"{what} has a real {part}: {to_text(e)}")
    if not e.subs(T, 0) > 0:
        raise PseudogroupError(f"{what} must be positive; at t=0 it is {e.subs(T, 0)}")


def _affine(d: sp.Expr) -> tuple[sp.Rational, sp.Rational]:
    """(alpha, beta) of a time map D = alpha*t + beta over QQ with alpha >
    0; any other D is refused.

    The moves compose sections with D^-1 in the section's field, which
    holds rational functions of t only.  A rational D has a rational
    inverse only when it is a Moebius map (degrees multiply under
    composition), and one without a real pole is affine; every other
    inverse is a radical."""
    try:
        poly = sp.Poly(d, T, domain="QQ")
    except (sp.PolynomialError, sp.polys.polyerrors.CoercionFailed):
        poly = None
    if poly is None or poly.degree() != 1:
        raise PseudogroupError(
            "the time map D must be affine, alpha*t + beta over QQ with alpha > 0; "
            f"got {to_text(d)}"
        )
    alpha, beta = poly.all_coeffs()
    if not alpha > 0:
        raise PseudogroupError(f"D' (time dilation) must be positive; at t=0 it is {alpha}")
    return alpha, beta


@dataclass(frozen=True)
class PseudogroupElement:
    """One closed-form element of the connected symmetry pseudogroup.

    ``d`` is the new time D(t) = alpha*t + beta (alpha > 0, rational
    coefficients); ``a``..``ee`` are functions of t, and ee (the scaling)
    must stay positive.  The inverse time map ``dinv`` is derived from D.
    Every check is exact: D is affine, and ee is a rational function of t
    without a real zero or pole (real-root counting), positive at t = 0.
    """

    d: sp.Expr = T
    a: sp.Expr = sp.Integer(0)
    b: sp.Expr = sp.Integer(0)
    c: sp.Expr = sp.Integer(0)
    ee: sp.Expr = sp.Integer(1)
    # (alpha, beta) of D, set once from d
    _alpha_beta: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("d", "a", "b", "c", "ee"):
            e = sp.sympify(getattr(self, name))
            for s in e.free_symbols:
                if s != T:
                    raise PseudogroupError(
                        f"{name} must be a closed form in t, found symbol {s}"
                    )
            object.__setattr__(self, name, e)
        object.__setattr__(self, "_alpha_beta", _affine(self.d))
        _require_positive_rational(self.ee, "ee (scaling)")

    @classmethod
    def make(cls, d=T, a=0, b=0, c=0, ee=1) -> "PseudogroupElement":
        """The element with these data; the same as the constructor."""
        return cls(d=d, a=a, b=b, c=c, ee=ee)

    @property
    def dinv(self) -> sp.Expr:
        """D^-1(t) = t/alpha - beta/alpha."""
        alpha, beta = self._alpha_beta
        return T / alpha - beta / alpha


# ---------------------------------------------------------------------------
# orbit dimensions


def orbit_spanning_count(k: int) -> int:
    """Size of the spanning family used for the order-k orbit: polynomial
    parameters t^m/m! with m <= k+1 for families 1, 2, 4 and m <= k for
    families 3, 5."""
    return 5 * k + 8


def orbit_expected_dimension(k: int) -> int:
    """Generic orbit dimension at order k: the spanning count, capped by
    the dimension of the equation manifold (the cap binds only at k=1)."""
    return min(orbit_spanning_count(k), dims(k).dim_equation)


# a truncated power series about the base point of a jet point:
# {(i, j, l): coefficient of (t-t0)^i (x-x0)^j (y-y0)^l}
_Series = dict


def _series_mul(a: _Series, b: _Series, degree: int) -> _Series:
    """The product through ``degree``, at the internal keys only (not both
    i and j positive)."""
    out: _Series = {}
    for (i, j, l), p in a.items():
        room = degree - i - j - l
        for (i2, j2, l2), q in b.items():
            if i2 + j2 + l2 <= room and not (i + i2 and j + j2):
                key = (i + i2, j + j2, l + l2)
                out[key] = out.get(key, 0) + p * q
    return out


# an integer polynomial in the generators of _jet_ring(1): {exponents: coefficient}
_Poly = dict


@lru_cache(maxsize=None)
def _family_terms(fam: int) -> tuple[tuple[tuple[int, _Poly, int], ...], ...]:
    """Family ``fam`` embedded from the table's ring form into
    ``_jet_ring(1)``, built once: for its base components (a^t, a^x, a^y)
    and generating section (phi_u, phi_v), the triples (j, numerator,
    denominator) of each nonzero coefficient of p^(j), a ring element with
    a constant integer denominator.
    phi_w is linear in the components, so its coefficient of p^(j) is the
    generating section of the table's column j."""
    ring = _jet_ring(1)
    columns = [[ring.embed(c) for c in column] for column in zip(*_ring_rows(_FAMILIES[fam]))]
    parts = [[column[n] for column in columns] for n in range(3)]
    parts += [[_phi_in(ring, column, dep) for column in columns] for dep in DEPENDENTS]
    return tuple(
        tuple((j, c.numer, *c.denom.values()) for j, c in enumerate(part) if c) for part in parts
    )


class _TaylorJet:
    """The jet point theta as a truncated power-series section, in integers.

    The Taylor polynomials of u and v about the base point (degree k+1,
    principal values included, read by key with no jet symbol) give,
    through degree k, series for the eleven generators (t, x, y, u, v,
    u_t, ..., v_y) of ``_jet_ring(1)``, the arguments of a generating
    section.  Composing a polynomial phi with them and reading off sigma! *
    coeff_sigma gives D_sigma phi at theta for every |sigma| <= k at once.
    The series keep the internal keys sigma only (not both t and x in
    sigma): :meth:`vectors` reads no other, and a key without t (or without
    x) is a sum of two such keys, so the internal coefficients of a product
    come from internal coefficients of its factors.
    The polynomials are the cached coefficients of :func:`_family_terms`,
    so a point builds no expression.

    theta gives its coordinates as integers over one denominator D
    (``JetPoint.integers``), and sigma! divides (k+1)! for |sigma| <= k+1,
    so the argument series are kept times L = D (k+1)!: they, the cached
    monomials (one of degree d is kept times L^d) and every product of
    series hold integers only.  A composed or parameter series comes with
    its denominator, and :meth:`vectors` makes one ``Fraction`` per
    component.
    """

    def __init__(self, theta: JetPoint, k: int):
        self.theta = theta
        self.k = k
        self.t0 = theta.base["t"]
        expos = [e for e in itertools.product(range(k + 2), repeat=3) if sum(e) <= k + 1]
        keys = (*"txy", *((dep, e) for dep in DEPENDENTS for e in expos))
        nums, den = theta.integers(keys)
        whole = factorial(k + 1)
        self.L = den * whole
        base = dict(zip("txy", nums))
        # dependent -> {sigma: L w_sigma / sigma!}
        taylor: dict[str, _Series] = {dep: {} for dep in DEPENDENTS}
        for (dep, e), n in zip(keys[3:], nums[3:]):
            taylor[dep][e] = n * (whole // prod(map(factorial, e)))
        # one series per generator of _jet_ring(1), in its order: the exponents
        # of the polynomials of _family_terms index them
        args: list[_Series] = []
        # dependent -> the places of the series of w_t, w_x, w_y in args
        places: dict[str, list[int]] = {dep: [0, 0, 0] for dep in DEPENDENTS}
        for s in _jet_ring(1).symbols:
            if s in BASE_SYMBOLS:
                unit = tuple(int(b == s) for b in BASE_SYMBOLS)
                args.append({(0, 0, 0): base[s.name] * whole, unit: self.L})
                continue
            dep, idx = jet_info(s)
            w = taylor[dep]
            if idx.order == 0:
                args.append({e: q for e, q in w.items() if sum(e) <= k})
                continue
            n = (idx.nt, idx.nx, idx.ny).index(1)
            places[dep][n] = len(args)
            args.append({
                tuple(e[m] - (m == n) for m in range(3)): e[n] * q for e, q in w.items() if e[n]
            })
        self.args = [{e: q for e, q in a.items() if not (e[0] and e[1])} for a in args]
        self._monomials: dict[tuple[int, ...], _Series] = {
            (0,) * len(self.args): {(0, 0, 0): 1}
        }
        # for the transport terms: the internal sigma with sigma!, and per
        # dependent the series of w_t, w_x, w_y, whose sigma coefficients are
        # L w_{sigma+t} / sigma!, L w_{sigma+x} / sigma!, L w_{sigma+y} / sigma!
        self.sigmas = [
            ((i.nt, i.nx, i.ny), prod(map(factorial, (i.nt, i.nx, i.ny))))
            for i in internal_indices(k)
        ]
        self.slopes = {dep: [self.args[m] for m in at] for dep, at in places.items()}

    def _monomial(self, expo: tuple[int, ...]) -> _Series:
        got = self._monomials.get(expo)
        if got is None:
            n = max(m for m, e in enumerate(expo) if e)
            lower = expo[:n] + (expo[n] - 1,) + expo[n + 1 :]
            got = _series_mul(self._monomial(lower), self.args[n], self.k)
            self._monomials[expo] = got
        return got

    def compose(self, poly: _Poly, d: int) -> tuple[_Series, int]:
        """phi(t, x, y, u, v, u_t, ..., v_y) = poly / d along the series
        section: an integer series and its denominator d L^top (see
        ``jets._clear_denominators``)."""
        terms, den = _clear_denominators(poly, self.L)
        out: _Series = {}
        for expo, c in terms:
            for key, q in self._monomial(expo).items():
                out[key] = out.get(key, 0) + c * q
        return out, d * den

    def parameter(self, n: int) -> tuple[_Series, int]:
        """The series of t^n/n! (zero for n < 0) in powers of t - t0, for
        t0 = a/b: the integer series a^(n-i) b^i C(n, i) over b^n n!."""
        if n < 0:
            return {}, 1
        a, b = self.t0.numerator, self.t0.denominator
        series = {(i, 0, 0): a ** (n - i) * b**i * comb(n, i) for i in range(min(n, self.k) + 1)}
        return series, b**n * factorial(n)

    def vectors(self, fam: int, mmax: int) -> list[list[Fraction]]:
        """The prolonged fields of family ``fam`` with the parameters t^m/m!,
        m = 0..mmax, at theta in internal coordinates of order <= k:
        (a^t, a^x, a^y) and, per internal sigma,
        D_sigma phi_w + a^t w_{sigma+t} + a^x w_{sigma+x} + a^y w_{sigma+y}.

        Every component is sum_j c_j f^(j) with the cached coefficients
        c_j; each c_j is composed with the series section once, and the
        parameter t^m/m! enters as the series of its derivatives.  The sums
        run in integers over one common denominator per component."""
        terms = _family_terms(fam)
        ring = _jet_ring(1)
        # a^t, a^x, a^y at theta: per coefficient of f^(j), its value over
        # its denominator
        base_parts = [
            [(j, v, den * d) for j, c, d in comp for v, den, _ in [_poly_sums(self.theta, ring, c)]]
            for comp in terms[:3]
        ]
        phi_parts = [[(j, *self.compose(c, d)) for j, c, d in comp] for comp in terms[3:]]
        out = []
        for m in range(mmax + 1):
            series = [self.parameter(m - j) for j in range(3)]
            # a^t, a^x, a^y over one denominator: sum_j c_j f^(j)(t0)
            base_terms = [
                [(v * series[j][0].get((0, 0, 0), 0), d * series[j][1]) for j, v, d in parts]
                for parts in base_parts
            ]
            bden = lcm(*(d for part in base_terms for _, d in part))
            base = [sum(n * (bden // d) for n, d in part) for part in base_terms]
            vec = [Fraction(n, bden) for n in base]
            for dep, parts in zip(DEPENDENTS, phi_parts):
                products = [
                    (_series_mul(s, series[j][0], self.k), den * series[j][1])
                    for j, s, den in parts
                ]
                pden = lcm(*(d for _, d in products))
                phi: _Series = {}
                for q, d in products:
                    for key, c in q.items():
                        phi[key] = phi.get(key, 0) + c * (pden // d)
                # D_sigma phi_w = sigma! phi_sigma / pden, and the transport
                # terms are sigma! sum_a base_a slope_a[sigma] / (bden L)
                for sigma, weight in self.sigmas:
                    moved = sum(a * slope[sigma] for a, slope in zip(base, self.slopes[dep]))
                    num = (phi.get(sigma, 0) * bden * self.L + pden * moved) * weight
                    vec.append(Fraction(num, pden * bden * self.L))
            out.append(vec)
        return out


def _orbit_vectors(k: int, theta: JetPoint) -> list[list[Fraction]]:
    """The spanning fields of the order-k orbit evaluated at theta."""
    if k + 1 > MAX_JET_ORDER:
        raise JetOrderError(
            f"orbit vectors at order {k} need order-{k + 1} coordinates "
            f"past the hard cap {MAX_JET_ORDER}"
        )
    series = _TaylorJet(theta, k)
    vectors = []
    for fam in (1, 2, 3, 4, 5):
        vectors += series.vectors(fam, k + 1 if fam in (1, 2, 4) else k)
    assert len(vectors) == orbit_spanning_count(k)
    return vectors


def orbit_dimension(k: int, theta: JetPoint) -> int:
    """Dimension of the symmetry orbit through theta inside the order-k
    equation submanifold: exact rank of the evaluated spanning fields in
    internal coordinates."""
    return rank(_orbit_vectors(k, theta))
