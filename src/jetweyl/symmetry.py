"""Symmetry algebra of the dispersionless system and its group action.

Five one-function families of point fields span the symmetry algebra.  This
module builds them, verifies their commutation table, checks the defining
symmetry property against the equations, lifts shape-preserving base fields
to the total space, defines the closed-form pseudogroup elements that act
on sections (``geometry.Solution.transform``), and measures jet-space orbit
dimensions by exact rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import sympy as sp

from .counts import dims
from .errors import ExprError, JetOrderError, LiftError, PseudogroupError
from .exprcore import (
    MAX_JET_ORDER,
    T,
    X,
    Y,
    formal,
    is_formal_symbol,
    jet,
    to_text,
    validate_kernel,
)
from .fields import PointField, _bracket_in, _point_apply, generating_section, prolong
from .jets import EquationSystem, JetPoint, _ring_for, internal_indices, ms_system
from .linalg import _eliminate, as_fraction, rank

__all__ = [
    "X1",
    "X2",
    "X3",
    "X4",
    "X5",
    "generator",
    "GRADES",
    "table_cell_text",
    "CellReport",
    "verify_commutation_table",
    "check_symmetry",
    "grading_check",
    "ShapeField",
    "ansatz_metric",
    "ansatz_covector",
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


def _parameter(p) -> sp.Expr:
    """Coerce a family parameter: a formal-function name or a closed form
    in t (constants included).  Anything involving x, y or jet coordinates
    is rejected, and so is a closed form that is not a rational function
    over QQ (such as t^(1/2)): the symmetry checks differentiate the
    parameter in the jet ring, which holds no such functions."""
    if isinstance(p, str):
        return formal(p)
    e = sp.sympify(p)
    for s in e.free_symbols:
        if s == T or is_formal_symbol(s):
            continue
        raise ValueError(f"family parameter must depend on t only, got {s}")
    e = validate_kernel(e)
    try:
        _ring_for(0, (e,)).convert(e)
    except ExprError:
        raise ExprError(
            f"family parameter must be a rational function of t over QQ, got {to_text(e)}"
        ) from None
    return e


def _dot(p: sp.Expr, n: int = 1) -> sp.Expr:
    """The n-th t-derivative of a parameter, taken in the jet ring."""
    ring = _ring_for(0, (p,), derivatives=n)
    f = ring.convert(p)
    for _ in range(n):
        f = ring.total(f, "t")
    return ring.to_expr(f)


def X1(a) -> PointField:
    a = _parameter(a)
    return PointField(ax=a, fv=_dot(a))


def X2(b) -> PointField:
    b = _parameter(b)
    return PointField(ay=b, fu=_dot(b))


def X3(c) -> PointField:
    c = _parameter(c)
    return PointField(ax=Y * c, fu=-2 * c, fv=_U * c + Y * _dot(c))


def X4(d) -> PointField:
    d = _parameter(d)
    return PointField(
        at=d,
        ay=_dot(d) * Y / 2,
        fu=(Y * _dot(d, 2) - _U * _dot(d)) / 2,
        fv=-_dot(d) * _V,
    )


def X5(e) -> PointField:
    e = _parameter(e)
    return PointField(
        ax=Y**2 * _dot(e) + 2 * X * e,
        ay=Y * e,
        fu=_U * e - 3 * Y * _dot(e),
        fv=Y**2 * _dot(e, 2) + 2 * Y * _U * _dot(e) + 2 * _V * e + 2 * X * _dot(e),
    )


_FAMILY = {1: X1, 2: X2, 3: X3, 4: X4, 5: X5}


def generator(family: int, parameter) -> PointField:
    if family not in _FAMILY:
        raise ValueError(f"family must be 1..5, got {family}")
    return _FAMILY[family](parameter)


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
        f"X{fam}({to_text(param)})" for fam, param in _cell(i, j, f, g, _dot)
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

    The ten fields X_i(f), X_i(g) are converted once into one jet ring,
    where the brackets are taken, the tabulated right-hand sides are built
    and the residuals are zero-tested.  Every family is linear in its
    parameter and the parameter's first two t-derivatives, so for a ring
    element p, X_i(p) = sum_j (dX_i(f)/df^(j)) * D_t^j p."""
    f, g = formal("f"), formal("g")
    fields = {(i, w): generator(i, p) for i in range(1, 6) for w, p in (("f", f), ("g", g))}
    ring = _ring_for(0, [c for fld in fields.values() for c in fld.components()], derivatives=1)
    inring = {key: [ring.convert(c) for c in fld.components()] for key, fld in fields.items()}
    zero = ring.field.zero
    # per family, the components' slopes dX_i(f)/df^(j), j = 0, 1, 2
    slopes = {
        fam: [[c.diff(ring.gen(formal("f", j))) for j in range(3)] for c in inring[(fam, "f")]]
        for fam in range(1, 6)
    }

    def dot(p):
        return ring.total(p, "t")

    def family(fam: int, p) -> list:
        rows = slopes[fam]
        derivatives = [p]
        for _ in range(max(j for row in rows for j, s in enumerate(row) if s)):
            derivatives.append(dot(derivatives[-1]))
        return [sum((s * q for s, q in zip(row, derivatives) if s), zero) for row in rows]

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
    otherwise the pair of nonzero reduced residuals."""
    system = system or ms_system()
    prolonged = prolong(field, 2)
    reduced = []
    for F in system.equations:
        ring, value = prolonged._applied(F)
        reduced.append((ring, ring.reduce(value)))
    if not any(r for _, r in reduced):
        return True
    return tuple(ring.to_expr(r) for ring, r in reduced)


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
    """Base vector field preserving the metric/covector ansatz shape.

    Five function-of-t parameters; the expanded field is
    d*d_t + (a + y*c + 2x*e + y^2*e')*d_x + (b + y*d'/2 + y*e)*d_y.
    """

    a: object = 0
    b: object = 0
    c: object = 0
    d: object = 0
    e: object = 0

    def params(self) -> tuple[sp.Expr, ...]:
        return tuple(_parameter(p) for p in (self.a, self.b, self.c, self.d, self.e))

    def base_field(self) -> PointField:
        a, b, c, d, e = self.params()
        return PointField(
            at=d,
            ax=a + Y * c + 2 * X * e + Y**2 * _dot(e),
            ay=b + _dot(d) * Y / 2 + Y * e,
        )


def ansatz_metric(u, v) -> sp.Matrix:
    """The ansatz metric in coordinates (t, x, y):
    g = -(u^2 + 4v) dt^2 + 4 dt dx + 2u dt dy - dy^2."""
    return sp.Matrix(
        [
            [-(u**2) - 4 * v, 2, u],
            [2, 0, 0],
            [u, 0, -1],
        ]
    )


def ansatz_covector(u, u_x, u_y, v_x) -> sp.Matrix:
    """The ansatz covector as a (dt, dx, dy) column:
    omega = (u*u_x + 2*u_y + 4*v_x) dt - u_x dy."""
    return sp.Matrix([u * u_x + 2 * u_y + 4 * v_x, 0, -u_x])


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
    g = ansatz_metric(_U, _V)
    ring = _ring_for(0, (*base.components(), *g), derivatives=1)
    comps = [ring.convert(c) for c in base.components()]
    if comps[3] or comps[4]:
        raise LiftError("shape field must have no fiber components")
    G = [[ring.convert(g[i, j]) for j in range(3)] for i in range(3)]
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
    must stay positive.  The inverse time map ``dinv`` and the positive
    square root ``root`` of D' = alpha are derived from D.  Every check is
    exact: D is affine, and ee is a rational function of t without a real
    zero or pole (real-root counting), positive at t = 0.
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

    @property
    def root(self) -> sp.Expr:
        """sqrt(alpha), the positive square root of D'."""
        return sp.sqrt(self._alpha_beta[0])


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
_ZERO = Fraction(0)


def _series_mul(a: _Series, b: _Series, degree: int) -> _Series:
    out: _Series = {}
    for (i, j, l), p in a.items():
        room = degree - i - j - l
        for (i2, j2, l2), q in b.items():
            if i2 + j2 + l2 <= room:
                key = (i + i2, j + j2, l + l2)
                out[key] = out.get(key, 0) + p * q
    return out


def _section_arguments() -> tuple[sp.Symbol, ...]:
    """The eleven arguments (t, x, y, u, u_t, u_x, u_y, v, v_t, v_x, v_y)
    of a generating section."""
    return (T, X, Y) + tuple(
        jet(dep, d) for dep in ("u", "v") for d in ((0, 0, 0), "t", "x", "y")
    )


# a polynomial in the eleven section arguments: {exponents: coefficient}
_Poly = dict


def _by_parameter(e: sp.Expr) -> tuple[tuple[int, _Poly], ...]:
    """e, linear in the formal parameter f and its derivatives f', f'', as
    the pairs (j, coefficient of f^(j)), each coefficient a polynomial in
    the section arguments; ``ValueError`` for any other e."""
    params = tuple(formal("f", j) for j in range(3))
    try:
        poly = sp.Poly(e, *_section_arguments(), *params, domain="QQ")
    except (sp.PolynomialError, sp.polys.polyerrors.CoercionFailed) as exc:
        raise ValueError(
            f"orbit vectors need generating sections polynomial in the jet "
            f"arguments, got {e}"
        ) from exc
    out: dict[int, _Poly] = {}
    for expo, coef in poly.terms():
        if not coef:
            continue  # the zero polynomial's one term
        powers = expo[-3:]
        if sum(powers) != 1:
            raise ValueError(f"orbit vectors need fields linear in the parameter, got {e}")
        out.setdefault(powers.index(1), {})[expo[:-3]] = as_fraction(coef)
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _family_terms(fam: int) -> tuple[tuple[tuple[int, _Poly], ...], ...]:
    """Family ``fam`` with the formal parameter f, built once: its base
    components (a^t, a^x, a^y) and generating section (phi_u, phi_v), each
    split by :func:`_by_parameter`."""
    field = generator(fam, "f")
    section = generating_section(field)
    return tuple(
        _by_parameter(c) for c in (field.at, field.ax, field.ay, section.phi_u, section.phi_v)
    )


class _TaylorJet:
    """The jet point theta as a truncated power-series section.

    The Taylor polynomials of u and v about the base point (degree k+1,
    taken from theta's values, principal ones included) give, through
    degree k, series for the eleven arguments (t, x, y, u, v, u_t, ...,
    v_y) of a generating section.  Composing a polynomial phi with them
    and reading off sigma! * coeff_sigma gives D_sigma phi at theta for
    every |sigma| <= k at once.  The polynomials are the cached
    coefficients of :func:`_family_terms`, so a point builds no expression.
    """

    def __init__(self, theta: JetPoint, k: int):
        self.k = k
        self.t0 = theta.base["t"]
        self.args: list[_Series] = []
        for n, s in enumerate(("t", "x", "y")):
            unit = tuple(int(m == n) for m in range(3))
            self.args.append({(0, 0, 0): theta.base[s], unit: Fraction(1)})
        for dep in ("u", "v"):
            w = {
                e: theta.value(jet(dep, e)) / prod(map(factorial, e))
                for e in itertools.product(range(k + 2), repeat=3)
                if sum(e) <= k + 1
            }
            self.args.append({e: q for e, q in w.items() if sum(e) <= k})
            for n in range(3):
                self.args.append({
                    tuple(e[m] - (m == n) for m in range(3)): e[n] * q
                    for e, q in w.items()
                    if e[n]
                })
        self._values = [a.get((0, 0, 0), _ZERO) for a in self.args]
        self._monomials: dict[tuple[int, ...], _Series] = {
            (0,) * len(self.args): {(0, 0, 0): Fraction(1)}
        }
        # per dependent and internal sigma: (sigma, sigma!, the values of
        # w_{sigma+t}, w_{sigma+x}, w_{sigma+y}) for the transport terms
        self.transport = {
            dep: [
                (
                    (idx.nt, idx.nx, idx.ny),
                    prod(map(factorial, (idx.nt, idx.nx, idx.ny))),
                    tuple(theta.value(jet(dep, idx.bump(d))) for d in "txy"),
                )
                for idx in internal_indices(k)
            ]
            for dep in ("u", "v")
        }

    def _monomial(self, expo: tuple[int, ...]) -> _Series:
        got = self._monomials.get(expo)
        if got is None:
            n = max(m for m, e in enumerate(expo) if e)
            lower = expo[:n] + (expo[n] - 1,) + expo[n + 1 :]
            got = _series_mul(self._monomial(lower), self.args[n], self.k)
            self._monomials[expo] = got
        return got

    def compose(self, poly: _Poly) -> _Series:
        """phi(t, x, y, u, v, u_t, ..., v_y) along the series section."""
        out: _Series = {}
        for expo, c in poly.items():
            for key, q in self._monomial(expo).items():
                out[key] = out.get(key, 0) + c * q
        return out

    def value(self, poly: _Poly) -> Fraction:
        """phi at the base point: the constant term of :meth:`compose`."""
        total = _ZERO
        for expo, c in poly.items():
            for v, n in zip(self._values, expo):
                if n:
                    c *= v**n
            total += c
        return total

    def parameter(self, n: int) -> _Series:
        """The series of t^n/n! (zero for n < 0) in powers of t - t0."""
        return {
            (i, 0, 0): self.t0 ** (n - i) / (factorial(n - i) * factorial(i))
            for i in range(min(n, self.k) + 1)
        }

    def vectors(self, fam: int, mmax: int) -> list[list[Fraction]]:
        """The prolonged fields of family ``fam`` with the parameters t^m/m!,
        m = 0..mmax, at theta in internal coordinates of order <= k:
        (a^t, a^x, a^y) and, per internal sigma,
        D_sigma phi_w + a^t w_{sigma+t} + a^x w_{sigma+x} + a^y w_{sigma+y}.

        Every component is sum_j c_j f^(j) with the cached coefficients
        c_j; each c_j is composed with the series section once, and the
        parameter t^m/m! enters as the series of its derivatives."""
        terms = _family_terms(fam)
        base_parts = [[(j, self.value(c)) for j, c in comp] for comp in terms[:3]]
        phi_parts = [[(j, self.compose(c)) for j, c in comp] for comp in terms[3:]]
        out = []
        for m in range(mmax + 1):
            series = [self.parameter(m - j) for j in range(3)]
            base = [
                sum((v * series[j].get((0, 0, 0), _ZERO) for j, v in parts), _ZERO)
                for parts in base_parts
            ]
            vec = list(base)
            for dep, parts in zip(("u", "v"), phi_parts):
                phi: _Series = {}
                for j, s in parts:
                    for key, q in _series_mul(s, series[j], self.k).items():
                        phi[key] = phi.get(key, 0) + q
                for sigma, weight, shifted in self.transport[dep]:
                    val = phi.get(sigma, _ZERO) * weight
                    for a, w in zip(base, shifted):
                        if a:
                            val += a * w
                    vec.append(val)
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
