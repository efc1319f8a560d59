"""Point vector fields on the trivial bundle R^3 x R^2 and their jet
prolongations.

A point field

    X = a^t d_t + a^x d_x + a^y d_y + f^u d_u + f^v d_v

with coefficients in functions of (t, x, y, u, v) and formal functions of t
prolongs to jet order k through its generating section

    phi_u = f^u - a^t u_t - a^x u_x - a^y u_y     (same shape for v):

the coefficient of d_{u_sigma} in the prolonged field is

    D_sigma(phi_u) + a^t u_{sigma+t} + a^x u_{sigma+x} + a^y u_{sigma+y},

i.e. the transported graph of the section plus the vertical correction.
Coefficients are produced lazily per jet coordinate, as symbolic
expressions for :meth:`ProlongedField.apply` and :func:`lie_derivative`.
Values at a jet point are computed without them, by composing the
generating section with the point's Taylor polynomial (see
``symmetry.orbit_dimension``).
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from .errors import JetOrderError, NotAPointFieldError
from .exprcore import (
    MAX_JET_ORDER,
    MultiIndex,
    is_jet_symbol,
    jet,
    jet_info,
    jet_order,
    normalize,
    is_zero,
    partial,
    to_text,
)
from .jets import total_derivative, total_derivative_multi

__all__ = [
    "PointField",
    "GeneratingSection",
    "generating_section",
    "ProlongedField",
    "prolong",
    "lie_bracket",
    "lie_derivative",
]

_U = ("u", "v")


def _check_point_coefficient(e: sp.Expr, where: str) -> sp.Expr:
    e = sp.sympify(e)
    for s in e.free_symbols:
        if is_jet_symbol(s) and jet_info(s)[1].order >= 1:
            raise NotAPointFieldError(
                f"{where} coefficient contains jet coordinate {s}"
            )
    return e


@dataclass(frozen=True)
class PointField:
    """Vector field on the base-times-fiber space, no jet coordinates."""

    at: sp.Expr = sp.Integer(0)
    ax: sp.Expr = sp.Integer(0)
    ay: sp.Expr = sp.Integer(0)
    fu: sp.Expr = sp.Integer(0)
    fv: sp.Expr = sp.Integer(0)

    def __post_init__(self):
        for name in ("at", "ax", "ay", "fu", "fv"):
            object.__setattr__(
                self, name, _check_point_coefficient(getattr(self, name), name)
            )

    def components(self) -> tuple[sp.Expr, ...]:
        return (self.at, self.ax, self.ay, self.fu, self.fv)

    def apply(self, h) -> sp.Expr:
        """Derivation on functions of (t, x, y, u, v) and formal functions."""
        h = sp.sympify(h)
        return (
            self.at * partial(h, "t")
            + self.ax * partial(h, "x")
            + self.ay * partial(h, "y")
            + self.fu * sp.diff(h, jet("u"))
            + self.fv * sp.diff(h, jet("v"))
        )

    def __add__(self, other: "PointField") -> "PointField":
        return PointField(*(a + b for a, b in zip(self.components(), other.components())))

    def __sub__(self, other: "PointField") -> "PointField":
        return PointField(*(a - b for a, b in zip(self.components(), other.components())))

    def __neg__(self) -> "PointField":
        return PointField(*(-a for a in self.components()))

    def __rmul__(self, scalar) -> "PointField":
        scalar = sp.sympify(scalar)
        return PointField(*(scalar * a for a in self.components()))

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.components())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointField):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash(tuple(sp.srepr(normalize(c)) for c in self.components()))

    def __str__(self) -> str:
        names = ("d_t", "d_x", "d_y", "d_u", "d_v")
        parts = [
            f"({to_text(c)})*{n}"
            for c, n in zip(self.components(), names)
            if not is_zero(c)
        ]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


@dataclass(frozen=True)
class GeneratingSection:
    """Contact components (phi_u, phi_v) of a point field; order-1 exprs."""

    phi_u: sp.Expr
    phi_v: sp.Expr

    def component(self, dependent: str) -> sp.Expr:
        return self.phi_u if dependent == "u" else self.phi_v


def generating_section(field: PointField) -> GeneratingSection:
    """phi_w = f^w - a^t w_t - a^x w_x - a^y w_y for w in {u, v}."""
    phis = []
    for dep, f in (("u", field.fu), ("v", field.fv)):
        phi = (
            f
            - field.at * jet(dep, "t")
            - field.ax * jet(dep, "x")
            - field.ay * jet(dep, "y")
        )
        phis.append(sp.expand(phi))
    return GeneratingSection(*phis)


class ProlongedField:
    """The order-k prolongation of a point field, with lazy jet coefficients."""

    def __init__(self, field: PointField, k: int):
        if k < 0:
            raise ValueError("prolongation order must be non-negative")
        if k + 1 > MAX_JET_ORDER:
            raise JetOrderError(
                f"prolongation to order {k} needs order-{k + 1} transport "
                f"coordinates past the hard cap {MAX_JET_ORDER}"
            )
        self.field = field
        self.k = k
        self.section = generating_section(field)
        self._cache: dict[sp.Symbol, sp.Expr] = {}

    def coeff(self, dependent: str, index=MultiIndex()) -> sp.Expr:
        """Coefficient of d_{w_sigma}: D_sigma(phi_w) plus transport terms.

        The result is a function of jets of order <= |sigma| + 1; at
        |sigma| = k this reads off the order-(k+1) coordinates of the
        underlying point, matching the truncated-derivative convention.
        """
        idx = index if isinstance(index, MultiIndex) else MultiIndex.from_word(index) if isinstance(index, str) else MultiIndex(*index)
        if idx.order > self.k:
            raise JetOrderError(
                f"coefficient at order {idx.order} beyond prolongation order {self.k}"
            )
        sym = jet(dependent, idx)
        if sym in self._cache:
            return self._cache[sym]
        transported = total_derivative_multi(self.section.component(dependent), idx)
        out = sp.expand(
            transported
            + self.field.at * jet(dependent, idx.bump("t"))
            + self.field.ax * jet(dependent, idx.bump("x"))
            + self.field.ay * jet(dependent, idx.bump("y"))
        )
        self._cache[sym] = out
        return out

    def apply(self, e) -> sp.Expr:
        """The prolonged field as a derivation on order-<=k expressions."""
        e = sp.sympify(e)
        if jet_order(e) > self.k:
            raise JetOrderError(
                f"expression order {jet_order(e)} beyond prolongation order {self.k}"
            )
        out = (
            self.field.at * partial(e, "t")
            + self.field.ax * partial(e, "x")
            + self.field.ay * partial(e, "y")
        )
        for s in e.free_symbols:
            if not is_jet_symbol(s):
                continue
            ds = sp.diff(e, s)
            if ds == 0:
                continue
            out += self.coeff(*jet_info(s)) * ds
        return out


def prolong(field: PointField, k: int) -> ProlongedField:
    return ProlongedField(field, k)


def lie_bracket(a: PointField, b: PointField) -> PointField:
    """Commutator [a, b] on the five-dimensional total space."""
    return PointField(
        *(a.apply(bc) - b.apply(ac) for ac, bc in zip(a.components(), b.components()))
    )


def lie_derivative(field: PointField, e, k: int | None = None) -> sp.Expr:
    """Apply the prolongation of the field to an expression of order <= k."""
    e = sp.sympify(e)
    if k is None:
        k = jet_order(e)
    return prolong(field, k).apply(e)
