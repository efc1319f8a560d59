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
Coefficients are produced lazily per jet coordinate, as elements of the
jet ring (``jets._JetRing``, a sparse rational-function field).  There the
generating section is built from the field's converted components, and
the prolonged field (``ProlongedField._apply_in``) and the bracket of two
point fields (``_bracket_in``) compute; sympy expressions are converted
once on the way in.  Values at a jet point are computed without them, by
composing the generating section with the point's Taylor polynomial (see
``symmetry.orbit_dimension``).
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from .errors import JetOrderError, NotAPointFieldError
from .exprcore import (
    DEPENDENTS,
    MAX_JET_ORDER,
    MultiIndex,
    is_jet_symbol,
    jet_info,
    equal,
    is_zero,
    to_text,
)
from .jets import BASE_NAMES, _is_formal_key, _jet_key
from .trees import _ring_for

__all__ = [
    "PointField",
    "ProlongedField",
]


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

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointField):
            return NotImplemented
        return all(map(equal, self.components(), other.components()))

    def __hash__(self):
        # the zero pattern, which == keeps; a canonical form need not be unique
        return hash(tuple(map(is_zero, self.components())))

    def __str__(self) -> str:
        names = ("d_t", "d_x", "d_y", "d_u", "d_v")
        parts = [
            f"({to_text(c)})*{n}"
            for c, n in zip(self.components(), names)
            if not is_zero(c)
        ]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


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
        # ring -> the field's components in it; (ring, dependent, index) ->
        # D_sigma(phi_w), resp. the coefficient
        self._components: dict = {}
        self._dphi: dict = {}
        self._coeffs: dict = {}

    def _ring(self, *exprs):
        """The jet ring of order k+1 holding ``exprs``, the field and the
        formal derivatives its prolongation reaches."""
        return _ring_for(self.k + 1, (*exprs, *self.field.components()), derivatives=self.k + 1)

    def _components_in(self, ring) -> list:
        got = self._components.get(ring)
        if got is None:
            got = self._components[ring] = [ring.convert(c) for c in self.field.components()]
        return got

    def _section_derivative(self, ring, dependent: str, idx: MultiIndex):
        key = (ring, dependent, idx)
        got = self._dphi.get(key)
        if got is None:
            if idx.order == 0:
                got = _phi_in(ring, self._components_in(ring), dependent)
            else:
                d = "y" if idx.ny else ("x" if idx.nx else "t")
                got = ring.total(self._section_derivative(ring, dependent, idx.drop(d)), d)
            self._dphi[key] = got
        return got

    def _coeff_in(self, ring, dependent: str, idx: MultiIndex):
        key = (ring, dependent, idx)
        got = self._coeffs.get(key)
        if got is None:
            got = self._section_derivative(ring, dependent, idx)
            for a, d in zip(self._components_in(ring)[:3], "txy"):
                if a:
                    got = got + a * ring.gen(_jet_key(dependent, idx.bump(d)))
            self._coeffs[key] = got
        return got

    def _apply_in(self, ring, f):
        """The prolonged field applied to an element of its ring; the jet
        coordinates come first among its generators."""
        comps = self._components_in(ring)
        jets = ring._jets
        images = [
            (i, self._coeff_in(ring, *jets[i]))
            if i < len(jets)
            else (i, _point_image(ring, comps, ring.keys[i]))
            for i in ring.present(f)
        ]
        return ring.apply(f, ring.lift(images))


def _phi_in(ring, comps: list, dependent: str):
    """phi_w = f^w - a^t w_t - a^x w_x - a^y w_y of the field with
    components ``comps`` (elements of the ring), for w = ``dependent``."""
    got = comps[3 + DEPENDENTS.index(dependent)]
    for a, d in zip(comps[:3], "txy"):
        if a:
            got = got - a * ring.gen(f"{dependent}_{d}")
    return got


def _point_image(ring, comps: list, key):
    """The image of a base, fibre or formal generator, by its key, under
    the field with components ``comps`` (elements of the ring)."""
    if key in BASE_NAMES:
        return comps[BASE_NAMES.index(key)]
    if key in DEPENDENTS:
        return comps[3 + DEPENDENTS.index(key)]
    if _is_formal_key(key):
        # the formal chain rule of d/dt: a^(m) -> a^(m+1)
        return comps[0] * ring.gen(key + "'")
    return ring.field.zero


def _point_apply(ring, comps: list, f):
    """A point field as a derivation of its ring; jet coordinates of
    positive order are constants."""
    images = [(i, _point_image(ring, comps, ring.keys[i])) for i in ring.present(f)]
    return ring.apply(f, ring.lift(images))


def _bracket_in(ring, fa: list, fb: list) -> list:
    """The components of [a, b] from those of a and b in a ring."""
    return [
        _point_apply(ring, fa, bc) - _point_apply(ring, fb, ac) for ac, bc in zip(fa, fb)
    ]
