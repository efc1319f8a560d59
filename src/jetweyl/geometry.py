"""Weyl geometry of solutions: metric pair, connection, curvature, frame.

A solution section (u, v) determines a metric and covector on the base by
the fixed ansatz; this module builds the Weyl connection of that pair,
checks the Einstein property, constructs the order-2 canonical frame at a
point, and carries the catalog of explicit solutions with their reduction
checks.

The section's derivatives, its equation residuals, the connection, the
curvature and the invariants along it are computed in one exact
differential field (:class:`SectionField`); sympy expressions are
converted into it once and back only for return values and messages.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import sympy as sp

from .errors import (
    DegenerateFrameError,
    DivisionByZeroExpression,
    ExprError,
    JetOrderError,
    SolutionError,
)
from .exprcore import (
    BASE_SYMBOLS,
    DEPENDENTS,
    T,
    X,
    Y,
    MultiIndex,
    _rescaled,
    formal,
    formal_shift,
    is_formal_symbol,
    is_jet_symbol,
    is_zero,
    jet,
    jet_info,
    jet_order,
    normalize,
    to_text,
    validate_kernel,
)
from .jets import (
    EquationSystem,
    JetPoint,
    _merge,
    _Rescaled,
    _ring_for,
    internal_indices,
    ms_system,
)
from .linalg import as_fraction, inertia
from . import symmetry as _symmetry

__all__ = [
    "SectionField",
    "Solution",
    "WeylPair",
    "Connection",
    "CORRECTION_SIGN",
    "build_pair",
    "weyl_connection",
    "ricci",
    "d_omega",
    "skew_anchor_residual",
    "EWReport",
    "check_EW",
    "FrameResult",
    "canonical_frame",
    "signature_report",
    "catalog",
    "CATALOG_IDS",
    "dkp_reduction_check",
    "hierarchy_reduction_check",
    "hierarchy_residual",
    "invariants_on_solution",
    "sl2_structure_report",
]

_COORDS = (T, X, Y)
_DIRS = "txy"

# The metric-compatibility correction applied to the Levi-Civita symbols
# carries a global sign choice; correction_sign = s means Gamma = gamma +
# (s/2)(w_i d_j^k + w_j d_i^k - g_ij w^k), which makes nabla g equal
# (-s) * omega x g.  Exactly one choice makes the catalog Einstein: s = -1,
# i.e. the compatibility law nabla g = +omega x g.  The curvature anchor
# (skew Ricci = 3/2 d omega) holds for the same choice.
CORRECTION_SIGN = -1


class SectionField(_Rescaled):
    """The differential field of a tuple of closed forms in t, x, y.

    The expressions are rescaled jointly (``exprcore._rescaled``): a base
    variable b with fractional powers becomes B^m, the exponential atoms
    exp(c*b) become powers of one generator E_b, and the constants that
    are not rational become prime radicals p^(1/M) and exp(1/M).  With the
    formal functions of t and their derivatives these generate the field,
    held as the order-0 jet ring (``jets._JetRing``) with the auxiliary
    generators as extras; zero tests and canonical expressions are those
    of ``jets._Rescaled`` (radicals reduced by R^M = p).  d/dt, d/dx and
    d/dy are ring derivations given by the images of the generators: d_b B
    = B^(1-m)/m, d_b E = c*E for E = exp(c*b), d_t a^(k) = a^(k+1), and
    constants have none.  ``values`` are the expressions as field elements;
    for a section they are (u, v).
    """

    def __init__(self, exprs):
        scaled, back = _rescaled(sp.Tuple(*exprs))
        ring = _ring_for(0, scaled.args, derivatives=_FIELD_DERIVATIVES, aux=tuple(back))
        super().__init__(ring, back)
        self.values = tuple(ring.convert(e) for e in scaled.args)
        # a base variable as an element: b, or B^m where it was rescaled
        self._base = {b: ring.gen(b) for b in BASE_SYMBOLS}
        images = {b.name: [(ring.index[b], ring.field.one)] for b in BASE_SYMBOLS}
        for gen, atom in self.back.items():
            if not atom.free_symbols:
                continue
            if isinstance(atom, sp.exp):
                (b,) = atom.args[0].free_symbols
                image = atom.args[0].coeff(b) * gen
            else:
                b, m = atom.base, atom.exp.q
                image = 1 / (m * gen ** (m - 1))
                self._base[b] = ring.convert(gen**m)
            images[b.name].append((ring.index[gen], ring.convert(image)))
        # formal derivatives of the highest order carried have no image
        self._top = set()
        for s in ring.extras:
            if is_formal_symbol(s):
                if formal_shift(s) in ring.index:
                    images["t"].append((ring.index[s], ring.gen(formal_shift(s))))
                else:
                    self._top.add(ring.index[s])
        self._images = images
        self._jets: dict = {}

    def partial(self, f, d: str):
        """The partial derivative d/dd of a field element (d = t, x or y)."""
        if d == "t" and self._top.intersection(self.ring.present(f)):
            raise JetOrderError(
                f"d/dt of a formal derivative of order past {_FIELD_DERIVATIVES} "
                "beyond those of the section"
            )
        return self.ring.derivation(f, self._images[d])

    def jet(self, dep: str, index=MultiIndex()):
        """The section's derivative w_sigma (w = u, v) as a field element."""
        index = index if isinstance(index, MultiIndex) else MultiIndex.from_word(index)
        got = self._jets.get((dep, index))
        if got is None:
            if index.order == 0:
                got = self.values[DEPENDENTS.index(dep)]
            else:
                d = "y" if index.ny else ("x" if index.nx else "t")
                got = self.partial(self.jet(dep, index.drop(d)), d)
            self._jets[(dep, index)] = got
        return got

    def _value(self, s):
        if is_jet_symbol(s):
            return self.jet(*jet_info(s))
        if s in self._base:
            return self._base[s]
        return self.ring.gen(s)

    def _evaluate(self, src, polys, value=None):
        """Polynomials of the jet ring ``src`` at the section, or at the
        elements ``value(s)`` for the generators s of ``src``: (L, [(P~, D)])
        with P = P~ / L^D, for one common denominator L of the values."""
        value = value or self._value
        used = sorted({i for p in polys if p for i, n in enumerate(p.degrees()) if n > 0})
        values = [value(src.symbols[i]) for i in used]
        one = self.ring.ring.one
        L = one
        for v in values:
            if v.denom != 1:
                L = L.lcm(v.denom)
        nums = [v.numer if v.denom == L else v.numer * L.exquo(v.denom) for v in values]
        powers: dict = {}

        def power(j, n):
            got = powers.get((j, n))
            if got is None:
                got = powers[(j, n)] = (L if j < 0 else nums[j]) ** n
            return got

        out = []
        for p in polys:
            terms = [(m, c, sum(m[i] for i in used)) for m, c in p.items()]
            top = max((deg for _, _, deg in terms), default=0)
            acc: dict = {}
            for m, c, deg in terms:
                term = power(-1, top - deg)
                for j, i in enumerate(used):
                    if m[i]:
                        term = term * power(j, m[i])
                _merge(acc, term.mul_ground(c))
            out.append((self.ring.ring.dtype(acc), top))
        return L, out

    def subs(self, e):
        """A rational expression in jet coordinates, t, x, y and formal
        functions, with the section's derivatives in place of the jets: the
        numerator and denominator polynomials of e are evaluated at them."""
        src, num, den = _jet_polys(sp.sympify(e))
        return self._quotient(
            src, num, den, self._value, lambda: f"the denominator of {e} vanishes on the section"
        )

    def _quotient(self, src, num, den, value, message):
        """num/den for polynomials of the ring ``src``, with each generator
        s of ``src`` replaced by the element ``value(s)`` of this field;
        ``message()`` is the text of the error raised when the denominator
        vanishes."""
        L, ((n, dn), (d, dd)) = self._evaluate(src, (num, den), value)
        if not self._reduced(d):
            raise DivisionByZeroExpression(message())
        if dd >= dn:
            return self.ring.field.new(n * L ** (dd - dn), d)
        return self.ring.field.new(n, d * L ** (dn - dd))

    def sum(self, elements):
        """The sum of field elements."""
        return sum(elements, self.ring.field.zero)

    def rational(self, f) -> Fraction | None:
        """The value of a constant element, None for a non-constant one."""
        f = self._reduced_element(f)
        if not f:
            return Fraction(0)
        if not (f.numer.is_ground and f.denom.is_ground):
            return None
        q = f.numer.LC / f.denom.LC
        return Fraction(int(q.numerator), int(q.denominator))

    # -- moving the section -------------------------------------------------

    def moved(self, element) -> "SectionField":
        """The field of the section pushed through a pseudogroup element,
        with the moved (u, v) as its values.

        The new section at (t, x, y) is the old one at the preimage point
        plus the fibre terms, with every function of t taken at the
        preimage time (``element.at_source()``).  Each generator of this
        field is sent to its image in a field that holds the preimage point
        and the fibre coefficients, where u and v are evaluated and the
        fibre terms added.  Solutions map to solutions."""
        ts, xs, ys, *coefficients = element.at_source()
        target, data, (u, v) = self._pushed(
            (ts, xs, ys, element.root, *coefficients), "transformed"
        )
        _, xs, ys, s, E, Ep, Epp, Ap, Bp, C, Cp = data
        D = s * s
        u_new = E / s * u - 3 * Ep * ys / s + Bp / D - 2 * C / (E * s)
        v_new = (
            E**2 * v
            + (C + 2 * E * Ep * ys) * u
            + (E * Epp - 3 * Ep**2) * ys**2
            + (Cp - 4 * C * Ep / E) * ys
            + 2 * E * Ep * xs
        ) / D + (E**2 * Ap - C**2) / (D * E**2)
        return target._with_values((u_new, v_new))

    def reflected(self, which: str) -> "SectionField":
        """The field of the section under one of the two discrete
        generators beyond the connected pseudogroup, with the reflected
        (u, v) as its values.  ``txy`` flips the signs of t, x and y with
        the fibres fixed, ``yu`` those of y and u; both are involutions."""
        if which == "txy":
            point, sign = (-T, -X, -Y), 1
        elif which == "yu":
            point, sign = (T, X, -Y), -1
        else:
            raise ValueError(f"reflection must be 'txy' or 'yu', got {which!r}")
        target, _, (u, v) = self._pushed(point, "reflected")
        return target._with_values((u * sign, v))

    def _pushed(self, exprs, what: str) -> tuple:
        """(F, exprs as elements of F, the images of the values in F) for
        the point map whose preimage of (t, x, y) is exprs[:3].

        F holds exprs, the formal functions of the values (which map to
        themselves) and the image of every auxiliary generator (see
        ``_image_atom``); an image outside the term language is refused
        with a ``SolutionError``."""
        present = set().union(*map(self.ring.present, self.values))
        formals = tuple(
            s for i, s in enumerate(self.ring.symbols) if i in present and is_formal_symbol(s)
        )
        try:
            F = SectionField((*exprs, *formals))
            atoms = tuple(_image_atom(F, F.values[:3], atom) for atom in self.back.values())
            if atoms:
                F = SectionField((*exprs, *formals, *atoms))
        except ExprError as exc:
            raise SolutionError(f"{what} section leaves the representable domain: {exc}") from None
        images = dict(zip(BASE_SYMBOLS, F.values))
        images.update(zip(self.back, F.values[len(exprs) + len(formals) :]))

        def value(s):
            return images[s] if s in images else F.ring.gen(s)

        moved = [
            F._quotient(self.ring, f.numer, f.denom, value, lambda: f"{what} section has a pole")
            for f in self.values
        ]
        return F, F.values[: len(exprs)], moved

    def _with_values(self, values) -> "SectionField":
        """This field with other values (and no jets taken yet)."""
        out = copy.copy(self)
        out.values = tuple(values)
        out._jets = {}
        return out


def _image_atom(F: SectionField, point, atom) -> sp.Expr:
    """The image of the value of an auxiliary generator under a point map
    whose preimage of (t, x, y) is ``point`` (elements of F).

    A constant stays fixed.  exp(c*b) goes to exp(c*b_s), which must be
    linear in t, x, y over QQ, and b^(1/m) to (q*b)^(1/m), for which b_s
    must be q*b with a positive constant q.  Anything else leaves the term
    language (``ExprError``)."""
    if not atom.free_symbols:
        return atom
    if isinstance(atom, sp.exp):
        (b,) = atom.args[0].free_symbols
        f = point[BASE_SYMBOLS.index(b)]
        bases = {F.ring.index[s] for s in BASE_SYMBOLS}
        linear = (
            f.denom.is_ground
            and set(F.ring.present(f)) <= bases
            and all(sum(m) <= 1 for m in f.numer.monoms())
        )
        if not linear:
            raise ExprError(
                f"{atom} moves to exp of {F.expr(f)}, which is not linear in t, x, y over QQ"
            )
        return sp.exp(atom.args[0].coeff(b) * F.expr(f))
    b = atom.base
    f = point[BASE_SYMBOLS.index(b)]
    q = f / F._base[b]
    constants = {F.ring.index[g] for g, value in F.back.items() if not value.free_symbols}
    q = F.expr(q) if set(F.ring.present(q)) <= constants else None
    if q is None or not q.is_positive:
        raise ExprError(f"{atom} moves to a fractional power of {F.expr(f)}")
    return q**atom.exp * b**atom.exp


# formal functions of t are carried with this many more derivatives than
# occur: the twelve invariants have order three, and i_regular takes one
# derivative more
_FIELD_DERIVATIVES = 4


@lru_cache(maxsize=128)
def _jet_polys(e: sp.Expr) -> tuple:
    """(ring, numerator, denominator) of a rational jet expression."""
    ring = _ring_for(jet_order(e), (e,))
    f = ring.convert(e)
    return ring, f.numer, f.denom


class Solution:
    """A section u = u(t,x,y), v = v(t,x,y) of the equation system.

    Closed forms in the base variables plus formal functions of t; the two
    equation residuals are checked at construction unless deferred (the
    deferred path exists for negative controls and ansatz experiments).
    Derivatives, residuals and geometry are computed in the section's
    differential field (:class:`SectionField` of (u, v)), built on first use
    unless ``field`` is given: a field whose values are (u, v) already.
    """

    def __init__(
        self,
        u,
        v,
        name: str = "user",
        domain: str = "",
        deferred: bool = False,
        system: EquationSystem | None = None,
        field: SectionField | None = None,
    ):
        self.u = validate_kernel(sp.sympify(u), allow_exp=True)
        self.v = validate_kernel(sp.sympify(v), allow_exp=True)
        for e in (self.u, self.v):
            for s in e.free_symbols:
                if is_jet_symbol(s) and jet_info(s)[1].order > 0:
                    raise SolutionError(
                        "a section is given by closed forms, not jet coordinates"
                    )
        self.name = name
        self.domain = domain
        self.system = system or ms_system()
        self._field = field
        self._pair: WeylPair | None = None
        self._residual_elements: tuple | None = None
        self.checked = False
        if not deferred:
            self.require_solution()

    @property
    def field(self) -> SectionField:
        if self._field is None:
            self._field = SectionField((self.u, self.v))
        return self._field

    def _residuals(self) -> tuple:
        """F1, F2 at the section as field elements, computed once."""
        if self._residual_elements is None:
            self._residual_elements = tuple(self.field.subs(F) for F in self.system.equations)
        return self._residual_elements

    def residuals(self) -> tuple[sp.Expr, sp.Expr]:
        """The two equation residuals: F1, F2 with the section's
        derivatives in place of the jet coordinates.  Both vanish exactly
        when the section solves the system."""
        return tuple(map(self.field.expr, self._residuals()))

    def solves(self) -> bool:
        """True when both residuals vanish (the field's zero test)."""
        return all(map(self.field.vanishes, self._residuals()))

    def require_solution(self) -> "Solution":
        if not self.solves():
            r1, r2 = self.residuals()
            raise SolutionError(
                f"section {self.name!r} does not solve the system: "
                f"residuals ({to_text(r1)}, {to_text(r2)})"
            )
        self.checked = True
        return self

    # -- jets of the section ------------------------------------------------

    def jet_expr(self, dep: str, index=MultiIndex()) -> sp.Expr:
        return self.field.expr(self.field.jet(dep, index))

    def jet_subs(self, e) -> sp.Expr:
        """Replace jet coordinates in e by the section's derivatives."""
        return self.field.expr(self.field.subs(e))

    def jet_point(self, k: int, base=(0, 0, 0)) -> JetPoint:
        """The k-jet of the section at a rational base point, as an exact
        on-equation jet point (the section must be a checked solution)."""
        if not self.checked:
            self.require_solution()
        subs = {c: sp.Rational(q) for c, q in zip(_COORDS, base)}
        internal = {}
        for dep in ("u", "v"):
            for idx in internal_indices(k):
                val = self.jet_expr(dep, idx).xreplace(subs)
                if not val.is_Rational:
                    raise SolutionError(
                        f"jet of {self.name!r} at {base} is not rational: "
                        f"{dep}_{idx.word() or '0'} = {val}"
                    )
                internal[jet(dep, idx)] = as_fraction(val)
        return self.system.point(
            k,
            base={"t": Fraction(base[0]), "x": Fraction(base[1]), "y": Fraction(base[2])},
            internal=internal,
        )

    def in_domain(self, pt) -> bool:
        if self.domain == "y > 0":
            return sp.Rational(pt[2]) > 0
        return True

    def transform(self, element) -> "Solution":
        """Push the section through a pseudogroup element
        (:meth:`SectionField.moved`)."""
        return self._on(self.field.moved(element), "moved")

    def reflect(self, which: str) -> "Solution":
        """Reflect the section (:meth:`SectionField.reflected`)."""
        return self._on(self.field.reflected(which), which)

    def _on(self, sf: SectionField, tag: str) -> "Solution":
        """The solution held by a field derived from this one; its residuals
        are checked there."""
        u, v = map(sf.expr, sf.values)
        return Solution(
            u, v, name=f"{self.name}|{tag}", domain=self.domain, system=self.system, field=sf
        )

    def __str__(self) -> str:
        return f"u = {to_text(self.u)}; v = {to_text(self.v)}"


# ---------------------------------------------------------------------------
# metric pair and connection


@dataclass(frozen=True)
class WeylPair:
    g: sp.Matrix
    omega: sp.Matrix  # column of (dt, dx, dy) components
    solution: Solution
    # (field, g as rows, omega) in a differential field; derived from g and
    # omega when not given
    _elements: tuple | None = field(default=None, repr=False, compare=False)
    # correction sign -> the pair's Weyl connection
    _connections: dict = field(default_factory=dict, repr=False, compare=False)

    def elements(self) -> tuple:
        """(field, g, omega): the pair as elements of a differential field."""
        if self._elements is None:
            sf = SectionField([*self.g, *self.omega])
            vals = sf.values
            object.__setattr__(
                self, "_elements", (sf, _rows(vals[:9]), tuple(vals[9:]))
            )
        return self._elements


def _rows(vals) -> tuple:
    return tuple(tuple(vals[3 * i : 3 * i + 3]) for i in range(3))


def build_pair(sol: Solution) -> WeylPair:
    """The ansatz metric and covector of a section (one pair per section)."""
    if sol._pair is None:
        sf = sol.field
        u, v = jet("u"), jet("v")
        g = _symmetry.ansatz_metric(u, v)
        w = _symmetry.ansatz_covector(u, jet("u", "x"), jet("u", "y"), jet("v", "x"))
        g_f = _rows([sf.subs(e) for e in g])
        w_f = tuple(sf.subs(e) for e in w)
        sol._pair = WeylPair(
            _symmetry.ansatz_metric(sol.u, sol.v),
            sp.Matrix([sf.expr(e) for e in w_f]),
            sol,
            (sf, g_f, w_f),
        )
    return sol._pair


def _exprs(sf: SectionField, nested):
    """Canonical expressions of nested tuples of field elements."""
    if isinstance(nested, tuple):
        return tuple(_exprs(sf, e) for e in nested)
    return sf.expr(nested)


class Connection:
    """Christoffel symbols Gamma[k][i][j] of a Weyl pair, symmetric in
    (i, j), computed in the pair's differential field ``field``.

    ``g_f``, ``w_f``, ``ginv_f``, ``gamma_f``, ``christoffel_f`` and
    ``wsharp_f`` are field elements (metric, covector, inverse metric,
    Levi-Civita and corrected symbols, raised covector); ``gamma``,
    ``christoffel`` and ``wsharp`` are their canonical expressions.
    ``compat_sign`` is the verified sign of nabla g = compat_sign *
    omega x g.
    """

    def __init__(self, pair, correction_sign, sf, g, w, ginv, gamma, christoffel, wsharp):
        self.pair = pair
        self.correction_sign = correction_sign
        self.compat_sign = -correction_sign
        self.field = sf
        self.g_f, self.w_f, self.ginv_f = g, w, ginv
        self.gamma_f, self.christoffel_f, self.wsharp_f = gamma, christoffel, wsharp
        self._ricci = None
        self._einstein = None

    @cached_property
    def gamma(self) -> tuple:
        return _exprs(self.field, self.gamma_f)

    @cached_property
    def christoffel(self) -> tuple:
        return _exprs(self.field, self.christoffel_f)

    @cached_property
    def wsharp(self) -> tuple:
        return _exprs(self.field, self.wsharp_f)

    def __getitem__(self, kij):
        k, i, j = kij
        return self.christoffel[k][i][j]

    def ricci_elements(self) -> tuple:
        """Ric_ij as field elements (see :func:`ricci`)."""
        if self._ricci is None:
            self._ricci = _ricci_of(self)
        return self._ricci

    def einstein_elements(self) -> tuple:
        """(Lambda, rows of Ric_sym - Lambda*g) as field elements, with
        Lambda = tr(g^-1 Ric_sym)/3."""
        if self._einstein is None:
            ric, g, ginv = self.ricci_elements(), self.g_f, self.ginv_f
            cells = [(i, j) for i in range(3) for j in range(3)]
            rsym = {(i, j): (ric[i][j] + ric[j][i]) / 2 for i, j in cells}
            lam = self.field.sum(ginv[j][i] * rsym[i, j] for i, j in cells) / 3
            resid = _rows([rsym[i, j] - lam * g[i][j] for i, j in cells])
            self._einstein = (lam, resid)
        return self._einstein


def _cube(entry) -> tuple:
    """Nested tuples [k][i][j] of entry(k, i, j)."""
    return tuple(
        tuple(tuple(entry(k, i, j) for j in range(3)) for i in range(3)) for k in range(3)
    )


def _cofactors(m) -> list:
    """The cofactor matrix of a 3x3 matrix of field elements."""
    return [
        [
            m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)
        ]
        for i in range(3)
    ]


def _inverse(sf: SectionField, g) -> tuple:
    """Inverse of a 3x3 matrix of field elements by its cofactors."""
    cof = _cofactors(g)
    det = sf.sum(g[0][j] * cof[0][j] for j in range(3))
    if sf.vanishes(det):
        raise SolutionError("metric is degenerate")
    return _rows([cof[j][i] / det for i in range(3) for j in range(3)])


def weyl_connection(
    pair: WeylPair, correction_sign: int | None = None
) -> Connection:
    """Levi-Civita symbols plus the covector correction.

    The compatibility law nabla g = (sign) * omega x g is verified exactly;
    the achieved sign is recorded on the result (it is the negative of the
    correction sign).  A pair computes its connection once per sign.
    """
    if correction_sign is None:
        correction_sign = CORRECTION_SIGN
    if correction_sign not in (1, -1):
        raise ValueError("correction_sign must be +1 or -1")
    got = pair._connections.get(correction_sign)
    if got is not None:
        return got
    sf, g, w = pair.elements()
    ginv = _inverse(sf, g)
    wup = tuple(sf.sum(ginv[k][m] * w[m] for m in range(3)) for k in range(3))
    # dg[d][i][j] = d_d g_ij
    dg = [_rows([sf.partial(e, d) for row in g for e in row]) for d in _DIRS]

    def levi_civita(k, i, j):
        return sf.sum(ginv[k][m] * (dg[i][m][j] + dg[j][m][i] - dg[m][i][j]) for m in range(3)) / 2

    def corrected(k, i, j):
        corr = (w[i] if j == k else 0) + (w[j] if i == k else 0) - g[i][j] * wup[k]
        return gamma[k][i][j] + corr * correction_sign / 2

    gamma = _cube(levi_civita)
    chris = _cube(corrected)
    conn = Connection(pair, correction_sign, sf, g, w, ginv, gamma, chris, wup)
    # verify nabla_k g_ij = compat_sign * w_k g_ij
    for k in range(3):
        for i in range(3):
            for j in range(i, 3):
                nab = dg[k][i][j] - sf.sum(
                    chris[m][k][i] * g[m][j] + chris[m][k][j] * g[i][m] for m in range(3)
                )
                if not sf.vanishes(nab - w[k] * g[i][j] * conn.compat_sign):
                    raise SolutionError("connection fails the metric compatibility law")
    pair._connections[correction_sign] = conn
    return conn


def _ricci_of(conn: Connection) -> tuple:
    """Ric_ij = sum_k d_k Gamma^k_ij - d_i Gamma^k_kj
    + Gamma^m_ij Gamma^k_km - Gamma^m_kj Gamma^k_im, as field elements."""
    sf, G = conn.field, conn.christoffel_f
    trace = [sf.sum(G[k][k][m] for k in range(3)) for m in range(3)]
    return _rows(
        [
            sf.sum(sf.partial(G[k][i][j], _DIRS[k]) for k in range(3))
            - sf.partial(trace[j], _DIRS[i])
            + sf.sum(G[m][i][j] * trace[m] for m in range(3))
            - sf.sum(G[m][k][j] * G[k][i][m] for k in range(3) for m in range(3))
            for i in range(3)
            for j in range(3)
        ]
    )


def ricci(conn: Connection) -> sp.Matrix:
    """Ricci tensor Ric(X, Y) = trace of Z -> R(Z, X)Y, not symmetrized
    (a Weyl connection has a skew Ricci part).

    Ric_ij = sum_k d_k Gamma^k_ij - d_i Gamma^k_kj
             + Gamma^m_ij Gamma^k_km - Gamma^m_kj Gamma^k_im.
    """
    return sp.Matrix(_exprs(conn.field, conn.ricci_elements()))


def _d_omega_of(sf: SectionField, w) -> tuple:
    return _rows(
        [
            (sf.partial(w[j], _DIRS[i]) - sf.partial(w[i], _DIRS[j])) / 2
            for i in range(3)
            for j in range(3)
        ]
    )


def d_omega(pair: WeylPair) -> sp.Matrix:
    """Exterior derivative of the covector as an alternated tensor:
    (d omega)_ij = (d_i w_j - d_j w_i) / 2."""
    sf, _, w = pair.elements()
    return sp.Matrix(_exprs(sf, _d_omega_of(sf, w)))


def skew_anchor_residual(conn: Connection) -> sp.Matrix:
    """Residual of the curvature anchor: skew part of Ricci minus 3/2 times
    d omega, both taken in the alternated-tensor convention.

    Zero for every solution under the default correction sign; the anchor
    fails under the flipped sign, which is the mutation observable."""
    ric = conn.ricci_elements()
    dw = _d_omega_of(conn.field, conn.w_f)
    return sp.Matrix(
        3,
        3,
        lambda i, j: conn.field.expr((ric[i][j] - ric[j][i]) / 2 - dw[i][j] * 3 / 2),
    )


# ---------------------------------------------------------------------------
# Einstein check


@dataclass(frozen=True)
class EWPointCheck:
    point: tuple
    residual: float
    lam: object
    ok: bool


@dataclass(frozen=True)
class EWReport:
    name: str
    exact: bool
    ok: bool
    lam: object
    points: tuple
    notes: tuple


def _max_abs(mat: sp.Matrix, subs: dict) -> float:
    vals = [abs(sp.N(e.xreplace(subs), 50)) for e in mat]
    return float(max(vals)) if vals else 0.0


def check_EW(
    sol: Solution,
    pts=None,
    tol: float = 1e-9,
    correction_sign: int | None = None,
) -> EWReport:
    """Einstein property of the solution's Weyl structure.

    Exact first: the trace-extracted factor Lambda and the residual tensor
    Ric_sym - Lambda*g in the section's field; when every entry is zero the
    check is exact.  Sample points (if given, or when an entry is nonzero)
    get a relative residual against ``tol``.
    """
    conn = weyl_connection(build_pair(sol), correction_sign)
    sf = conn.field
    lam_f, resid_f = conn.einstein_elements()
    exact = all(sf.vanishes(e) for row in resid_f for e in row)
    lam = sf.expr(lam_f)
    notes = []
    checks = []
    ok = exact
    for p in pts or ():
        if not sol.in_domain(p):
            raise SolutionError(f"point {p} violates the domain ({sol.domain})")
    if pts and exact:
        # residual is the zero tensor; every sample trivially passes
        for p in pts:
            subs = {c: sp.Rational(q) for c, q in zip(_COORDS, p)}
            checks.append(EWPointCheck(tuple(p), 0.0, lam.xreplace(subs), True))
    elif pts or not exact:
        if not pts:
            pts = [(0, 1, 1)]
            notes.append("symbolic residual nonzero; sampled a default point")
        resid = sp.Matrix(_exprs(sf, resid_f))
        free = {s for e in resid for s in e.free_symbols if is_formal_symbol(s)}
        if free:
            raise SolutionError(
                f"bind formal parameters before numeric checks: {sorted(map(str, free))}"
            )
        g = conn.pair.g
        rsym = sp.Matrix(3, 3, lambda i, j: resid[i, j] + lam * g[i, j])
        ok = True
        for p in pts:
            subs = {c: sp.Rational(q) for c, q in zip(_COORDS, p)}
            denom = _max_abs(rsym, subs) + _max_abs(lam * g, subs) + 1.0
            r = _max_abs(resid, subs) / denom
            lam_val = sp.N(lam.xreplace(subs), 50)
            good = r <= tol
            ok = ok and good
            checks.append(EWPointCheck(tuple(p), r, lam_val, good))
    return EWReport(sol.name, exact, ok, lam, tuple(checks), tuple(notes))


# ---------------------------------------------------------------------------
# canonical frame


@dataclass(frozen=True)
class FrameResult:
    ok: bool
    reason: str | None
    e1: tuple | None = None
    e2: tuple | None = None
    e3: tuple | None = None
    j_squared_sign: int | None = None
    dw_norm_squared: object = None
    notes: tuple = ()


def canonical_frame(pair: WeylPair, pt, strict: bool = False) -> FrameResult:
    """Order-2 canonical frame at a point, from the pair's 1-jet data.

    e1 spans Ker(d omega) with omega(e1) = 1; e2 is the g-orthogonal
    projection of the raised covector to the complement of e1; e3 = J e2
    where J is g^{-1} d omega scaled so J^2 = -1 or +1 (the sign is exact
    and reported; the scaling introduces one square root).

    The point is taken exactly, and every decision (pivots, ranks, zero
    components) is the exact zero test ``is_zero``.
    """

    def fail(reason: str) -> FrameResult:
        if strict:
            raise DegenerateFrameError(reason)
        return FrameResult(False, reason)

    def at(m: sp.Matrix) -> sp.Matrix:
        return m.xreplace(subs).applyfunc(normalize)

    def canonical(vec) -> tuple:
        return tuple(normalize(c) for c in vec)

    subs = {c: sp.Rational(q) for c, q in zip(_COORDS, pt)}
    g, w, A = at(pair.g), at(pair.omega), at(d_omega(pair))
    if all(e == 0 for e in A):
        return fail("d omega vanishes at the point")
    null = A.nullspace(iszerofunc=is_zero)
    if len(null) != 1:
        return fail("Ker(d omega) is not a line")
    we1 = normalize((w.T * null[0])[0])
    if we1 == 0:
        return fail("omega(e1) = 0 at the point")
    e1 = sp.Matrix(canonical(null[0] / we1))
    g11 = normalize((e1.T * g * e1)[0])
    if g11 == 0:
        return fail("Ker(d omega) is null at the point")
    # adjugate over determinant: sympy's Gauss-Jordan inverse would run its
    # intermediate cancel on every entry
    ginv = g.inv(method="ADJ", iszerofunc=is_zero)

    def project(vec: sp.Matrix) -> sp.Matrix:
        # the g-orthogonal projection to the complement of e1
        return sp.Matrix(canonical(vec - ((vec.T * g * e1)[0] / g11) * e1))

    e2 = project(ginv * w)
    J0 = ginv * A
    # J0 preserves the g-complement of e1 and squares to a scalar there
    basis = [project(sp.eye(3).col(i)) for i in range(3)]
    if sp.Matrix.hstack(*basis).rank(iszerofunc=is_zero) < 2:
        return fail("projection to the complement degenerates")
    lam = None
    for b in basis:
        nonzero = [c for c in range(3) if b[c] != 0]
        if not nonzero:
            continue
        JJb = J0 * (J0 * b)
        if lam is None:
            lam = normalize(JJb[nonzero[0]] / b[nonzero[0]])
        if not all(is_zero(JJb[c] - lam * b[c]) for c in range(3)):
            return fail("J^2 is not scalar on the complement")
    if lam is None or lam == 0:
        return fail("J^2 degenerates on the complement")
    sign = 1 if lam > 0 else -1
    Je2 = J0 * e2
    notes = []
    if sp.Matrix.hstack(e2, Je2).rank(iszerofunc=is_zero) < 2:
        # in the para case (J^2 = +1) the projected covector can land on a
        # J-eigenvector; the pair (e2, e3) then fails to span the plane
        notes.append("e3 is proportional to e2 (J-eigenvector point)")
    scale = 1 / sp.sqrt(sign * lam)
    return FrameResult(
        True,
        None,
        tuple(e1),
        tuple(e2),
        tuple(c * scale for c in canonical(Je2)),
        # J^2 = sign * id on the complement; -1 is the elliptic case
        sign,
        normalize(-lam),
        tuple(notes),
    )


def signature_report(pair: WeylPair, pts) -> dict:
    """Determinant (a constant for the ansatz) and inertia at sample
    points; the sign pattern is reported, not asserted."""
    out = {"det": to_text(pair.g.det()), "points": []}
    for p in pts:
        subs = {c: sp.Rational(q) for c, q in zip(_COORDS, p)}
        gval = pair.g.xreplace(subs)
        rows = []
        exact = True
        for i in range(3):
            row = []
            for j in range(3):
                e = gval[i, j]
                if e.is_Rational:
                    row.append(as_fraction(e))
                else:
                    exact = False
                    row.append(Fraction(float(sp.N(gval[i, j], 30))))
            rows.append(row)
        pos, neg, zero = inertia(rows)
        out["points"].append(
            {
                "point": tuple(map(str, p)),
                "inertia": (pos, neg, zero),
                "exact": exact,
            }
        )
    return out


# ---------------------------------------------------------------------------
# catalog

CATALOG_IDS = (
    "trivial",
    "dkp-partial",
    "hierarchy",
    "exp-family",
    "sl2-family",
    "sl2-degenerate",
)


def _tfunc(p, default_name: str) -> sp.Expr:
    if p is None:
        return formal(default_name)
    if isinstance(p, str):
        return formal(p)
    e = sp.sympify(p)
    for s in e.free_symbols:
        if s != T and not is_formal_symbol(s):
            raise ValueError(f"catalog parameter must depend on t only, got {s}")
    return e


def catalog(cid: str, f=None, h=None, w=None) -> Solution:
    """The explicit solutions: each id returns the printed closed form.

    ``f`` and ``h`` are functions of t (formal by default); ``hierarchy``
    takes a potential w(t,x,y) solving the hierarchy equation (default
    x^3) and returns the section (w_x, -w_y).
    """
    if cid == "trivial":
        return Solution(0, 0, name=cid)
    if cid == "dkp-partial":
        return Solution(
            0, Y**4 / 12 + X * Y + _tfunc(h, "h"), name=cid
        )
    if cid == "hierarchy":
        sf, r, wx, wy = _hierarchy(X**3 if w is None else w)
        if not sf.vanishes(r):
            raise SolutionError(
                f"potential does not solve the hierarchy equation: {to_text(sf.expr(r))}"
            )
        return Solution(sf.expr(wx), sf.expr(-wy), name=cid)
    if cid == "exp-family":
        return Solution(
            X + sp.exp(Y),
            _tfunc(f, "f") + _tfunc(h, "h") * sp.exp(-Y),
            name=cid,
        )
    if cid == "sl2-family":
        u = Y ** sp.Rational(2, 3) - sp.Rational(10, 3) * X / Y
        v = (
            sp.Rational(2, 5) * X * Y ** sp.Rational(-1, 3)
            - sp.Rational(7, 3) * X**2 / Y**2
            + sp.Rational(21, 25) * Y ** sp.Rational(4, 3)
            + (_tfunc(f, "f") * Y ** sp.Rational(1, 3) + _tfunc(h, "h")) * Y**2
        )
        return Solution(u, v, name=cid, domain="y > 0")
    if cid == "sl2-degenerate":
        u = -sp.Rational(10, 3) * X / Y
        v = (
            -sp.Rational(7, 3) * X**2 / Y**2
            + (_tfunc(f, "f") * Y ** sp.Rational(1, 3) + _tfunc(h, "h")) * Y**2
        )
        return Solution(u, v, name=cid, domain="y > 0")
    raise ValueError(f"unknown catalog id {cid!r}; known: {CATALOG_IDS}")


def dkp_reduction_check() -> bool:
    """With u = 0 the second equation is the dKP equation
    v_tx + v_x^2 + v v_xx - v_yy = 0 (on jets)."""
    system = ms_system()
    kill_u = {
        s: sp.Integer(0)
        for s in system.F2.free_symbols
        if is_jet_symbol(s) and jet_info(s)[0] == "u"
    }
    vtx, vxx, vyy = jet("v", "tx"), jet("v", "xx"), jet("v", "yy")
    vx, v = jet("v", "x"), jet("v")
    dkp = vtx + vx**2 + v * vxx - vyy
    return is_zero(system.F2.xreplace(kill_u) - dkp)


def _hierarchy(w) -> tuple:
    """(field, residual, w_x, w_y) of a closed-form potential w, the last
    three as elements of the field of w."""
    sf = SectionField((validate_kernel(sp.sympify(w), allow_exp=True),))
    d = sf.partial
    wx, wy = d(sf.values[0], "x"), d(sf.values[0], "y")
    return sf, d(wx, "t") + wx * d(wx, "y") - wy * d(wx, "x") - d(wy, "y"), wx, wy


def hierarchy_residual(w) -> sp.Expr:
    """Left-hand side of the hierarchy equation on a closed-form potential:
    w_tx + w_x w_xy - w_y w_xx - w_yy."""
    sf, r, _, _ = _hierarchy(w)
    return sf.expr(r)


def hierarchy_reduction_check() -> bool:
    """For sections u = w_x, v = -w_y the equation residuals are the x- and
    (minus the) y-derivative of the hierarchy left-hand side.  Checked with
    an undetermined potential."""
    Wf = sp.Function("w")
    w = Wf(T, X, Y)
    F = (
        sp.diff(w, T, X)
        + sp.diff(w, X) * sp.diff(w, X, Y)
        - sp.diff(w, Y) * sp.diff(w, X, X)
        - sp.diff(w, Y, Y)
    )
    system = ms_system()
    rep = {}
    for G in system.equations:
        for s in G.free_symbols:
            if is_jet_symbol(s):
                dep, idx = jet_info(s)
                base = sp.diff(w, X) if dep == "u" else -sp.diff(w, Y)
                rep[s] = sp.diff(base, T, idx.nt, X, idx.nx, Y, idx.ny)
    r1 = sp.expand(system.F1.xreplace(rep) - sp.diff(F, X))
    r2 = sp.expand(system.F2.xreplace(rep) + sp.diff(F, Y))
    return r1 == 0 and r2 == 0


# ---------------------------------------------------------------------------
# invariants on solutions


def invariants_on_solution(sol: Solution) -> tuple[sp.Expr, sp.Expr, sp.Expr]:
    """I1, I2, I3 with the section's derivatives substituted."""
    from .invariants import invariant

    return tuple(sol.jet_subs(invariant(i)) for i in (1, 2, 3))


def sl2_structure_report(sol: Solution, constants=None) -> dict:
    """Cleared-denominator consistency of the structure constants on a
    solution with u_xx = 0.

    The printed constants live on a stratum where every K is 0/0; the
    honest algebraic statement is that the numerator and denominator of
    K_i - k_i both vanish on the section.  That is verified here, and the
    report flags the check as indeterminate: it is consistent with the
    printed values but cannot pin them from this stratum alone.
    """
    from .invariants import structure_K

    if constants is None:
        constants = {
            1: sp.Integer(1),
            2: sp.Integer(0),
            3: sp.Rational(9, 50),
            4: sp.Rational(-9, 500),
        }
    out = {"entries": [], "indeterminate": None}
    any_indet = False
    for i in (1, 2, 3, 4):
        src, num, den = _jet_polys(structure_K(i) - constants[i])
        _, ((nval, _), (dval, _)) = sol.field._evaluate(src, (num, den))
        nval, dval = map(sol.field._reduced, (nval, dval))
        any_indet = any_indet or not dval
        out["entries"].append(
            {
                "k": i,
                "constant": str(constants[i]),
                "numerator_vanishes": not nval,
                "denominator_vanishes": not dval,
            }
        )
    out["indeterminate"] = any_indet
    return out
