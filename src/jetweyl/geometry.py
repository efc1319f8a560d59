"""Weyl geometry of solutions: metric pair, connection, curvature, frame.

A solution section (u, v) determines a metric and covector on the base by
the fixed ansatz; this module builds the Weyl connection of that pair,
checks the Einstein property, constructs the order-2 canonical frame at a
point in closed form, and carries the catalog of explicit solutions with
their reduction checks.

The section's derivatives, its equation residuals, the metric pair, the
connection, the curvature and the invariants along it are held only as
elements of one exact differential field (:class:`SectionField`).  Sympy
expressions are converted into it once, and field elements back only for
values that are returned, printed or sampled.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import sympy as sp

from .errors import (
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
    _CONSTANT_KEYS,
    _joint_constants,
    _prime_radicals,
    _rescaled,
    formal,
    is_formal_symbol,
    is_jet_symbol,
    jet,
    jet_info,
    to_text,
    validate_kernel,
)
from .jets import _coordinates, _equations, _jet_ring, _support
from .trees import _Rescaled, _ring_for
from .linalg import _cofactors
from .syntax import CATALOG_IDS
from . import symmetry as _symmetry

__all__ = [
    "SectionField",
    "Solution",
    "WeylPair",
    "Connection",
    "CORRECTION_SIGN",
    "build_pair",
    "weyl_connection",
    "skew_anchor_residual",
    "EWReport",
    "check_EW",
    "FrameResult",
    "canonical_frame",
    "catalog",
    "CATALOG_IDS",
    "dkp_reduction_check",
    "hierarchy_reduction_check",
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
    of ``trees._Rescaled`` (radicals reduced by R^M = p).  d/dt, d/dx and
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
        self._base = {b: ring.gen(b.name) for b in BASE_SYMBOLS}
        # d -> (images, refused generators) of d/dd, as ``_JetRing.lift`` takes them
        images = {b.name: ([(ring.index[b.name], ring.field.one)], {}) for b in BASE_SYMBOLS}
        # gen -> how its value reads at a rational point (see ``at``):
        # ("root", i, m) for b^(1/m), ("exp", i, s) for exp(s*b), b the
        # i-th base variable, and ("constant", None, (p, 1/M)) for p^(1/M)
        self._readings = {}
        for gen, atom in self.back.items():
            if not atom.free_symbols:
                p, M = _CONSTANT_KEYS[gen]
                self._readings[gen] = ("constant", None, (p, Fraction(1, M)))
                continue
            if isinstance(atom, sp.exp):
                (b,) = atom.args[0].free_symbols
                s = atom.args[0].coeff(b)
                s = Fraction(int(s.p), int(s.q))
                image = ring.gen(gen) * s
                self._readings[gen] = ("exp", BASE_SYMBOLS.index(b), s)
            else:
                b, m = atom.base, atom.exp.q
                image = 1 / (m * ring.gen(gen) ** (m - 1))
                self._base[b] = ring.gen(gen) ** m
                self._readings[gen] = ("root", BASE_SYMBOLS.index(b), int(m))
            images[b.name][0].append((ring.index[gen], image))
        # formal derivatives of the highest order carried have no d/dt
        past = f"d/dt of a formal derivative of order past {_FIELD_DERIVATIVES} beyond those"
        for s in ring.extras:
            if type(s) is str:
                # a formal derivative a^(m), keyed by its name
                if s + "'" in ring.index:
                    images["t"][0].append((ring.index[s], ring.gen(s + "'")))
                else:
                    images["t"][1][ring.index[s]] = (JetOrderError, f"{past} of the section")
        self._images = images
        # d -> d/dd lifted once (``_JetRing.lift``)
        self._lifted: dict = {}
        self._jets: dict = {}

    def partial(self, f, d: str):
        """The partial derivative d/dd of a field element (d = t, x or y)."""
        lifted = self._lifted.get(d)
        if lifted is None:
            lifted = self._lifted[d] = self.ring.lift(*self._images[d])
        return self.ring.apply(f, lifted)

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

    def subs(self, f):
        """An element of a jet ring (a rational function of jet coordinates,
        t, x, y and formal functions) with the section's derivatives in
        place of the jets: its numerator and denominator are evaluated at
        them."""
        return self._quotient(
            f, self._value, lambda: f"the denominator of {f.as_expr()} vanishes on the section"
        )

    def occurring(self, elements=None) -> tuple:
        """(formal functions, {auxiliary generator: its atom}) of the
        generators that occur in the elements, by default the values.  The
        field of a potential keeps generators that its section's values
        have lost."""
        elements = self.values if elements is None else elements
        present = set().union(*map(self.ring.present, elements))
        gens = [s for i, s in enumerate(self.ring.symbols) if i in present]
        aux = {s: self.back[s] for s in gens if s in self.back}
        return tuple(filter(is_formal_symbol, gens)), aux

    # -- moving the section -------------------------------------------------

    def moved(self, element) -> "SectionField":
        """The field of the section pushed through a pseudogroup element,
        with the moved (u, v) as its values.

        The new section at (t, x, y) is the old one at the preimage point
        plus the fibre terms, with every function of t taken at the
        preimage time t_s = D^-1(t).  The field of t_s, sqrt(D') and ee, a,
        b, c at t_s holds the preimage point and the fibre coefficients
        (:func:`_preimage`) and the image of each generator of this field
        (:meth:`_pushed`); u and v are evaluated there and the fibre terms
        added.  Solutions map to solutions."""
        ts = element.dinv
        at_ts = (e.xreplace({T: ts}) for e in (element.ee, element.a, element.b, element.c))
        target, data, (u, v) = self._pushed(
            (ts, element.root, *at_ts), self.values, "transformed section", _preimage
        )
        _, xs, ys, E, Ep, Epp, Ap, Bp, C, Cp = data
        s = target.values[1]
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
        target, _, (u, v) = self._pushed(
            point, self.values, "reflected section", lambda F: F.values[:3]
        )
        return target._with_values((u * sign, v))

    def at(self, point, elements) -> tuple:
        """(C, the elements at the rational point (t, x, y) as elements of
        C), for C a ring of constants (``trees._Rescaled``).

        t, x and y go to the point's coordinates.  b^(1/m) goes to q^(1/m)
        for the coordinate q of b, a rational times prime radicals p^r with
        0 < r < 1 (``exprcore._prime_radicals``), and exp(s*b) to exp(s*q),
        a power of exp(1/M).  A constant p^(1/M) of the section stays, as a
        power of p^(1/M') when the point brings the same prime and the
        joint denominator is M'.  Formal functions stay.  No expression is
        read: C holds one generator per prime (and one for e) as the
        rescaling makes them (``exprcore._joint_constants``), and the
        elements are pushed by ``_quotient``.  A denominator that vanishes
        at the point raises ``DivisionByZeroExpression``, and a fractional
        power of a coordinate that is not positive ``SolutionError``."""
        point = [Fraction(int(q.p), int(q.q)) for q in map(sp.Rational, point)]

        def what() -> str:
            return f"the section at ({', '.join(map(str, point))})"

        formals, aux = self.occurring(elements)
        # generator -> (c, [(p, r)]): its value c * prod p^r, p = 0 for e
        parts = {}
        for gen, atom in aux.items():
            kind, i, k = self._readings[gen]
            if kind == "constant":
                parts[gen] = Fraction(1), [k]
            elif kind == "exp":
                r = k * point[i]
                parts[gen] = Fraction(1), ([(0, r)] if r else [])
            elif point[i] > 0:
                c, radicals = _prime_radicals(point[i], Fraction(1, k))
                parts[gen] = c, list(radicals.items())
            else:
                raise SolutionError(
                    f"{what()} leaves the representable domain: "
                    f"{atom} moves to a fractional power of {point[i]}"
                )
        joint = _joint_constants(parts)
        ring = _ring_for(0, formals, aux=tuple(gen for _, gen, _ in joint.values()))
        C = _Rescaled(ring, {gen: value for _, gen, value in joint.values()})
        dtype, n = ring.ring.dtype, len(ring.keys)

        def element(c: Fraction, terms):
            up, down = [0] * n, [0] * n
            for p, r in terms:
                M, gen, _ = joint[p]
                e = int(r * M)
                if e > 0:
                    up[ring.index[gen]] = e
                else:
                    down[ring.index[gen]] = -e
            numer = dtype({tuple(up): c.numerator} if c else {})
            return ring.field.raw_new(numer, dtype({tuple(down): c.denominator}))

        images = {b: element(q, ()) for b, q in zip(BASE_SYMBOLS, point)}
        images.update((gen, element(*parts[gen])) for gen in aux)

        def value(s):
            got = images.get(s)
            return ring.gen(s) if got is None else got

        return C, [C._quotient(f, value, lambda: f"{what()} has a pole") for f in elements]

    def _pushed(self, exprs, elements, what: str, preimage) -> tuple:
        """(F, ``preimage(F)``, the images of the elements in F) for the
        point map of a move or a reflection whose preimage of (t, x, y)
        begins ``preimage(F)``.

        F holds exprs and, of the generators that occur in the elements
        (:meth:`occurring`), the formal functions (which map to themselves)
        and, built again, the image of every auxiliary one (see
        ``_image_atom``); an image outside the term language is refused
        with a ``SolutionError``, and an element whose image has a pole
        with a ``DivisionByZeroExpression``."""
        formals, aux = self.occurring(elements)
        try:
            F = SectionField((*exprs, *formals))
            data = preimage(F)
            if aux:
                # an image depends on the preimage point alone
                atoms = tuple(_image_atom(F, data[:3], atom) for atom in aux.values())
                F = SectionField((*exprs, *formals, *atoms))
                data = preimage(F)
        except ExprError as exc:
            raise SolutionError(f"{what} leaves the representable domain: {exc}") from None
        images = dict(zip(BASE_SYMBOLS, data))
        images.update(zip(aux, F.values[len(exprs) + len(formals) :]))

        def value(s):
            return images[s] if s in images else F.ring.gen(s)

        moved = [F._quotient(f, value, lambda: f"{what} has a pole") for f in elements]
        return F, data, moved

    def _with_values(self, values) -> "SectionField":
        """This field with other values (and no jets taken yet)."""
        out = copy.copy(self)
        out.values = tuple(values)
        out._jets = {}
        return out


def _preimage(F: SectionField) -> tuple:
    """(t_s, x_s, y_s, E, E', E'', A', B', C, C') of a pseudogroup element
    in a field F whose values begin with t_s = D^-1(t), sqrt(D') and ee, a,
    b, c at t_s: the preimage of the running point (t, x, y), then ee, its
    first two derivatives, a', b', c and c', each at t_s.

    D is affine, so f'(t_s) = D' * d/dt f(t_s), a derivative in F.  The
    point map is triangular (new t depends on t alone, new y on t and y,
    new x on all three), so the inverse is closed-form."""
    ts, s, E, A, B, C = F.values[:6]

    def d(f):
        return s * s * F.partial(f, "t")

    Ep = d(E)
    ys = (F._base[Y] - B) / (s * E)
    xs = (F._base[X] - E * Ep * ys**2 - C * ys - A) / E**2
    return ts, xs, ys, E, Ep, d(Ep), d(A), d(B), C, d(C)


def _image_atom(F: SectionField, point, atom) -> sp.Expr:
    """The image of the value of an auxiliary generator under a point map
    whose preimage of (t, x, y) is ``point`` (elements of F).

    A constant stays fixed.  exp(c*b) goes to exp(c*b_s), which must be
    linear in t, x, y over QQ, and b^(1/m) to (q*b)^(1/m), for which b_s
    must be q*b with a positive constant q (a move or a reflection keeps
    b in b_s).  Anything else leaves the term language (``ExprError``)."""
    if not atom.free_symbols:
        return atom
    if isinstance(atom, sp.exp):
        (b,) = atom.args[0].free_symbols
        f = point[BASE_SYMBOLS.index(b)]
        bases = {F.ring.index[s.name] for s in BASE_SYMBOLS}
        linear = (
            not _support(f.denom)
            and set(F.ring.present(f)) <= bases
            and all(sum(m) <= 1 for m in f.numer)
        )
        if not linear:
            raise ExprError(
                f"{atom} moves to exp of {F.expr(f)}, which is not linear in t, x, y over QQ"
            )
        return sp.exp(atom.args[0].coeff(b) * F.expr(f))
    b = atom.base
    f = point[BASE_SYMBOLS.index(b)]
    constants = {F.ring.index[g] for g, value in F.back.items() if not value.free_symbols}
    q = f / F._base[b]
    r = F.rational(q)  # a rational q needs no tree
    constant = set(F.ring.present(q)) <= constants
    q = sp.Rational(r) if r is not None else (F.expr(q) if constant else None)
    if q is None or not q.is_positive:
        raise ExprError(f"{atom} moves to a fractional power of {F.expr(f)}")
    return q**atom.exp * b**atom.exp


def _closed_form(e, rule: str) -> sp.Expr:
    """``e`` in the term language, refused with a ``SolutionError`` that
    states the ``rule`` when it holds a jet coordinate of positive order."""
    e = validate_kernel(sp.sympify(e), allow_exp=True)
    if any(is_jet_symbol(s) and jet_info(s)[1].order > 0 for s in e.free_symbols):
        raise SolutionError(f"{rule}, not jet coordinates")
    return e


# formal functions of t are carried with this many more derivatives than
# occur: the twelve invariants have order three, and i_regular takes one
# derivative more
_FIELD_DERIVATIVES = 4


class Solution:
    """A section u = u(t,x,y), v = v(t,x,y) of the equation system.

    Closed forms in the base variables plus formal functions of t; the two
    equation residuals are checked at construction unless deferred.  The
    deferred path is the one ``check-solution`` takes for user input, which
    it reports on rather than refuses, and the one of negative controls.
    Derivatives, residuals and geometry are computed in the section's
    differential field (:class:`SectionField` of (u, v)), built on first
    use.

    Moves, reflections and the ``hierarchy`` entry are built from a field
    whose values are (u, v) already (:meth:`_of`).  Such a solution holds
    no trees: ``u`` and ``v`` are the field's canonical expressions of its
    values, read on first use and kept, and it prints as those.
    """

    checked = False
    _pair: WeylPair | None = None
    _residual_elements: tuple | None = None

    def __init__(self, u, v, name: str = "user", domain: str = "", deferred: bool = False):
        self.u, self.v = (_closed_form(e, "a section is given by closed forms") for e in (u, v))
        self.name = name
        self.domain = domain
        if not deferred:
            self.require_solution()

    @classmethod
    def _of(cls, sf: SectionField, name: str, domain: str = "") -> "Solution":
        """The solution whose field is ``sf`` (values (u, v)); its residuals
        are checked there."""
        sol = cls.__new__(cls)
        sol.field, sol.name, sol.domain = sf, name, domain
        return sol.require_solution()

    @cached_property
    def field(self) -> SectionField:
        return SectionField((self.u, self.v))

    @cached_property
    def u(self) -> sp.Expr:
        return self.field.expr(self.field.values[0])

    @cached_property
    def v(self) -> sp.Expr:
        return self.field.expr(self.field.values[1])

    def _residuals(self) -> tuple:
        """F1, F2 at the section as field elements, computed once."""
        if self._residual_elements is None:
            self._residual_elements = tuple(map(self.field.subs, _equations()))
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

    def _positive(self) -> list:
        """The base variables that must stay positive: y where the domain
        says so, and every base variable with a fractional power in the
        section, which is real only there."""
        _, atoms = self.field.occurring()
        positive = {a.base for a in atoms.values() if a.is_Pow} & set(_COORDS)
        if self.domain == "y > 0":
            positive.add(Y)
        return [b for b in _COORDS if b in positive]

    def in_domain(self, pt) -> bool:
        """Whether (t, x, y) lies where the section is real."""
        return all(sp.Rational(pt[_COORDS.index(b)]) > 0 for b in self._positive())

    def domain_error(self, pt) -> SolutionError:
        """The error for a point outside :meth:`in_domain`."""
        bounds = ", ".join(f"{b} > 0" for b in self._positive())
        return SolutionError(f"point {pt} violates the domain ({bounds})")

    def transform(self, element) -> "Solution":
        """Push the section through a pseudogroup element
        (:meth:`SectionField.moved`)."""
        return self._of(self.field.moved(element), f"{self.name}|moved", self.domain)

    def reflect(self, which: str) -> "Solution":
        """Reflect the section (:meth:`SectionField.reflected`)."""
        return self._of(self.field.reflected(which), f"{self.name}|{which}", self.domain)

    def __str__(self) -> str:
        return f"u = {to_text(self.u)}; v = {to_text(self.v)}"


# ---------------------------------------------------------------------------
# metric pair and connection


@dataclass(frozen=True)
class WeylPair:
    """The ansatz metric and covector of a section, as elements of the
    section's field: ``g`` as rows, ``omega`` as its (dt, dx, dy)
    components."""

    solution: Solution
    field: SectionField
    g: tuple
    omega: tuple
    # correction sign -> the pair's Weyl connection
    _connections: dict = field(default_factory=dict, repr=False, compare=False)


def _rows(vals) -> tuple:
    return tuple(tuple(vals[3 * i : 3 * i + 3]) for i in range(3))


def build_pair(sol: Solution) -> WeylPair:
    """The ansatz metric and covector of a section (one pair per section)."""
    if sol._pair is None:
        sf = sol.field
        g, w = _symmetry._ansatz()
        rows = tuple(tuple(map(sf.subs, row)) for row in g)
        sol._pair = WeylPair(sol, sf, rows, tuple(map(sf.subs, w)))
    return sol._pair


class Connection:
    """Christoffel symbols Gamma[k][i][j] of a Weyl pair, symmetric in
    (i, j), as elements of the pair's field.

    ``ginv_f`` is the inverse metric and ``christoffel_f`` the corrected
    symbols; the curvature built from them is computed once.
    ``compat_sign`` is the verified sign of nabla g = compat_sign *
    omega x g.
    """

    def __init__(self, pair: WeylPair, correction_sign: int, ginv, christoffel):
        self.pair = pair
        self.correction_sign = correction_sign
        self.compat_sign = -correction_sign
        self.ginv_f, self.christoffel_f = ginv, christoffel
        self._ricci = None
        self._einstein = None

    def ricci_elements(self) -> tuple:
        """Rows of the Ricci tensor Ric(X, Y) = trace of Z -> R(Z, X)Y, not
        symmetrized (a Weyl connection has a skew Ricci part):

        Ric_ij = sum_k d_k Gamma^k_ij - d_i Gamma^k_kj
                 + Gamma^m_ij Gamma^k_km - Gamma^m_kj Gamma^k_im.
        """
        if self._ricci is None:
            sf, G = self.pair.field, self.christoffel_f
            trace = [sf.sum(G[k][k][m] for k in range(3)) for m in range(3)]
            self._ricci = _rows(
                [
                    sf.sum(sf.partial(G[k][i][j], _DIRS[k]) for k in range(3))
                    - sf.partial(trace[j], _DIRS[i])
                    + sf.sum(G[m][i][j] * trace[m] for m in range(3))
                    - sf.sum(G[m][k][j] * G[k][i][m] for k in range(3) for m in range(3))
                    for i in range(3)
                    for j in range(3)
                ]
            )
        return self._ricci

    def einstein_elements(self) -> tuple:
        """(Lambda, rows of Ric_sym - Lambda*g) as field elements, with
        Lambda = tr(g^-1 Ric_sym)/3."""
        if self._einstein is None:
            ric, g, ginv = self.ricci_elements(), self.pair.g, self.ginv_f
            cells = [(i, j) for i in range(3) for j in range(3)]
            rsym = {(i, j): (ric[i][j] + ric[j][i]) / 2 for i, j in cells}
            lam = self.pair.field.sum(ginv[j][i] * rsym[i, j] for i, j in cells) / 3
            resid = _rows([rsym[i, j] - lam * g[i][j] for i, j in cells])
            self._einstein = (lam, resid)
        return self._einstein

    def anchor_elements(self) -> tuple:
        """Rows of the curvature anchor residual: the skew part of Ricci
        minus 3/2 times d omega, both alternated tensors."""
        ric = self.ricci_elements()
        dw = _d_omega_of(self.pair.field, self.pair.omega)
        return _rows(
            [(ric[i][j] - ric[j][i]) / 2 - dw[i][j] * 3 / 2 for i in range(3) for j in range(3)]
        )


def _cube(entry) -> tuple:
    """Nested tuples [k][i][j] of entry(k, i, j)."""
    return tuple(
        tuple(tuple(entry(k, i, j) for j in range(3)) for i in range(3)) for k in range(3)
    )


def _inverse(sf: _Rescaled, g) -> tuple:
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

    The compatibility law nabla g = (sign) * omega x g is verified exactly,
    entry by entry; the achieved sign is recorded on the result (it is the
    negative of the correction sign).  A pair computes its connection once
    per sign.
    """
    if correction_sign is None:
        correction_sign = CORRECTION_SIGN
    if correction_sign not in (1, -1):
        raise ValueError("correction_sign must be +1 or -1")
    got = pair._connections.get(correction_sign)
    if got is not None:
        return got
    sf, g, w = pair.field, pair.g, pair.omega
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
    conn = Connection(pair, correction_sign, ginv, chris)
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


def _d_omega_of(sf: SectionField, w) -> tuple:
    """Rows of the exterior derivative of the covector as an alternated
    tensor: (d omega)_ij = (d_i w_j - d_j w_i) / 2."""
    return _rows(
        [
            (sf.partial(w[j], _DIRS[i]) - sf.partial(w[i], _DIRS[j])) / 2
            for i in range(3)
            for j in range(3)
        ]
    )


def skew_anchor_residual(conn: Connection) -> sp.Matrix:
    """Residual of the curvature anchor: skew part of Ricci minus 3/2 times
    d omega, both taken in the alternated-tensor convention.

    Zero for every solution under the default correction sign; the anchor
    fails under the flipped sign, which is the mutation observable."""
    return sp.Matrix([[conn.pair.field.expr(e) for e in row] for row in conn.anchor_elements()])


# ---------------------------------------------------------------------------
# Einstein check


@dataclass(frozen=True)
class EWPointCheck:
    point: tuple
    residual: float
    lam: object


@dataclass(frozen=True)
class EWReport:
    name: str
    exact: bool
    ok: bool
    lam: object
    points: tuple


def _sampled_residual(C: _Rescaled, rsym, lam_g, resid) -> float:
    """max|Ric_sym - Lambda*g| / (max|Ric_sym| + max|Lambda*g| + 1) of the
    entries at a point (elements of the field of constants C), each
    evaluated to 50 digits."""

    def size(values) -> float:
        return max(float(abs(sp.N(C.expr(e), 50))) for e in values)

    return size(resid) / (size(rsym) + size(lam_g) + 1.0)


def check_EW(
    sol: Solution,
    pts=(),
    correction_sign: int | None = None,
) -> EWReport:
    """Einstein property of the solution's Weyl structure.

    The verdict is exact: the trace-extracted factor Lambda and the
    residual tensor Ric_sym - Lambda*g are computed in the section's field,
    and ``ok`` holds exactly when every entry is zero.  Each given sample
    point gets the exact value of Lambda and a relative residual
    (:func:`_sampled_residual`, 0.0 when the tensor is zero), all read at
    the point by :meth:`SectionField.at`; these are reported, never
    decisive.
    """
    conn = weyl_connection(build_pair(sol), correction_sign)
    sf = conn.pair.field
    lam_f, resid_f = conn.einstein_elements()
    resid = [e for row in resid_f for e in row]
    exact = all(map(sf.vanishes, resid))
    pts = [tuple(p) for p in pts or ()]
    for p in pts:
        if not sol.in_domain(p):
            raise sol.domain_error(p)
    sampled = []
    if pts and not exact:
        free = sf.occurring(resid)[0]
        if free:
            raise SolutionError(
                f"bind formal parameters before numeric checks: {sorted(map(str, free))}"
            )
        ric = conn.ricci_elements()
        rsym = [(ric[i][j] + ric[j][i]) / 2 for i in range(3) for j in range(3)]
        sampled = [*rsym, *(lam_f * e for row in conn.pair.g for e in row), *resid]
    checks = []
    for p in pts:
        C, (lam, *values) = sf.at(p, (lam_f, *sampled))
        r = _sampled_residual(C, values[:9], values[9:18], values[18:]) if values else 0.0
        checks.append(EWPointCheck(p, r, C.expr(lam)))
    return EWReport(sol.name, exact, exact, sf.expr(lam_f), tuple(checks))


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


def canonical_frame(pair: WeylPair, pt) -> FrameResult:
    """Order-2 canonical frame at a point, from the pair's 1-jet data.

    e1 spans Ker(d omega) with omega(e1) = 1; e2 is the g-orthogonal
    projection of the raised covector to the complement of e1; e3 = J e2
    where J is g^{-1} d omega scaled so J^2 = -1 or +1 (the sign is exact
    and reported; the scaling introduces one square root).

    The point is taken exactly: g, omega and A = d omega there are
    constants of one field (:meth:`SectionField.at`), where the frame is
    built in closed form.  A
    nonzero skew A has rank 2, its kernel spanned by the dual vector
    (A12, -A02, A01).  J0 = g^{-1} A kills e1 and is g-skew on the
    complement of e1, so it squares to lam * id there with lam =
    tr(J0^2)/2, which is nonzero once g(e1, e1) is.
    """
    section = pair.field
    rows = (*pair.g, pair.omega, *_d_omega_of(section, pair.omega))
    sf, values = section.at(pt, [e for row in rows for e in row])
    g, w, A = _rows(values[:9]), values[9:12], _rows(values[12:])

    def dot(a, b):
        return sf.sum(x * y for x, y in zip(a, b))

    def times(m, vec) -> list:
        return [dot(row, vec) for row in m]

    if all(sf.vanishes(e) for row in A for e in row):
        return FrameResult(False, "d omega vanishes at the point")
    kernel = (A[1][2], -A[0][2], A[0][1])
    we1 = dot(w, kernel)
    if sf.vanishes(we1):
        return FrameResult(False, "omega(e1) = 0 at the point")
    e1 = [c / we1 for c in kernel]
    g11 = dot(e1, times(g, e1))
    if sf.vanishes(g11):
        return FrameResult(False, "Ker(d omega) is null at the point")
    ginv = _inverse(sf, g)
    # omega(e1) = 1, so the projection of g^{-1} omega subtracts e1 / g11
    e2 = [c - e / g11 for c, e in zip(times(ginv, w), e1)]
    J0 = [times(zip(*A), row) for row in ginv]  # g^{-1} A
    lam = sf.sum(J0[i][j] * J0[j][i] for i in range(3) for j in range(3)) / 2
    Je2 = times(J0, e2)
    notes = []
    if all(sf.vanishes(e2[i] * Je2[j] - e2[j] * Je2[i]) for i, j in ((0, 1), (0, 2), (1, 2))):
        # in the para case (J^2 = +1) the projected covector can land on a
        # J-eigenvector; the pair (e2, e3) then fails to span the plane
        notes.append("e3 is proportional to e2 (J-eigenvector point)")
    lam_value = sf.expr(lam)
    sign = 1 if lam_value > 0 else -1
    scale = 1 / sp.sqrt(sign * lam_value)
    return FrameResult(
        True,
        None,
        tuple(map(sf.expr, e1)),
        tuple(map(sf.expr, e2)),
        tuple(sf.expr(c) * scale for c in Je2),
        # J^2 = sign * id on the complement; -1 is the elliptic case
        sign,
        sf.expr(-lam),
        tuple(notes),
    )


# ---------------------------------------------------------------------------
# catalog

def _tfunc(p, default_name: str) -> sp.Expr:
    if p is None:
        return formal(default_name)
    if isinstance(p, str):
        return formal(p)
    e = sp.sympify(p)
    for s in e.free_symbols:
        if s != T and not is_formal_symbol(s):
            raise ExprError(f"catalog parameter must depend on t only, got {s}")
    return e


@lru_cache(maxsize=128, typed=True)
def catalog(cid: str, f=None, h=None, w=None) -> Solution:
    """The explicit solutions: each id returns the printed closed form.

    ``f`` and ``h`` are functions of t (formal by default); ``hierarchy``
    takes a potential w(t,x,y) solving the hierarchy equation (default
    x^3) and returns the section (w_x, -w_y).

    Each (id, f, h, w) is built once per process and shared: its field,
    jets, residual check, pair, connections and curvature are computed on
    the first verdict that needs them.  A ``Solution`` is not written to
    after construction, only filled in where it caches.  The keys are
    typed, so 1.0 does not find the exact entry of 1.
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
        return Solution._of(sf._with_values((wx, -wy)), cid)
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
    ring = _jet_ring(2)
    kill_u = {jet(dep, idx): ring.field.zero for _, dep, idx in _coordinates(2) if dep == "u"}
    vtx, vxx, vyy = jet("v", "tx"), jet("v", "xx"), jet("v", "yy")
    vx, v = jet("v", "x"), jet("v")
    dkp = ring.convert(vtx + vx**2 + v * vxx - vyy)
    return _substituted(ring, _equations()[1], kill_u) == dkp


def _substituted(ring, f, images: dict):
    """An element of a jet ring with the generators ``images`` names
    replaced by their images there, the others kept."""
    return _Rescaled(ring, {})._quotient(
        f, lambda s: images[s] if s in images else ring.gen(s), lambda: "a substituted pole"
    )


def _hierarchy(w) -> tuple:
    """(field, residual, w_x, w_y) of a closed-form potential w, the last
    three as elements of the field of w."""
    sf = SectionField((_closed_form(w, "a hierarchy potential is given by a closed form"),))
    d = sf.partial
    wx, wy = d(sf.values[0], "x"), d(sf.values[0], "y")
    return sf, d(wx, "t") + wx * d(wx, "y") - wy * d(wx, "x") - d(wy, "y"), wx, wy


def hierarchy_reduction_check() -> bool:
    """For sections u = w_x, v = -w_y the equation residuals are the x- and
    (minus the) y-derivative of the hierarchy left-hand side
    H = w_tx + w_x w_xy - w_y w_xx - w_yy.  Checked on jets of an
    undetermined potential: the jets of u stand for those of w, so that
    u_sigma -> w_{sigma+x} and v_sigma -> -w_{sigma+y}."""
    ring = _jet_ring(3)

    def w(index):
        return ring.gen(jet("u", index))

    H = w("tx") + w("x") * w("xy") - w("y") * w("xx") - w("yy")
    images = {}
    for _, dep, idx in _coordinates(2):
        images[jet(dep, idx)] = w(idx.bump("x")) if dep == "u" else -w(idx.bump("y"))
    F1, F2 = (_substituted(ring, ring.embed(F), images) for F in _equations())
    return F1 == ring.total(H, "x") and F2 == -ring.total(H, "y")


# ---------------------------------------------------------------------------
# invariants on solutions


def invariants_on_solution(sol: Solution) -> tuple[sp.Expr, sp.Expr, sp.Expr]:
    """I1, I2, I3 with the section's derivatives substituted."""
    from .invariants import _order3

    sf = sol.field
    return tuple(sf.expr(sf.subs(f)) for f in _order3().I)


# the printed structure constants K1-K4 of the sl2 family
_SL2_CONSTANTS = {1: Fraction(1), 2: Fraction(0), 3: Fraction(9, 50), 4: Fraction(-9, 500)}


def sl2_structure_report(sol: Solution) -> dict:
    """Cleared-denominator consistency of the structure constants on a
    solution with u_xx = 0.

    The printed constants live on a stratum where every K is 0/0; the
    honest algebraic statement is that the numerator and denominator of
    K_i - k_i both vanish on the section.  That is verified here, and the
    report flags the check as indeterminate: it is consistent with the
    printed values but cannot pin them from this stratum alone.
    """
    from .invariants import _order3

    sf = sol.field
    out = {"entries": [], "indeterminate": None}
    any_indet = False
    for i in (1, 2, 3, 4):
        f = _order3().K[i - 1] - _SL2_CONSTANTS[i]
        # each side as an element of its own, whose denominator is 1
        nzero, dzero = (sf.vanishes(sf.subs(f.field.raw_new(p))) for p in (f.numer, f.denom))
        any_indet = any_indet or dzero
        out["entries"].append(
            {
                "k": i,
                "constant": str(_SL2_CONSTANTS[i]),
                "numerator_vanishes": nzero,
                "denominator_vanishes": dzero,
            }
        )
    out["indeterminate"] = any_indet
    return out
