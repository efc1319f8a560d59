"""The expression-tree code the jet ring replaced, kept as the oracle of the
tests.

``tree_normalize`` is the sympy canonical form: ``together``, then
fractional powers of base variables and exponential atoms rescaled to
integer powers of auxiliary generators, then ``cancel``, then the
generators substituted back.  ``partial`` is the tree derivative: sympy's
``diff`` plus the formal chain rule d/dt a^(k) = a^(k+1), and
``tree_total_derivative`` the total derivative D_i built on it.
``tree_equations`` is F1, F2 transcribed from their definition with that
total derivative, independent of the package's written form, and
``written_equations`` the trees of that written form.
``tree_recurrence`` parses an equation of the system with ``sp.Poly`` into
the terms of the point recurrence, and ``fraction_principal_values`` is the
``Fraction`` Leibniz solve of the principal values that ``JetPoint`` ran
before it solved in integers.  ``tree_moved``
and ``tree_reflected`` compose a section with a pseudogroup element or a
reflection on trees and return the unnormalized result;
``tree_element_data`` reads a pseudogroup element's data at the preimage
time from trees, as a move did before it pushed them by the image rule,
and ``tree_element_checks`` checks its data with ``sp.Poly`` and
``count_roots``, as its constructor did before it checked them in the
field of t.
``tree_family`` is X_i(p) of the five symmetry families as they were
written by hand, and ``generating_section`` is phi_w = f^w - a^t w_t -
a^x w_x - a^y w_y of a point field, expanded on trees.
``poincare_function`` is the sympy form of a Poincare function of
``counts``, whose canonical text ``counts.poincare_text`` prints.
``TreeSection`` holds a section's derivatives, jet substitution and ansatz
pair on trees (the metric and covector written out again), and
``tree_d_omega`` is d omega of a tree covector.
``tree_at`` reads a section's field elements at a rational point the way
``SectionField.at`` did before it read them in integers: a field built from
the point's tree, the value of each auxiliary generator's atom at the point
taken from sympy, and a second field holding those values.
``two_field_moved`` and ``two_field_reflected`` move a section field the
way ``SectionField.moved`` and ``reflected`` did before they moved it in
the field: a field built from the trees of the map's data, the image of
each auxiliary generator as a tree (``tree_image_atom``), and a second
field built from the trees again, where the values are pushed.
``tree_canonical_frame`` is the order-2 canonical frame of a section by
sympy ``Matrix`` algebra (``nullspace``, ``inv`` and ``rank`` with the exact
zero test), from the tree pair.
``sympy_poly`` and ``jet_poly`` carry a polynomial of a jet ring to
sympy's ``PolyRing`` over ZZ on the same generators and back, so that
sympy's own polynomial arithmetic is the oracle of the ring's.
``tree_convert`` reads an expression into a jet ring the way the ring did
before it read trees itself: ``as_numer_denom``, then ``from_expr`` of
both sides, then one cancellation, with the refusals of that path.
``diff_derivation`` is the derivation of a jet ring built from sympy's
``PolyElement.diff``, ``lcm`` and ``cancel``.
``tree_text`` is the canonical text as ``exprcore.to_text`` printed every
canonical form from its sympy tree, in sympy's ``default_sort_key`` order:
the oracle of the jet field's printer ``jets.text``.
``tree_parse_expr`` and ``tree_parse_solution`` are the DSL as one stage:
a recursive-descent parser that builds the sympy tree as it reads the
tokens, and so raises its errors in the order it meets them, algebra
included.  Its positions count from the start of the whole text.
"""

import functools
import itertools
import math
import re
from dataclasses import dataclass

import sympy as sp
from sympy.polys.domains import ZZ
from sympy.polys.rings import PolyRing

from jetweyl.counts import _poincare
from jetweyl import geometry, syntax
from jetweyl.dsl import _build
from jetweyl.jets import EQUATIONS, _support
from jetweyl.errors import (
    DivisionByZeroExpression,
    ExprError,
    ParseError,
    PseudogroupError,
    SolutionError,
    UnknownSymbolError,
)
from fractions import Fraction

from jetweyl.exprcore import (
    BASE_SYMBOLS,
    T,
    X,
    Y,
    MultiIndex,
    formal,
    formal_shift,
    is_formal_symbol,
    is_jet_symbol,
    is_zero,
    jet,
    jet_info,
    normalize,
    resolve_symbol,
    validate_kernel,
)
from jetweyl.fields import PointField
from jetweyl.geometry import FrameResult
from jetweyl.trees import key_of, section_ring, symbol_of

_AUX = {
    name: sp.Dummy(name, positive=True)
    for base in BASE_SYMBOLS
    for name in (f"E{base.name}", base.name.upper())
}


def partial(e, s) -> sp.Expr:
    """Partial derivative in the term language.

    For s = t the formal chain rule applies: each formal symbol a^(k) in e
    contributes a^(k+1) * d e/d a^(k).  Jet symbols are independent
    coordinates here; total derivatives live in the jet ring.
    """
    e = sp.sympify(e)
    s = resolve_symbol(s)
    out = sp.diff(e, s)
    if s == T:
        for sym in e.free_symbols:
            if is_formal_symbol(sym):
                out += formal_shift(sym) * sp.diff(e, sym)
    return out


def tree_total_derivative(e, d: str) -> sp.Expr:
    """D_d e = d_d e + sum_sigma w_{sigma+d} * de/dw_sigma, on sympy trees."""
    e = sp.sympify(e)
    out = partial(e, d)
    for s in e.free_symbols:
        if is_jet_symbol(s):
            dep, idx = jet_info(s)
            out += jet(dep, idx.bump(d)) * sp.diff(e, s)
    return out


@functools.lru_cache(maxsize=None)
def sympy_ring(symbols: tuple) -> PolyRing:
    """sympy's polynomial ring over ZZ on the generators ``symbols``."""
    return PolyRing(symbols, ZZ)


def dense(ring, m) -> tuple:
    """The exponent tuple (one entry per generator) of a packed monomial of
    a jet ring's polynomial ring, read through ``ring.pairs``."""
    e = [0] * len(ring.keys)
    for i, n in ring.pairs(m):
        e[i] = n
    return tuple(e)


def sympy_poly(p):
    """A polynomial of a jet ring as an element of :func:`sympy_ring`, its
    monomials read through the ring's ``pairs``."""
    return sympy_ring(p.ring.symbols).from_dict({dense(p.ring, m): c for m, c in p.items()})


def jet_poly(ring, q):
    """An element of sympy's ring as a polynomial of the jet ring's
    polynomial ring ``ring``, with int coefficients, its monomials built
    through the ring's ``monom``."""
    return ring.dtype(
        {ring.monom((i, e) for i, e in enumerate(m) if e): int(c) for m, c in q.items()}
    )


def sympy_cancel(numer, denom) -> tuple:
    """sympy's ``PolyElement.cancel`` of a pair of jet-ring polynomials,
    computed in :func:`sympy_ring` and carried back."""
    return tuple(jet_poly(numer.ring, p) for p in sympy_poly(numer).cancel(sympy_poly(denom)))


def tree_convert(ring, e):
    """The field element of a rational expression in the generators of a
    jet ring, read by ``as_numer_denom`` and ``from_expr``: the free
    symbols are checked first, then floats, then the conversion, then the
    denominator."""
    e = sp.sympify(e)
    if e.is_Rational:
        one = ring.ring.one
        return ring.field.raw_new(one * int(e.p), one * int(e.q))
    for s in e.free_symbols:
        ring._generator(s)
    if e.has(sp.Float):
        raise ExprError(f"{e} has a floating-point coefficient")
    num, den = e.as_numer_denom()
    R = sympy_ring(ring.symbols)
    try:
        num, den = (jet_poly(ring.ring, R.from_expr(side)) for side in (num, den))
    except ValueError:
        if e.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
            raise DivisionByZeroExpression(f"{e} contains an undefined value") from None
        raise ExprError(f"{e} is not a rational function of the jet coordinates") from None
    if not den:
        raise DivisionByZeroExpression(f"zero denominator in {e}")
    return ring.field.raw_new(num) if den == 1 else ring.field.new(num, den)


def diff_derivation(ring, f, images):
    """sum_i images[i] * df/dg_i of a jet-ring element for (generator
    index, element) pairs: the images over their common denominator c
    (``PolyElement.lcm``), P -> sum_i n_i * P.diff(g_i) / c on numerator
    and denominator, and ``PolyElement.cancel``, all in sympy's ring."""
    R = sympy_ring(ring.symbols)
    images = [(i, sympy_poly(img.numer), sympy_poly(img.denom)) for i, img in images if img]
    c = R.one
    for _, _, den in images:
        c = c.lcm(den)
    polys = [(R.gens[i], num * c.exquo(den)) for i, num, den in images]

    def along(p):
        return sum((p.diff(g) * n for g, n in polys), R.zero)

    numer, denom = sympy_poly(f.numer), sympy_poly(f.denom)
    num = along(numer) * denom - numer * along(denom)
    return ring.field.raw_new(*(jet_poly(ring.ring, p) for p in num.cancel(c * denom**2)))


def tree_equations() -> tuple[sp.Expr, sp.Expr]:
    """F1 = D_x(u_t + u*u_y + v*u_x) - D_y(u_y) and
    F2 = D_x(v_t + v*v_x - u*v_y) - D_y(v_y - 2*u*v_x), transcribed from
    their definition with :func:`tree_total_derivative` and expanded."""
    u, v = jet("u"), jet("v")
    ut, ux, uy = (jet("u", d) for d in "txy")
    vt, vx, vy = (jet("v", d) for d in "txy")
    D = tree_total_derivative
    F1 = D(ut + u * uy + v * ux, "x") - D(uy, "y")
    F2 = D(vt + v * vx - u * vy, "x") - D(vy - 2 * u * vx, "y")
    return sp.expand(F1), sp.expand(F2)


def written_equations() -> tuple[sp.Expr, sp.Expr]:
    """F1 and F2 as sympy trees, built from the package's written form
    (``jets.EQUATIONS``)."""
    return tuple(_build(syntax.parse_expr(F)) for F in EQUATIONS)


def tree_recurrence(F, dep: str) -> tuple:
    """(c, terms) with F = c*w_tx + sum of terms, from ``sp.Poly`` of the
    tree F: each term a rational coefficient and its jet factors
    (dependent, (nt, nx, ny)), as many as the term's degree."""
    gens = sorted((s for s in F.free_symbols if is_jet_symbol(s)), key=sp.default_sort_key)
    c, terms = None, []
    for monom, coef in sp.Poly(F, *gens, domain="QQ").terms():
        factors = []
        for s, n in zip(gens, monom):
            d, idx = jet_info(s)
            factors += [(d, (idx.nt, idx.nx, idx.ny))] * n
        coef = Fraction(int(coef.p), int(coef.q))
        if factors == [(dep, (1, 1, 0))]:
            c = coef
        else:
            terms.append((coef, tuple(factors)))
    return c, tuple(terms)


def fraction_principal_values(internal: dict, order: int) -> dict:
    """The principal values of every order <= ``order`` at the point whose
    internal coordinates are ``internal`` ({(dependent, (nt, nx, ny)):
    rational}, unset ones 0), solved in ``Fraction``s: D_sigma F_w = 0 for
    w_{sigma+tx}, order by order and by ascending t-count within an order,
    with D_sigma of each term of the tree parse (``tree_recurrence``) by
    Leibniz's rule on the values already known."""
    values = {key: Fraction(q) for key, q in internal.items()}

    def coord(dep, idx):
        got = values.get((dep, idx))
        if got is None:
            assert not (idx[0] and idx[1]), f"{dep}_{idx} read before it was solved"
            return Fraction(0)
        return got

    recurrences = {dep: tree_recurrence(F, dep) for F, dep in zip(tree_equations(), "uv")}
    out = {}
    for m in range(2, order + 1):
        for nt in range(1, m):
            for nx in range(1, m - nt + 1):
                sigma = (nt - 1, nx - 1, m - nt - nx)
                shifts = [
                    (tau, math.prod(math.comb(n, j) for n, j in zip(sigma, tau)))
                    for tau in itertools.product(*(range(n + 1) for n in sigma))
                ]
                for dep in "uv":
                    lead, terms = recurrences[dep]
                    rest = Fraction(0)
                    for coef, factors in terms:
                        if len(factors) == 1:
                            (d, a), = factors
                            rest += coef * coord(d, _add(a, sigma))
                            continue
                        (d1, a), (d2, b) = factors
                        rest += coef * sum(
                            binom
                            * coord(d1, _add(a, tau))
                            * coord(d2, _add(b, _add(sigma, tau, -1)))
                            for tau, binom in shifts
                        )
                    key = (dep, (nt, nx, m - nt - nx))
                    values[key] = out[key] = -rest / lead
    return out


def _add(a, b, sign=1):
    return tuple(x + sign * y for x, y in zip(a, b))


def tree_family(i: int, p) -> PointField:
    """X_i(p) of the five symmetry families, written out by hand, with the
    t-derivatives of p taken by :func:`partial`; a string names a formal
    function."""
    p = formal(p) if isinstance(p, str) else sp.sympify(p)
    p1 = partial(p, "t")
    p2 = partial(p1, "t")
    u, v = jet("u"), jet("v")
    if i == 1:
        return PointField(ax=p, fv=p1)
    if i == 2:
        return PointField(ay=p, fu=p1)
    if i == 3:
        return PointField(ax=Y * p, fu=-2 * p, fv=u * p + Y * p1)
    if i == 4:
        return PointField(at=p, ay=p1 * Y / 2, fu=(Y * p2 - u * p1) / 2, fv=-p1 * v)
    return PointField(
        ax=Y**2 * p1 + 2 * X * p,
        ay=Y * p,
        fu=u * p - 3 * Y * p1,
        fv=Y**2 * p2 + 2 * Y * u * p1 + 2 * v * p + 2 * X * p1,
    )


@dataclass(frozen=True)
class GeneratingSection:
    """Contact components (phi_u, phi_v) of a point field; order-1 exprs."""

    phi_u: sp.Expr
    phi_v: sp.Expr


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


def tree_rescaled(e: sp.Expr) -> tuple[sp.Expr, dict]:
    """Fractional powers of base variables and exponential atoms as integer
    powers of auxiliary positive generators; constants stay as they are."""
    back = {}
    if e.has(sp.exp):
        e = sp.expand_power_exp(sp.powsimp(e, deep=True))
        for base in BASE_SYMBOLS:
            coeffs = {}
            for atom in e.atoms(sp.exp):
                c = atom.args[0].as_coefficient(base)
                if c is not None and c.is_Rational and c != 0:
                    coeffs[atom] = c
            if not coeffs:
                continue
            scale = sp.Rational(1, functools.reduce(sp.ilcm, [c.q for c in coeffs.values()], 1))
            gen = _AUX[f"E{base.name}"]
            e = e.xreplace({atom: gen ** int(c / scale) for atom, c in coeffs.items()})
            back[gen] = sp.exp(scale * base)
    for base in BASE_SYMBOLS:
        dens = [
            p.exp.q
            for p in e.atoms(sp.Pow)
            if p.base == base and p.exp.is_Rational and not p.exp.is_Integer
        ]
        if not dens:
            continue
        m = functools.reduce(sp.ilcm, dens, 1)
        gen = _AUX[base.name.upper()]
        e = e.xreplace({base: gen**m})
        back[gen] = base ** sp.Rational(1, m)
    return e, back


def tree_normalize(e) -> sp.Expr:
    """The canonical form computed by sympy's ``cancel`` on trees."""
    e = sp.sympify(e)
    if e.is_Rational:
        return e
    scaled, back = tree_rescaled(sp.together(e))
    canon = sp.cancel(scaled)
    if canon.has(sp.zoo, sp.nan):
        raise DivisionByZeroExpression(f"canonicalization produced an undefined value from {e}")
    return canon.xreplace(back) if back else canon


def tree_element_checks(d=T, a=0, b=0, c=0, ee=1) -> tuple[Fraction, Fraction]:
    """(alpha, beta) of the time map of a pseudogroup element's data, or the
    ``PseudogroupError`` of its refusal, checked on sympy trees as the
    element's constructor checked them: each datum a closed form in t, D
    affine by ``sp.Poly`` over QQ, and ee a rational function of t whose
    numerator and denominator have no real root (``Poly.count_roots``),
    positive at t = 0."""
    data = {name: sp.sympify(e) for name, e in zip(("d", "a", "b", "c", "ee"), (d, a, b, c, ee))}
    for name, e in data.items():
        for s in e.free_symbols:
            if s != T:
                raise PseudogroupError(f"{name} must be a closed form in t, found symbol {s}")
    try:
        poly = sp.Poly(data["d"], T, domain="QQ")
    except (sp.PolynomialError, sp.polys.polyerrors.CoercionFailed):
        poly = None
    if poly is None or poly.degree() != 1:
        raise PseudogroupError(
            "the time map D must be affine, alpha*t + beta over QQ with alpha > 0; "
            f"got {tree_text(data['d'])}"
        )
    alpha, beta = poly.all_coeffs()
    if not alpha > 0:
        raise PseudogroupError(f"D' (time dilation) must be positive; at t=0 it is {alpha}")
    e, what = data["ee"], "ee (scaling)"
    num, den = sp.fraction(sp.together(e))
    try:
        polys = [sp.Poly(p, T, domain="QQ") for p in (num, den)]
    except (sp.PolynomialError, sp.polys.polyerrors.CoercionFailed):
        raise PseudogroupError(f"{what} must be a rational function of t, got {tree_text(e)}") from None
    for p, part in zip(polys, ("zero", "pole")):
        if p.is_zero or p.count_roots() > 0:
            raise PseudogroupError(f"{what} has a real {part}: {tree_text(e)}")
    if not e.subs(T, 0) > 0:
        raise PseudogroupError(f"{what} must be positive; at t=0 it is {e.subs(T, 0)}")
    return Fraction(int(alpha.p), int(alpha.q)), Fraction(int(beta.p), int(beta.q))


def tree_dinv(element) -> sp.Expr:
    """D^-1(t) = t/alpha - beta/alpha of a pseudogroup element."""
    alpha, beta = map(sp.Rational, (element.element.alpha, element.element.beta))
    return T / alpha - beta / alpha


def tree_at_source(element) -> tuple:
    """(t_s, x_s, y_s, E, E', E'', A', B', C, C') of a pseudogroup element
    on trees: the preimage of (t, x, y), then ee, ee', ee'', a', b', c and
    c' at the preimage time t_s = D^-1(t); unnormalized."""
    ts = tree_dinv(element)

    def at(e):
        return sp.sympify(e).subs(T, ts)

    ee1 = partial(element.ee, "t")
    E, Ep, Epp = at(element.ee), at(ee1), at(partial(ee1, "t"))
    C = at(element.c)
    ys = (Y - at(element.b)) / (sp.sqrt(element.element.alpha) * E)
    xs = (X - E * Ep * ys**2 - C * ys - at(element.a)) / E**2
    Ap, Bp, Cp = (at(partial(e, "t")) for e in (element.a, element.b, element.c))
    return ts, xs, ys, E, Ep, Epp, Ap, Bp, C, Cp


def tree_element_data(element) -> tuple:
    """(ring, readings, values) of ee, a, b, c of a pseudogroup element at
    t_s = D^-1(t), the way a move read them before it moved them in the
    field: the trees at t_s (``xreplace``), read by
    ``trees.section_ring``; ``ExprError`` where that fails."""
    parts = (element.ee, element.a, element.b, element.c)
    return section_ring(tuple(e.xreplace({T: tree_dinv(element)}) for e in parts), 0)


def tree_moved(element, u_expr, v_expr) -> tuple[sp.Expr, sp.Expr]:
    """The section pushed through a pseudogroup element: the old section at
    the preimage point plus the fibre terms, every function of t taken at
    the preimage time; unnormalized."""
    ts, xs, ys = tree_at_source(element)[:3]

    def at_src(e):
        return sp.sympify(e).subs(T, ts)

    E = at_src(element.ee)
    Ep = at_src(partial(element.ee, "t"))
    Epp = at_src(partial(partial(element.ee, "t"), "t"))
    s = at_src(sp.sqrt(element.element.alpha))
    dprime = s**2
    Csrc = at_src(element.c)
    Aprime = at_src(partial(element.a, "t"))
    Bprime = at_src(partial(element.b, "t"))
    point_subs = {T: ts, X: xs, Y: ys}
    u_src = sp.sympify(u_expr).xreplace(point_subs)
    v_src = sp.sympify(v_expr).xreplace(point_subs)
    u_new = (
        (E / s) * u_src
        - (ys / E**2) * at_src(partial(element.ee**3 / sp.sqrt(element.element.alpha), "t"))
        + Bprime / dprime
        - 2 * Csrc / (E * s)
    )
    v_new = (
        (E**2 / dprime) * v_src
        + ((Csrc + 2 * E * Ep * ys) / dprime) * u_src
        + ((E * Epp - 3 * Ep**2) / dprime) * ys**2
        + (E**4 / dprime) * at_src(partial(element.c / element.ee**4, "t")) * ys
        + (2 * E * Ep / dprime) * xs
        + (E**2 * Aprime - Csrc**2) / (dprime * E**2)
    )
    return u_new, v_new


def tree_reflected(which, u_expr, v_expr) -> tuple[sp.Expr, sp.Expr]:
    """The section under the reflection ``txy`` (t, x, y -> -t, -x, -y) or
    ``yu`` (y, u -> -y, -u); unnormalized."""
    u_expr, v_expr = sp.sympify(u_expr), sp.sympify(v_expr)
    if which == "txy":
        flip = {T: -T, X: -X, Y: -Y}
        return u_expr.xreplace(flip), v_expr.xreplace(flip)
    flip = {Y: -Y}
    return -u_expr.xreplace(flip), v_expr.xreplace(flip)


def poincare_function(series: str) -> sp.Expr:
    """N(z)/(1 - z)^n for the integer table (N, n) of a series."""
    z = sp.Symbol("z")
    numerator, n = _poincare(series)
    return sum(c * z**j for j, c in enumerate(numerator)) / (1 - z) ** n


class TreeSection:
    """A section's derivatives and jet substitution on trees."""

    def __init__(self, sol):
        self.sol = sol
        self.cache = {}

    def jet(self, dep: str, index: MultiIndex) -> sp.Expr:
        got = self.cache.get((dep, index))
        if got is None:
            if index.order == 0:
                got = {"u": self.sol.u, "v": self.sol.v}[dep]
            else:
                d = "y" if index.ny else ("x" if index.nx else "t")
                got = partial(self.jet(dep, index.drop(d)), d)
            self.cache[(dep, index)] = got
        return got

    def subs(self, e) -> sp.Expr:
        rep = {s: self.jet(*jet_info(s)) for s in e.free_symbols if is_jet_symbol(s)}
        return e.xreplace(rep)

    def residuals(self):
        return tuple(self.subs(F) for F in tree_equations())

    def pair(self):
        """The ansatz metric g = -(u^2 + 4v) dt^2 + 4 dt dx + 2u dt dy - dy^2
        and covector omega = (u u_x + 2 u_y + 4 v_x) dt - u_x dy of the
        section, as a matrix and a (dt, dx, dy) column, unnormalized."""
        u, v = self.sol.u, self.sol.v
        ux, uy, vx = partial(u, "x"), partial(u, "y"), partial(v, "x")
        g = sp.Matrix([[-(u**2) - 4 * v, 2, u], [2, 0, 0], [u, 0, -1]])
        return g, sp.Matrix([u * ux + 2 * uy + 4 * vx, 0, -ux])


def tree_d_omega(w) -> sp.Matrix:
    """(d omega)_ij = (d_i w_j - d_j w_i) / 2 of a tree covector."""
    return sp.Matrix(
        3, 3, lambda i, j: (partial(w[j], BASE_SYMBOLS[i]) - partial(w[i], BASE_SYMBOLS[j])) / 2
    )


def occurring(sf, elements=None) -> tuple:
    """(formal functions, {auxiliary generator: its atom}) of the
    generators that occur in the elements of a section field (by default
    its values), as sympy symbols and atoms."""
    formals, aux = sf._present(elements)
    return tuple(map(symbol_of, formals)), {symbol_of(k): sf.back[symbol_of(k)] for k in aux}


def tree_at(sf, point, elements) -> tuple:
    """(C, the elements of the section field ``sf`` at the rational point
    as elements of C) through two section fields: one of the point and the
    formal functions that occur, then one that also holds the value of
    each auxiliary generator's atom at the point (:func:`_atom_at`), where
    the elements are pushed (``_quotient``).  The same refusals as
    ``SectionField.at``."""
    point = tuple(map(sp.Rational, point))
    what = f"the section at ({', '.join(map(str, point))})"
    formals, aux = occurring(sf, elements)
    try:
        F = geometry.SectionField((*point, *formals))
        if aux:
            atoms = tuple(_atom_at(atom, point) for atom in aux.values())
            F = geometry.SectionField((*point, *formals, *atoms))
    except ExprError as exc:
        raise SolutionError(f"{what} leaves the representable domain: {exc}") from None
    # the generators by their keys, as ``_quotient`` names them
    images = dict(zip(("t", "x", "y"), F.values[:3]))
    images.update(zip(map(key_of, aux), F.values[3 + len(formals) :]))

    def value(key):
        return images[key] if key in images else F.ring.gen(key)

    return F, [F._quotient(f, value, lambda: f"{what} has a pole") for f in elements]


def _atom_at(atom, point) -> sp.Expr:
    """An auxiliary generator's atom at a rational point, from sympy: the
    atom with the point's coordinates substituted.  A fractional power of
    a coordinate that is not positive leaves the term language
    (``ExprError``)."""
    at = dict(zip(BASE_SYMBOLS, point))
    if atom.is_Pow and atom.free_symbols and not atom.base.xreplace(at).is_positive:
        raise ExprError(f"{atom} moves to a fractional power of {atom.base.xreplace(at)}")
    return atom.xreplace(at)


def two_field_moved(sf, element):
    """The field of a section pushed through a pseudogroup element the way
    ``SectionField.moved`` did before it moved in the field: a field built
    from the trees of t_s, sqrt(D') and ee, a, b, c at t_s with the formal
    functions that occur, then (:func:`_two_field_pushed`) a second one
    that also holds the image of every auxiliary generator as a tree
    (:func:`tree_image_atom`); the preimage data are taken in each
    (:func:`_field_preimage`).  The same values and refusals as
    ``SectionField.moved``."""
    ts = tree_dinv(element)
    at_ts = (e.xreplace({T: ts}) for e in (element.ee, element.a, element.b, element.c))
    target, data, (u, v) = _two_field_pushed(
        sf, (ts, sp.sqrt(element.element.alpha), *at_ts), "transformed section", _field_preimage
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


def two_field_reflected(sf, which: str):
    """The field of a section under a reflection, through the two fields
    of :func:`_two_field_pushed`, as ``SectionField.reflected`` did."""
    if which == "txy":
        point, sign = (-T, -X, -Y), 1
    elif which == "yu":
        point, sign = (T, X, -Y), -1
    else:
        raise ValueError(f"reflection must be 'txy' or 'yu', got {which!r}")
    target, _, (u, v) = _two_field_pushed(
        sf, point, "reflected section", lambda F: F.values[:3]
    )
    return target._with_values((u * sign, v))


def _field_preimage(F) -> tuple:
    """(t_s, x_s, y_s, E, E', E'', A', B', C, C') of a pseudogroup element
    in a field F whose values begin with t_s, sqrt(D') and ee, a, b, c at
    t_s."""
    ts, s, E, A, B, C = F.values[:6]

    def d(f):
        return s * s * F.partial(f, "t")

    Ep = d(E)
    ys = (F._base["y"] - B) / (s * E)
    xs = (F._base["x"] - E * Ep * ys**2 - C * ys - A) / E**2
    return ts, xs, ys, E, Ep, d(Ep), d(A), d(B), C, d(C)


def _two_field_pushed(sf, exprs, what: str, preimage) -> tuple:
    """(F, ``preimage(F)``, the values of ``sf`` pushed to F) for a point
    map whose preimage of (t, x, y) begins ``preimage(F)``: F holds exprs,
    the formal functions that occur in the values and, built again, the
    tree image of every auxiliary one."""
    formals, aux = occurring(sf)
    try:
        F = geometry.SectionField((*exprs, *formals))
        data = preimage(F)
        if aux:
            # an image depends on the preimage point alone
            atoms = tuple(tree_image_atom(F, data[:3], atom) for atom in aux.values())
            F = geometry.SectionField((*exprs, *formals, *atoms))
            data = preimage(F)
    except ExprError as exc:
        raise SolutionError(f"{what} leaves the representable domain: {exc}") from None
    images = dict(zip(("t", "x", "y"), data))
    images.update(zip(map(key_of, aux), F.values[len(exprs) + len(formals) :]))

    def value(key):
        return images[key] if key in images else F.ring.gen(key)

    moved = [F._quotient(f, value, lambda: f"{what} has a pole") for f in sf.values]
    return F, data, moved


def tree_image_atom(F, point, atom) -> sp.Expr:
    """The image of the value of an auxiliary generator as a tree, under a
    point map whose preimage of (t, x, y) is ``point`` (elements of F).

    A constant stays fixed.  exp(c*b) goes to exp(c*b_s), which must be
    linear in t, x, y over QQ, and b^(1/m) to (q*b)^(1/m), for which b_s
    must be q*b with a positive constant q.  Anything else leaves the term
    language (``ExprError``)."""
    if not atom.free_symbols:
        return atom
    if isinstance(atom, sp.exp):
        (b,) = atom.args[0].free_symbols
        f = point[BASE_SYMBOLS.index(b)]
        bases = {F.ring.index[s.name] for s in BASE_SYMBOLS}
        linear = (
            not _support(f.denom)
            and set(F.ring.present(f)) <= bases
            and all(sum(e for _, e in F.ring.ring.pairs(m)) <= 1 for m in f.numer)
        )
        if not linear:
            raise ExprError(
                f"{atom} moves to exp of {F.expr(f)}, which is not linear in t, x, y over QQ"
            )
        return sp.exp(atom.args[0].coeff(b) * F.expr(f))
    b = atom.base
    f = point[BASE_SYMBOLS.index(b)]
    constants = {F.ring.index[k] for k in F._readings if k[0] == "radical"}
    q = f / F._base[b.name]
    r = F.rational(q)
    constant = set(F.ring.present(q)) <= constants
    q = sp.Rational(r) if r is not None else (F.expr(q) if constant else None)
    if q is None or not q.is_positive:
        raise ExprError(f"{atom} moves to a fractional power of {F.expr(f)}")
    return q**atom.exp * b**atom.exp


def tree_canonical_frame(sol, pt) -> FrameResult:
    """The order-2 canonical frame of a section at a point by sympy matrix
    algebra on its tree pair: e1 from ``nullspace`` of d omega, the inverse
    metric by ``inv``, and the scalar J^2 read off the projected coordinate
    basis."""

    def at(m: sp.Matrix) -> sp.Matrix:
        return m.xreplace(subs).applyfunc(normalize)

    def canonical(vec) -> tuple:
        return tuple(normalize(c) for c in vec)

    subs = {c: sp.Rational(q) for c, q in zip((T, X, Y), pt)}
    g, w = TreeSection(sol).pair()
    g, w, A = at(g), at(w), at(tree_d_omega(w))
    if all(e == 0 for e in A):
        return FrameResult(False, "d omega vanishes at the point")
    null = A.nullspace(iszerofunc=is_zero)
    if len(null) != 1:
        return FrameResult(False, "Ker(d omega) is not a line")
    we1 = normalize((w.T * null[0])[0])
    if we1 == 0:
        return FrameResult(False, "omega(e1) = 0 at the point")
    e1 = sp.Matrix(canonical(null[0] / we1))
    g11 = normalize((e1.T * g * e1)[0])
    if g11 == 0:
        return FrameResult(False, "Ker(d omega) is null at the point")
    ginv = g.inv(method="ADJ", iszerofunc=is_zero)

    def project(vec: sp.Matrix) -> sp.Matrix:
        return sp.Matrix(canonical(vec - ((vec.T * g * e1)[0] / g11) * e1))

    e2 = project(ginv * w)
    J0 = ginv * A
    basis = [project(sp.eye(3).col(i)) for i in range(3)]
    if sp.Matrix.hstack(*basis).rank(iszerofunc=is_zero) < 2:
        return FrameResult(False, "projection to the complement degenerates")
    lam = None
    for b in basis:
        nonzero = [c for c in range(3) if b[c] != 0]
        if not nonzero:
            continue
        JJb = J0 * (J0 * b)
        if lam is None:
            lam = normalize(JJb[nonzero[0]] / b[nonzero[0]])
        if not all(is_zero(JJb[c] - lam * b[c]) for c in range(3)):
            return FrameResult(False, "J^2 is not scalar on the complement")
    if lam is None or lam == 0:
        return FrameResult(False, "J^2 degenerates on the complement")
    sign = 1 if lam > 0 else -1
    Je2 = J0 * e2
    notes = []
    if sp.Matrix.hstack(e2, Je2).rank(iszerofunc=is_zero) < 2:
        notes.append("e3 is proportional to e2 (J-eigenvector point)")
    scale = 1 / sp.sqrt(sign * lam)
    return FrameResult(
        True,
        None,
        tuple(e1),
        tuple(e2),
        tuple(c * scale for c in canonical(Je2)),
        sign,
        normalize(-lam),
        tuple(notes),
    )


# ---------------------------------------------------------------------------
# the one-stage DSL parser

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*'*)
  | (?P<op>[-+*/^()=;])
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str  # 'int' | 'ident' | one of -+*/^()=;
    text: str
    pos: int


def _tokenize(text: str, offset: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", offset + pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup if m.lastgroup != "op" else m.group()
            tokens.append(_Token(kind, m.group(), offset + pos))
        pos = m.end()
    tokens.append(_Token("end", "", offset + len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, allow_exp: bool, offset: int = 0):
        self.text = text
        self.tokens = _tokenize(text, offset)
        self.i = 0
        self.allow_exp = allow_exp

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {self.cur.text or 'end of input'!r}",
                self.cur.pos,
            )
        return self.advance()

    def parse_expr(self) -> sp.Expr:
        node = self.parse_term()
        while self.cur.kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term(self) -> sp.Expr:
        node = self.parse_factor()
        while self.cur.kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.parse_factor()
            if op == "*":
                node = node * rhs
            else:
                if rhs == 0:
                    raise ParseError("division by zero literal", self.cur.pos)
                node = node / rhs
        return node

    def parse_factor(self) -> sp.Expr:
        if self.cur.kind == "-":
            self.advance()
            return -self.parse_factor()
        atom = self.parse_atom()
        if self.cur.kind == "^":
            self.advance()
            expo = self.parse_exponent()
            if expo.is_negative and atom == 0:
                raise ParseError("negative power of zero", self.cur.pos)
            atom = atom**expo
        return atom

    def parse_exponent(self) -> sp.Rational:
        sign = 1
        if self.cur.kind == "-":
            self.advance()
            sign = -1
        if self.cur.kind == "int":
            return sp.Integer(sign * int(self.advance().text))
        if self.cur.kind == "(":
            self.advance()
            if self.cur.kind == "-":
                self.advance()
                sign = -sign
            p = int(self.expect("int").text)
            q = 1
            if self.cur.kind == "/":
                self.advance()
                q = int(self.expect("int").text)
                if q == 0:
                    raise ParseError("zero denominator in exponent", self.cur.pos)
            self.expect(")")
            return sp.Rational(sign * p, q)
        raise ParseError(
            "exponent must be an integer or rational literal", self.cur.pos
        )

    def parse_atom(self) -> sp.Expr:
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            return sp.Integer(int(tok.text))
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            return self.parse_ident(tok)
        raise ParseError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
        )

    def parse_ident(self, tok: _Token) -> sp.Expr:
        name = tok.text
        if name == "exp":
            if not self.allow_exp:
                raise ParseError(
                    "exp(...) is not allowed in this context", tok.pos
                )
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return sp.exp(arg)
        if name in ("t", "x", "y", "u", "v"):
            if self.cur.kind == "(":
                raise ParseError(f"{name} does not take arguments", self.cur.pos)
            return resolve_symbol(name)
        if "_" in name:
            # a jet coordinate: u_tx, v_xxy, u_t3x2
            try:
                return resolve_symbol(name)
            except UnknownSymbolError:
                raise ParseError(f"unknown identifier {name!r}", tok.pos) from None
        # a formal function, applied to t: f(t), f''(t)
        base = name.rstrip("'")
        self.expect("(")
        arg = self.expect("ident")
        if arg.text != "t":
            raise ParseError(f"formal function {base!r} must be applied to t", arg.pos)
        self.expect(")")
        try:
            return formal(base, len(name) - len(base))
        except ValueError as exc:
            raise ParseError(str(exc), tok.pos) from None


def tree_parse_expr(text: str, allow_exp: bool = False) -> sp.Expr:
    parser = _Parser(text, allow_exp=allow_exp)
    node = parser.parse_expr()
    if parser.cur.kind != "end":
        raise ParseError(
            f"trailing input {parser.cur.text!r}", parser.cur.pos
        )
    return normalize(validate_kernel(node, allow_exp=allow_exp))


def tree_parse_solution(text: str, allow_exp: bool = True) -> dict[str, sp.Expr]:
    bindings: dict[str, sp.Expr] = {}
    for chunk in re.finditer(r"[^;\n]+", text):
        if not chunk.group().strip():
            continue
        parser = _Parser(chunk.group(), allow_exp=allow_exp, offset=chunk.start())
        head = parser.expect("ident")
        if head.text not in ("u", "v"):
            raise ParseError(
                f"solution bindings must assign u or v, got {head.text!r}", head.pos
            )
        parser.expect("=")
        node = parser.parse_expr()
        if parser.cur.kind != "end":
            raise ParseError(
                f"trailing input {parser.cur.text!r}", parser.cur.pos
            )
        if head.text in bindings:
            raise ParseError(f"duplicate binding for {head.text}", head.pos)
        node = normalize(validate_kernel(node, allow_exp=allow_exp))
        # in a fixed order, so that the message names the same jet each run
        for sym in sorted(node.free_symbols, key=sp.default_sort_key):
            if is_jet_symbol(sym):
                raise ParseError(
                    f"solution component may not reference jet coordinate {sym}",
                    head.pos,
                )
        bindings[head.text] = node
    missing = {"u", "v"} - set(bindings)
    if missing:
        raise ParseError(f"missing bindings for {', '.join(sorted(missing))}")
    return bindings


# ---------------------------------------------------------------------------
# the sympy printing of canonical forms


def _print_rational(q: sp.Rational) -> str:
    return str(q) if q >= 0 else f"({q})"


def _print_pow(base: sp.Expr, expo: sp.Rational) -> str:
    b = _print_term(base, wrap_mul=True)
    if expo.is_Integer and expo > 0:
        return f"{b}^{expo}"
    return f"{b}^({expo})"


def _print_term(e: sp.Expr, wrap_mul: bool = False) -> str:
    if e.is_Rational:
        return _print_rational(e)
    if isinstance(e, sp.Symbol):
        return f"{e.name}(t)" if is_formal_symbol(e) else e.name
    if isinstance(e, sp.Pow):
        return _print_pow(*e.args)
    inner = _print_expr(e)
    return f"({inner})" if (wrap_mul or isinstance(e, sp.Add)) else inner


def _print_product(e: sp.Expr) -> str:
    coeff, rest = e.as_coeff_Mul()
    factors = [f for f in sp.Mul.make_args(rest) if f != 1]
    parts = []
    if coeff != 1 or not factors:
        parts.append(_print_rational(coeff))
    for f in sorted(factors, key=sp.default_sort_key):
        parts.append(f"({_print_expr(f)})" if isinstance(f, sp.Add) else _print_term(f, wrap_mul=True))
    return "*".join(parts)


def _print_sum(e: sp.Expr) -> str:
    chunks = []
    for term in sorted(sp.Add.make_args(e), key=sp.default_sort_key):
        coeff, _ = term.as_coeff_Mul()
        chunks.append(("-" if coeff < 0 else "+", _print_product(-term if coeff < 0 else term)))
    out = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


def _print_expr(e: sp.Expr) -> str:
    if isinstance(e, sp.Add):
        return _print_sum(e)
    if e.as_coeff_Mul()[0] < 0:
        return "-" + _print_product(-e)
    return _print_product(e)


def tree_text(e) -> str:
    """The canonical text of a rational expression as ``exprcore.to_text``
    printed it from sympy trees: ``normalize``, ``sp.fraction`` of the
    canonical tree, and terms and factors in sympy's ``default_sort_key``
    order."""
    canon = normalize(e)
    if canon.is_Rational:
        return str(canon)
    num, den = sp.fraction(canon)
    if den == 1:
        return _print_expr(num)
    num_s = _print_expr(num)
    if isinstance(num, sp.Add) or num.as_coeff_Mul()[0] < 0:
        num_s = f"({num_s})"
    return f"{num_s}/{_print_term(den, wrap_mul=True)}"
