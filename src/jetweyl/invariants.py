"""Differential invariants of the symmetry action.

Three second-order invariants generate the field together with three
invariant derivations; their structure coefficients close the picture at
order three.  Everything here is rational in jet coordinates and lives
away from the singular locus {u_x = 0} union {u_xx = 0}.

The derivations, the structure coefficients, the commutator and identity
checks, the invariance proofs and the twelve signature invariants compute
in the jet ring (``jets._JetRing``, a sparse rational-function field whose
numerators and denominators have integer coefficients) from start to
finish: reduction on the equation is a substitution of generators and the
zero test looks at a numerator.  Sympy expressions are
converted once on the way in and once on the way out.  The reduction is
always that of the modified dispersionless system, whose principal table
the rings hold.  I1-I3, the derivations' coefficients and K1-K4 are
written once, as DSL text in ``jets``, and read once into the order-3 jet
ring (``jets._order3``); every consumer reads them there.  The trees of
:func:`invariant` and :func:`derivation` are built from the same text.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import sympy as sp

from .dsl import _build
from .errors import SingularLocusError
from .exprcore import is_formal_symbol, jet, jet_order
from .fields import ProlongedField
from .jets import (
    DERIVATIONS,
    INVARIANTS,
    EquationSystem,
    JetPoint,
    _apply_in,
    _order3,
    _poly_sums,
    internal_indices,
)
from .syntax import parse_expr
from .trees import _ring_for
from .linalg import _cofactors, rank
from .symmetry import _ansatz, generator

__all__ = [
    "invariant",
    "derivation",
    "apply_derivation",
    "structure_K",
    "CommutatorReport",
    "verify_derivation_commutators",
    "IdentityReport",
    "verify_identities",
    "verify_invariance",
    "CoframeReport",
    "coframe_rewrite",
    "independence_rank",
]

_ux = jet("u", "x")


def _tree(text: str) -> sp.Expr:
    """The sympy tree of a written definition, as written."""
    return _build(parse_expr(text))


@lru_cache(maxsize=None)
def invariant(i: int) -> sp.Expr:
    """The three generating second-order invariants."""
    if i not in (1, 2, 3):
        raise ValueError(f"invariant index must be 1..3, got {i}")
    return _tree(INVARIANTS[i - 1])


@lru_cache(maxsize=None)
def derivation(i: int) -> tuple[sp.Expr, sp.Expr, sp.Expr]:
    """The coefficients (c_t, c_x, c_y) of the invariant derivation
    nabla_i = c_t D_t + c_x D_x + c_y D_y; ``apply_derivation`` applies it
    with on-equation reduction."""
    if i not in (1, 2, 3):
        raise ValueError(f"derivation index must be 1..3, got {i}")
    return tuple(map(_tree, DERIVATIONS[i - 1]))


def apply_derivation(i: int, e, system: EquationSystem | None = None) -> sp.Expr:
    """The i-th invariant derivation applied to e, reduced on the equation.
    ``system`` is ignored (the rings hold the one system); it stays for
    callers that pass it, such as the benchmark workloads."""
    derivation(i)  # ValueError for an index outside 1..3
    e = sp.sympify(e)
    ring = _ring_for(max(jet_order(e) + 1, 2), (e,), derivatives=1)
    coefficients = map(ring.embed, _order3().nabla[i - 1])
    return ring.to_expr(_apply_in(ring, coefficients, ring.convert(e)))


@lru_cache(maxsize=None)
def structure_K(i: int) -> sp.Expr:
    """Structure coefficients of the derivation commutators (order three)."""
    if i not in (1, 2, 3, 4):
        raise ValueError(f"structure index must be 1..4, got {i}")
    o = _order3()
    return o.ring.to_expr(o.K[i - 1])


# ---------------------------------------------------------------------------
# commutators and identities


def _operator_commutator(ring, ca: list, cb: list) -> list:
    """[a, b] in the operator representation, from the coefficients of a
    and b in the ring: coefficient-wise, reduced."""
    out = []
    for k in range(3):
        acc = ring.field.zero
        for m, d in enumerate("txy"):
            if ca[m]:
                acc += ca[m] * ring.total(cb[k], d)
            if cb[m]:
                acc -= cb[m] * ring.total(ca[k], d)
        out.append(ring.reduce(acc))
    return out


@dataclass(frozen=True)
class CommutatorReport:
    pair: tuple[int, int]
    expected: str
    ok: bool
    residuals: tuple[sp.Expr, sp.Expr, sp.Expr]


def verify_derivation_commutators() -> list[CommutatorReport]:
    """Check the three bracket relations of the invariant derivations."""
    o = _order3()
    ring = o.ring
    K1, K2, K3, K4 = o.K
    coeffs = dict(enumerate(o.nabla, 1))
    cases = [
        ((1, 2), {2: -ring.field.one}, "-nabla_2"),
        (
            (1, 3),
            {1: -K3, 2: K1 - 2 * K2, 3: K1},
            "-K3*nabla_1 + (K1 - 2*K2)*nabla_2 + K1*nabla_3",
        ),
        ((2, 3), {1: K4, 2: K3, 3: K2}, "K4*nabla_1 + K3*nabla_2 + K2*nabla_3"),
    ]
    report = []
    for (i, j), combo, text in cases:
        got = _operator_commutator(ring, coeffs[i], coeffs[j])
        residuals = []
        for k in range(3):
            want = ring.field.zero
            for m, c in combo.items():
                want += c * coeffs[m][k]
            residuals.append(ring.reduce(got[k] - want))
        ok = not any(residuals)
        report.append(
            CommutatorReport((i, j), text, ok, tuple(map(ring.to_expr, residuals)))
        )
    return report


@dataclass(frozen=True)
class IdentityReport:
    name: str
    ok: bool
    residual: sp.Expr


def verify_identities() -> list[IdentityReport]:
    """The two order-drop identities expressing I1 and I3 through I2, the
    derivations and the structure coefficients."""
    o = _order3()
    ring = o.ring
    I1, I2, I3 = o.I
    K1, K2, K3, K4 = o.K
    n1I2 = o.apply(1, I2)
    n2I2 = o.apply(2, I2)
    r1 = ring.reduce(I1 - (n1I2 + (K2 + K3) / 2 - I2 * K1))
    r2 = ring.reduce(I3 - (n1I2 - n2I2 + (K2 + 3 * K3 + 2 * K4) / 4 + I2 * (K2 - K1 - 1)))
    return [
        IdentityReport("I1 from nabla_1(I2)", not r1, ring.to_expr(r1)),
        IdentityReport("I3 from (nabla_1 - nabla_2)(I2)", not r2, ring.to_expr(r2)),
    ]


@lru_cache(maxsize=None)
def _families(k: int) -> tuple:
    """(the jet ring of order k+1, the order-k prolongations of the five
    families): family i with the formal parameter a, b, c, d or e, all
    five in one ring that holds every parameter with the derivatives a
    prolongation reaches.  Shared, so that the ring converts the fields
    and builds their coefficients once."""
    fields = tuple(ProlongedField(generator(fam, p), k) for fam, p in zip((1, 2, 3, 4, 5), "abcde"))
    ring = _ring_for(k + 1, _components(fields), derivatives=k + 1)
    return ring, fields


def _components(fields) -> tuple:
    return tuple(c for pf in fields for c in pf.field.components())


def verify_invariance(e, system: EquationSystem | None = None):
    """True when e is annihilated by all five prolonged symmetry families
    (with formal parameters); otherwise the first nonzero reduced residual
    as a witness pair (family, residual).  ``system`` is ignored (the rings
    hold the one system); it stays for callers that pass it, such as the
    benchmark workloads."""
    e = sp.sympify(e)
    k = jet_order(e)
    # the order-3 prolongations act on elements of lower order as the lower
    # ones do, so every input of order <= 3 shares the ring of _families(3)
    ring, fields = _families(max(k, 3))
    if any(is_formal_symbol(s) for s in e.free_symbols):
        # e's own formal functions join the families' parameters, in a ring
        # and with prolongations of their own, so that the shared ones keep
        # no coefficients for a ring used once
        fields = tuple(ProlongedField(pf.field, k) for pf in fields)
        ring = _ring_for(k + 1, (e, *_components(fields)), derivatives=k + 1)
    return _first_residual(ring, fields, ring.convert(e))


def _table_invariance(f):
    """:func:`verify_invariance` of an element of the order-3 jet ring, such
    as a quantity of the table (:func:`_order3`), embedded into the ring of
    the order-3 prolongations."""
    ring, fields = _families(3)
    return _first_residual(ring, fields, ring.embed(f))


def _first_residual(ring, fields, f):
    """True when every prolonged family annihilates the element f on the
    equation, else (family, the first nonzero reduced residual)."""
    for fam, pf in enumerate(fields, 1):
        residual = ring.reduce(pf._apply_in(ring, f))
        if residual:
            return (fam, ring.to_expr(residual))
    return True


# ---------------------------------------------------------------------------
# coframe


@dataclass(frozen=True)
class CoframeReport:
    gprime: sp.Matrix
    omega_prime: tuple
    adjusted: bool
    matches: bool
    notes: tuple


def coframe_rewrite() -> CoframeReport:
    """Metric and covector in the invariant coframe, rescaled by u_x^2.

    The metric entries G'_ij = u_x^2 * g(nabla_i, nabla_j) are reduced on
    the equation and compared against the expected constant-plus-I2 form.
    The covector is compared twice: with the conformal adjustment that the
    rescaling g -> u_x^2 g induces (omega gains the horizontal differential
    of log u_x^2) and without it; whichever matches is reported.  The
    coframe dual to the derivations has determinant 1/det(derivation
    matrix), expected to be -u_x^3.  Everything is computed and decided in
    the order-3 jet ring.
    """
    o = _order3()
    ring, C, I2 = o.ring, o.nabla, o.I[1]

    def dot(a, b):
        return sum((x * y for x, y in zip(a, b)), ring.field.zero)

    metric, covector = _ansatz()
    g = [[ring.embed(e) for e in row] for row in metric]
    w = list(map(ring.embed, covector))
    ux = ring.gen(_ux)
    Cg = [[dot(row, col) for col in zip(*g)] for row in C]
    Gp = [[ring.reduce(ux**2 * dot(a, b)) for b in C] for a in Cg]
    expected_G = [[0, 0, 2], [0, -1, 1], [2, 1, 4 * I2 - 1]]
    g_ok = not any(Gp[i][j] - expected_G[i][j] for i in range(3) for j in range(3))
    Cw = [dot(row, w) for row in C]
    plain = [ring.reduce(e) for e in Cw]
    adjust = [
        ring.reduce(Cw[i] + 2 * o.apply(i + 1, ux) / ux) for i in range(3)
    ]
    expected_w = (2, 1, 4 * I2 - 1)

    def matches(vec):
        return not any(a - b for a, b in zip(vec, expected_w))

    notes = []
    if matches(adjust):
        omega, adjusted, w_ok = adjust, True, True
    elif matches(plain):
        omega, adjusted, w_ok = plain, False, True
        notes.append("unadjusted covector matched; no conformal term needed")
    else:
        omega, adjusted, w_ok = adjust, True, False
        notes.append("neither adjusted nor plain covector matches")
    # the coframe's determinant 1/det(C) = -u_x^3, multiplied out
    det_ok = not (1 + ux**3 * dot(C[0], _cofactors(C)[0]))
    if not det_ok:
        notes.append("coframe determinant differs from -u_x^3")
    return CoframeReport(
        sp.Matrix([[ring.to_expr(e) for e in row] for row in Gp]),
        tuple(map(ring.to_expr, omega)),
        adjusted,
        g_ok and w_ok and det_ok,
        tuple(notes),
    )


# ---------------------------------------------------------------------------
# evaluation and independence


def _twelve_at(point: JetPoint) -> tuple[Fraction, ...]:
    """The twelve invariants at a point off the singular locus: the
    integer sums of their numerators and denominators (products of powers
    of u_x and u_xx), made one ``Fraction`` per invariant."""
    o = _order3()
    out = []
    for f in o.twelve:
        nval, nden, _ = _poly_sums(point, o.ring, f.numer)
        dval, dden, _ = _poly_sums(point, o.ring, f.denom)
        out.append(Fraction(nval * dden, nden * dval))
    return tuple(out)


def independence_rank(point: JetPoint) -> int:
    """Exact rank of the Jacobian of (I_i, nabla_j I_i) in the internal
    coordinates of order <= 3 at the given point (12 expected).

    The invariants are reduced elements of the order-3 jet ring, so their
    numerators and denominators are polynomials in internal coordinates;
    one integer walk over each gives its value and its gradient in the 32
    internal generators at the point, over one denominator."""
    o = _order3()
    coords = [o.ring.index[jet(dep, idx).name] for dep in ("u", "v") for idx in internal_indices(3)]
    rows = []
    for f in o.twelve:
        nval, _, ngrad = _poly_sums(point, o.ring, f.numer, coords)
        dval, _, dgrad = _poly_sums(point, o.ring, f.denom, coords)
        if dval == 0:
            raise SingularLocusError("Jacobian undefined at this point")
        # d(num/den) = (den*d(num) - num*d(den))/den^2; the row is scaled by
        # den^2 and by the two positive denominators of the sums, which does
        # not change the rank (``rank`` divides it by its content)
        rows.append([dval * a - nval * b for a, b in zip(ngrad, dgrad)])
    return rank(rows)
