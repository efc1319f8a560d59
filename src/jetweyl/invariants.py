"""Differential invariants of the symmetry action and moduli counting.

Three second-order invariants generate the field together with three
invariant derivations; their structure coefficients close the picture at
order three.  Everything here is rational in jet coordinates and lives
away from the singular locus {u_x = 0} union {u_xx = 0}.

The derivations, the structure coefficients, the commutator and identity
checks, the invariance proofs and the twelve signature invariants compute
in the jet ring (``jets._JetRing``, a sparse rational-function field over
QQ) from start to finish: reduction on the equation is a substitution of
generators and the zero test looks at a numerator.  Sympy expressions are
converted once on the way in and once on the way out.  The reduction is
always that of the modified dispersionless system, whose principal table
the rings hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import sympy as sp

from .errors import SingularLocusError
from .exprcore import is_jet_symbol, jet, jet_order, normalize
from .fields import ProlongedField, prolong
from .jets import EquationSystem, JetPoint, _jet_ring, _ring_for, internal_indices
from .linalg import rank
from .symmetry import ansatz_covector, ansatz_metric, generator

__all__ = [
    "invariant",
    "InvariantDerivation",
    "derivation",
    "apply_derivation",
    "structure_K",
    "CommutatorReport",
    "verify_derivation_commutators",
    "IdentityReport",
    "verify_identities",
    "verify_invariance",
    "derivation_matrix",
    "CoframeReport",
    "coframe_rewrite",
    "invariant_value",
    "twelve_invariants",
    "independence_rank",
    "CountRecord",
    "counting",
    "poincare_function",
    "poincare_coefficients",
]

_ux = jet("u", "x")
_uy = jet("u", "y")
_uxx = jet("u", "xx")
_uxy = jet("u", "xy")
_uyy = jet("u", "yy")
_uxxx = jet("u", "xxx")
_uxxy = jet("u", "xxy")
_vx = jet("v", "x")
_vxx = jet("v", "xx")
_vxy = jet("v", "xy")
_u = jet("u")
_v = jet("v")


def invariant(i: int) -> sp.Expr:
    """The three generating second-order invariants."""
    if i == 1:
        return (_uxy + _vxx) / _ux**2
    if i == 2:
        return (_ux**2 * _uxy + _ux * _uxx * _vx + _uxx * _uyy - _uxy**2) / _ux**4
    if i == 3:
        return (_ux**2 * _vxx - _ux * _uxx * _vx + _uxx * _vxy - _uxy * _vxx) / _ux**4
    raise ValueError(f"invariant index must be 1..3, got {i}")


@dataclass(frozen=True)
class InvariantDerivation:
    """Total-derivative operator c_t D_t + c_x D_x + c_y D_y with rational
    jet coefficients, applied with on-equation reduction."""

    name: str
    ct: sp.Expr
    cx: sp.Expr
    cy: sp.Expr

    def coefficients(self) -> tuple[sp.Expr, sp.Expr, sp.Expr]:
        return (self.ct, self.cx, self.cy)

    def _apply_in(self, ring, f):
        """The derivation applied to an element of a jet ring, reduced."""
        out = ring.field.zero
        for c, d in zip(self.coefficients(), "txy"):
            if c != 0:
                out += ring.convert(c) * ring.total(f, d)
        return ring.reduce(out)

    def apply(self, e) -> sp.Expr:
        """The derivation applied to e and reduced on the equation (the
        system's principal table lives in the jet rings)."""
        e = sp.sympify(e)
        ring = _ring_for(max(jet_order(e) + 1, 2), (e,), derivatives=1)
        return ring.to_expr(self._apply_in(ring, ring.convert(e)))

    def __str__(self) -> str:
        return self.name


@lru_cache(maxsize=None)
def derivation(i: int) -> InvariantDerivation:
    if i == 1:
        return InvariantDerivation("nabla_1", sp.Integer(0), _ux / _uxx, sp.Integer(0))
    if i == 2:
        return InvariantDerivation(
            "nabla_2", sp.Integer(0), _uxy / (_ux * _uxx), -1 / _ux
        )
    if i == 3:
        return InvariantDerivation(
            "nabla_3",
            _uxx / _ux**3,
            (_vx * _ux + _v * _uxx + _uyy) / _ux**3,
            (_ux**2 + _u * _uxx - 2 * _uxy) / _ux**3,
        )
    raise ValueError(f"derivation index must be 1..3, got {i}")


def apply_derivation(i: int, e, system: EquationSystem | None = None) -> sp.Expr:
    """The i-th invariant derivation applied to e, reduced on the equation.
    ``system`` is ignored (the rings hold the one system); it stays for
    callers that pass it, such as the benchmark workloads."""
    return derivation(i).apply(e)


def _structure_K_in(ring, i: int):
    c = ring.convert
    n2 = derivation(2)._apply_in
    if i == 1:
        return c(_ux * _uxxx / _uxx**2 - 3)
    if i == 2:
        return c((_uxy * _uxxx - _uxx * _uxxy) / (_ux * _uxx**2))
    if i == 3:
        return (
            _structure_K_in(ring, 2) * c(1 - 2 * _uxy / _ux**2)
            - c(2 * _uxx / _ux**3) * n2(ring, c(_uy))
            + c(2 / _ux**2) * n2(ring, c(_uxy))
        )
    if i == 4:
        return (
            c(_uxx) * n2(ring, c(2 * _uyy - _ux * _uy))
            - n2(ring, c(_uxy / _uxx)) * c(_uxx * (2 * _uxy - _ux**2))
            - n2(ring, c(_uxy**2))
        ) / c(_ux**4)
    raise ValueError(f"structure index must be 1..4, got {i}")


@lru_cache(maxsize=None)
def structure_K(i: int) -> sp.Expr:
    """Structure coefficients of the derivation commutators (order three)."""
    ring = _jet_ring(3)
    return ring.to_expr(_structure_K_in(ring, i))


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
    ring = _jet_ring(3)
    K = {i: ring.convert(structure_K(i)) for i in (1, 2, 3, 4)}
    coeffs = {i: [ring.convert(c) for c in derivation(i).coefficients()] for i in (1, 2, 3)}
    cases = [
        ((1, 2), {2: -ring.field.one}, "-nabla_2"),
        (
            (1, 3),
            {1: -K[3], 2: K[1] - 2 * K[2], 3: K[1]},
            "-K3*nabla_1 + (K1 - 2*K2)*nabla_2 + K1*nabla_3",
        ),
        (
            (2, 3),
            {1: K[4], 2: K[3], 3: K[2]},
            "K4*nabla_1 + K3*nabla_2 + K2*nabla_3",
        ),
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
    ring = _jet_ring(3)
    I1, I2, I3 = (ring.convert(invariant(i)) for i in (1, 2, 3))
    K = {i: ring.convert(structure_K(i)) for i in (1, 2, 3, 4)}
    n1I2 = derivation(1)._apply_in(ring, I2)
    n2I2 = derivation(2)._apply_in(ring, I2)
    r1 = ring.reduce(I1 - (n1I2 + (K[2] + K[3]) / 2 - I2 * K[1]))
    r2 = ring.reduce(
        I3
        - (
            n1I2
            - n2I2
            + (K[2] + 3 * K[3] + 2 * K[4]) / 4
            + I2 * (K[2] - K[1] - 1)
        )
    )
    return [
        IdentityReport("I1 from nabla_1(I2)", not r1, ring.to_expr(r1)),
        IdentityReport("I3 from (nabla_1 - nabla_2)(I2)", not r2, ring.to_expr(r2)),
    ]


@lru_cache(maxsize=None)
def _prolonged_family(fam: int, k: int) -> ProlongedField:
    """The order-k prolongation of family ``fam`` with the formal parameter
    a, b, c, d or e; shared, so that each jet ring converts the field and
    builds its coefficients once."""
    return prolong(generator(fam, "abcde"[fam - 1]), k)


def verify_invariance(e, k: int | None = None, system: EquationSystem | None = None):
    """True when e is annihilated by all five prolonged symmetry families
    (with formal parameters); otherwise the first nonzero reduced residual
    as a witness pair (family, residual).  ``system`` is ignored (the rings
    hold the one system); it stays for callers that pass it, such as the
    benchmark workloads."""
    e = sp.sympify(e)
    for fam in (1, 2, 3, 4, 5):
        ring, value = _prolonged_family(fam, jet_order(e) if k is None else k)._applied(e)
        residual = ring.reduce(value)
        if residual:
            return (fam, ring.to_expr(residual))
    return True


# ---------------------------------------------------------------------------
# coframe


def derivation_matrix() -> sp.Matrix:
    """Rows are the (D_t, D_x, D_y) coefficients of the three derivations."""
    return sp.Matrix([list(derivation(i).coefficients()) for i in (1, 2, 3)])


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
    ring = _jet_ring(3)
    c = ring.convert

    def dot(a, b):
        return sum((x * y for x, y in zip(a, b)), ring.field.zero)

    C = [[c(e) for e in derivation(i).coefficients()] for i in (1, 2, 3)]
    g = [[c(e) for e in row] for row in ansatz_metric(_u, _v).tolist()]
    w = [c(e) for e in ansatz_covector(_u, _ux, _uy, _vx)]
    ux = c(_ux)
    Cg = [[dot(row, col) for col in zip(*g)] for row in C]
    Gp = [[ring.reduce(ux**2 * dot(a, b)) for b in C] for a in Cg]
    I2 = c(invariant(2))
    expected_G = [[0, 0, 2], [0, -1, 1], [2, 1, 4 * I2 - 1]]
    g_ok = not any(Gp[i][j] - expected_G[i][j] for i in range(3) for j in range(3))
    Cw = [dot(row, w) for row in C]
    plain = [ring.reduce(e) for e in Cw]
    adjust = [
        ring.reduce(Cw[i] + 2 * derivation(i + 1)._apply_in(ring, ux) / ux) for i in range(3)
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
    cofactors = [
        C[1][(j + 1) % 3] * C[2][(j + 2) % 3] - C[1][(j + 2) % 3] * C[2][(j + 1) % 3]
        for j in range(3)
    ]
    # the coframe's determinant 1/det(C) = -u_x^3, multiplied out
    det_ok = not (1 + ux**3 * dot(C[0], cofactors))
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


def invariant_value(point: JetPoint, e) -> Fraction:
    """Evaluate an invariant expression at a jet point, guarding the
    singular locus."""
    if point.value(_ux) == 0 or point.value(_uxx) == 0:
        raise SingularLocusError(
            "invariants are undefined where u_x or u_xx vanishes"
        )
    return point.eval(normalize(e))


@lru_cache(maxsize=1)
def _twelve_in_ring() -> tuple:
    """(the order-3 jet ring, the twelve invariants as its elements)."""
    ring = _jet_ring(3)
    base = [ring.convert(invariant(i)) for i in (1, 2, 3)]
    derived = [derivation(j)._apply_in(ring, b) for b in base for j in (1, 2, 3)]
    return ring, tuple(base + derived)


@lru_cache(maxsize=1)
def twelve_invariants() -> tuple[sp.Expr, ...]:
    """The signature components (I1, I2, I3, I_ij) with I_ij = the j-th
    derivation applied to I_i, in row-major order."""
    ring, twelve = _twelve_in_ring()
    return tuple(map(ring.to_expr, twelve))


def independence_rank(point: JetPoint) -> int:
    """Exact rank of the Jacobian of (I_i, nabla_j I_i) in the internal
    coordinates of order <= 3 at the given point (12 expected).

    The invariants are reduced elements of the order-3 jet ring, so their
    numerators and denominators are polynomials in internal coordinates;
    each is differentiated by the 32 internal generators and evaluated at
    the point in ``Fraction`` arithmetic."""
    ring, twelve = _twelve_in_ring()
    values = [
        point.value(s) if is_jet_symbol(s) else point.base[s.name] for s in ring.symbols
    ]

    def at(p) -> Fraction:
        total = Fraction(0)
        for monom, c in p.items():
            term = Fraction(int(c.numerator), int(c.denominator))
            for i, n in enumerate(monom):
                if n:
                    term *= values[i] ** n
            total += term
        return total

    coords = [ring.index[jet(dep, idx)] for dep in ("u", "v") for idx in internal_indices(3)]
    rows = []
    for f in twelve:
        num, den = f.numer, f.denom
        # d(num/den) = (den*d(num) - num*d(den))/den^2; the den^2 scaling
        # does not change the rank, row-scale by it for cheaper entries
        nval, dval = at(num), at(den)
        if dval == 0:
            raise SingularLocusError("Jacobian undefined at this point")
        rows.append([dval * at(num.diff(i)) - nval * at(den.diff(i)) for i in coords])
    return rank(rows)


# ---------------------------------------------------------------------------
# counting

_Z = sp.Symbol("z")

#: each Poincare function as N(z) / (1 - z)^n: (coefficients of N, n)
_POINCARE = {
    "ms": ((0, 0, 3, 3, -2), 2),
    "weyl": ((0, 0, 13, -9, 0, 1), 3),
    "ew-general": ((0, 0, 8, -1, -1), 2),
}


def _pure_count(series: str, k: int) -> int:
    if k < 2:
        return 0
    if series == "ms":
        return 3 if k == 2 else 4 * k - 3
    if series == "weyl":
        return 13 if k == 2 else (5 * k**2 + 7 * k - 6) // 2
    if series == "ew-general":
        return 8 if k == 2 else 3 * (2 * k - 1)
    raise ValueError(f"unknown series {series!r}")


@dataclass(frozen=True)
class CountRecord:
    k: int
    s: int
    h: int
    series: str


def _poincare(series: str) -> tuple[tuple[int, ...], int]:
    if series not in _POINCARE:
        raise ValueError(f"unknown series {series!r}")
    return _POINCARE[series]


def poincare_function(series: str) -> sp.Expr:
    numerator, n = _poincare(series)
    return sum(c * _Z**j for j, c in enumerate(numerator)) / (1 - _Z) ** n


def _poincare_coefficient(series: str, m: int) -> int:
    """The coefficient of z^m: N(z) times the binomial series
    (1 - z)^-n = sum_i C(i + n - 1, n - 1) z^i."""
    numerator, n = _poincare(series)
    return sum(
        c * comb(m - j + n - 1, n - 1) for j, c in enumerate(numerator) if j <= m
    )


def poincare_coefficients(series: str, upto: int) -> list[int]:
    """Taylor coefficients h_0..h_upto of the closed-form counting series."""
    return [_poincare_coefficient(series, m) for m in range(upto + 1)]


def counting(series: str, k: int) -> CountRecord:
    """Number of independent invariants: cumulative s_k and pure-order h_k.

    The closed-form h_k is cross-checked against the z^k coefficient of
    the Poincare function, in exact integer arithmetic, on every call.
    """
    if k < 0:
        raise ValueError("order must be non-negative")
    h = _pure_count(series, k)
    coeff = _poincare_coefficient(series, k)
    if coeff != h:
        raise AssertionError(
            f"series {series}: closed form h_{k}={h} but Poincare "
            f"coefficient is {coeff}"
        )
    s = sum(_pure_count(series, m) for m in range(k + 1))
    if series == "ms" and k >= 2:
        assert s == 2 * k**2 - k - 3
    return CountRecord(k, s, h, series)
