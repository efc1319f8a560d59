"""Weyl geometry of solutions: metric pair, connection, curvature, frame.

A solution section (u, v) determines a metric and covector on the base by
the fixed ansatz; this module builds the Weyl connection of that pair,
checks the Einstein property, constructs the order-2 canonical frame at a
point, and carries the catalog of explicit solutions with their reduction
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import sympy as sp

from .errors import (
    DegenerateFrameError,
    SolutionError,
)
from .exprcore import (
    T,
    X,
    Y,
    MultiIndex,
    formal,
    is_formal_symbol,
    is_jet_symbol,
    is_zero,
    jet,
    jet_info,
    normalize,
    partial,
    to_text,
    validate_kernel,
)
from .jets import EquationSystem, JetPoint, internal_indices, ms_system
from .linalg import as_fraction, inertia
from . import symmetry as _symmetry

__all__ = [
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

# The metric-compatibility correction applied to the Levi-Civita symbols
# carries a global sign choice; correction_sign = s means Gamma = gamma +
# (s/2)(w_i d_j^k + w_j d_i^k - g_ij w^k), which makes nabla g equal
# (-s) * omega x g.  Exactly one choice makes the catalog Einstein: s = -1,
# i.e. the compatibility law nabla g = +omega x g.  The curvature anchor
# (skew Ricci = 3/2 d omega) holds for the same choice.
CORRECTION_SIGN = -1


class Solution:
    """A section u = u(t,x,y), v = v(t,x,y) of the equation system.

    Closed forms in the base variables plus formal functions of t; the two
    equation residuals are checked at construction unless deferred (the
    deferred path exists for negative controls and ansatz experiments).
    """

    def __init__(
        self,
        u,
        v,
        name: str = "user",
        domain: str = "",
        deferred: bool = False,
        system: EquationSystem | None = None,
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
        self._jet_cache: dict[tuple[str, MultiIndex], sp.Expr] = {}
        self.checked = False
        if not deferred:
            self.require_solution()

    def residuals(self) -> tuple[sp.Expr, sp.Expr]:
        """The two equation residuals: F1, F2 with the section's
        derivatives in place of the jet coordinates.  Both vanish exactly
        when the section solves the system."""
        return tuple(self.jet_subs(F) for F in self.system.equations)

    def require_solution(self) -> "Solution":
        r1, r2 = self.residuals()
        if not (is_zero(r1) and is_zero(r2)):
            raise SolutionError(
                f"section {self.name!r} does not solve the system: "
                f"residuals ({to_text(r1)}, {to_text(r2)})"
            )
        self.checked = True
        return self

    # -- jets of the section ------------------------------------------------

    def jet_expr(self, dep: str, index=MultiIndex()) -> sp.Expr:
        index = index if isinstance(index, MultiIndex) else MultiIndex.from_word(index)
        got = self._jet_cache.get((dep, index))
        if got is not None:
            return got
        if index.order == 0:
            val = {"u": self.u, "v": self.v}[dep]
        else:
            d = "y" if index.ny else ("x" if index.nx else "t")
            val = partial(self.jet_expr(dep, index.drop(d)), d)
        self._jet_cache[(dep, index)] = val
        return val

    def jet_subs(self, e) -> sp.Expr:
        """Replace jet coordinates in e by the section's derivatives."""
        e = sp.sympify(e)
        rep = {
            s: self.jet_expr(*jet_info(s))
            for s in e.free_symbols
            if is_jet_symbol(s)
        }
        return normalize(e.xreplace(rep))

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
                val = sp.nsimplify(val, rational=True) if not val.is_Rational else val
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
        """Push the section through a pseudogroup element."""
        u2, v2 = _symmetry.transform_section(element, self.u, self.v)
        return Solution(
            u2, v2, name=f"{self.name}|moved", domain=self.domain, system=self.system
        )

    def reflect(self, which: str) -> "Solution":
        u2, v2 = _symmetry.reflect_section(which, self.u, self.v)
        return Solution(
            u2, v2, name=f"{self.name}|{which}", domain=self.domain, system=self.system
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


def build_pair(sol: Solution) -> WeylPair:
    u, v = sol.u, sol.v
    omega = _symmetry.ansatz_covector(u, partial(u, "x"), partial(u, "y"), partial(v, "x"))
    return WeylPair(_symmetry.ansatz_metric(u, v), omega, sol)


@dataclass(frozen=True)
class Connection:
    """Christoffel symbols Gamma[k][i][j], symmetric in (i, j)."""

    gamma: tuple  # Levi-Civita symbols, same layout
    christoffel: tuple
    wsharp: tuple  # index-raised covector
    pair: WeylPair
    correction_sign: int
    compat_sign: int  # nabla g = compat_sign * omega x g, verified

    def __getitem__(self, kij):
        k, i, j = kij
        return self.christoffel[k][i][j]


def _christoffel_of(g: sp.Matrix) -> list:
    ginv = g.inv()
    out = []
    for k in range(3):
        mat = []
        for i in range(3):
            row = []
            for j in range(3):
                s = sp.Integer(0)
                for m in range(3):
                    s += ginv[k, m] * (
                        partial(g[m, j], _COORDS[i])
                        + partial(g[m, i], _COORDS[j])
                        - partial(g[i, j], _COORDS[m])
                    )
                row.append(normalize(s / 2))
            mat.append(row)
        out.append(mat)
    return out


def weyl_connection(
    pair: WeylPair, correction_sign: int | None = None
) -> Connection:
    """Levi-Civita symbols plus the covector correction.

    The compatibility law nabla g = (sign) * omega x g is verified
    symbolically; the achieved sign is recorded on the result (it is the
    negative of the correction sign).
    """
    if correction_sign is None:
        correction_sign = CORRECTION_SIGN
    if correction_sign not in (1, -1):
        raise ValueError("correction_sign must be +1 or -1")
    g, w = pair.g, pair.omega
    detg = normalize(g.det())
    if is_zero(detg):
        raise SolutionError("metric is degenerate")
    ginv = g.inv()
    wup = [normalize(sum(ginv[k, m] * w[m] for m in range(3))) for k in range(3)]
    gamma = _christoffel_of(g)
    chris = []
    for k in range(3):
        mat = []
        for i in range(3):
            row = []
            for j in range(3):
                corr = (
                    w[i] * (1 if j == k else 0)
                    + w[j] * (1 if i == k else 0)
                    - g[i, j] * wup[k]
                )
                row.append(normalize(gamma[k][i][j] + correction_sign * corr / 2))
            mat.append(row)
        chris.append(mat)
    conn = Connection(
        tuple(tuple(tuple(r) for r in m) for m in gamma),
        tuple(tuple(tuple(r) for r in m) for m in chris),
        tuple(wup),
        pair,
        correction_sign,
        -correction_sign,
    )
    # verify nabla_k g_ij = compat_sign * w_k g_ij
    for k in range(3):
        for i in range(3):
            for j in range(3):
                nab = partial(g[i, j], _COORDS[k])
                for m in range(3):
                    nab -= chris[m][k][i] * g[m, j] + chris[m][k][j] * g[i, m]
                if not is_zero(normalize(nab - conn.compat_sign * w[k] * g[i, j])):
                    raise SolutionError(
                        "connection fails the metric compatibility law"
                    )
    return conn


def ricci(conn: Connection) -> sp.Matrix:
    """Ricci tensor Ric(X, Y) = trace of Z -> R(Z, X)Y, not symmetrized
    (a Weyl connection has a skew Ricci part).

    Ric_ij = sum_k d_k Gamma^k_ij - d_i Gamma^k_kj
             + Gamma^m_ij Gamma^k_km - Gamma^m_kj Gamma^k_im.
    """
    G = conn.christoffel
    out = sp.zeros(3, 3)
    for i in range(3):
        for j in range(3):
            s = sp.Integer(0)
            for k in range(3):
                s += partial(G[k][i][j], _COORDS[k]) - partial(
                    G[k][k][j], _COORDS[i]
                )
                for m in range(3):
                    s += G[m][i][j] * G[k][k][m] - G[m][k][j] * G[k][i][m]
            out[i, j] = normalize(s)
    return out


def d_omega(pair: WeylPair) -> sp.Matrix:
    """Exterior derivative of the covector as an alternated tensor:
    (d omega)_ij = (d_i w_j - d_j w_i) / 2."""
    w = pair.omega
    return sp.Matrix(
        3,
        3,
        lambda i, j: normalize(
            (partial(w[j], _COORDS[i]) - partial(w[i], _COORDS[j])) / 2
        ),
    )


def skew_anchor_residual(conn: Connection) -> sp.Matrix:
    """Residual of the curvature anchor: skew part of Ricci minus 3/2 times
    d omega, both taken in the alternated-tensor convention.

    Zero for every solution under the default correction sign; the anchor
    fails under the flipped sign, which is the mutation observable."""
    ric = ricci(conn)
    skew = (ric - ric.T) / 2
    anchor = sp.Rational(3, 2) * d_omega(conn.pair)
    return sp.Matrix(3, 3, lambda i, j: normalize(skew[i, j] - anchor[i, j]))


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

    Symbolic first: the trace-extracted factor Lambda and the residual
    tensor Ric_sym - Lambda*g; when every entry normalizes to zero the
    check is exact.  Sample points (if given, or when the symbolic path
    leaves a nonzero entry) get a relative residual against ``tol``.
    """
    pair = build_pair(sol)
    conn = weyl_connection(pair, correction_sign)
    ric = ricci(conn)
    rsym = (ric + ric.T) / 2
    ginv = pair.g.inv()
    lam = normalize(sum(ginv[j, i] * rsym[i, j] for i in range(3) for j in range(3)) / 3)
    resid = sp.Matrix(3, 3, lambda i, j: normalize(rsym[i, j] - lam * pair.g[i, j]))
    exact = all(is_zero(e) for e in resid)
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
        free = {
            s
            for e in resid
            for s in sp.sympify(e).free_symbols
            if is_formal_symbol(s)
        }
        if free:
            raise SolutionError(
                f"bind formal parameters before numeric checks: {sorted(map(str, free))}"
            )
        ok = True
        for p in pts:
            subs = {c: sp.Rational(q) for c, q in zip(_COORDS, p)}
            denom = _max_abs(rsym, subs) + _max_abs(lam * pair.g, subs) + 1.0
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
    """

    def fail(reason: str) -> FrameResult:
        if strict:
            raise DegenerateFrameError(reason)
        return FrameResult(False, reason)

    subs = {c: sp.Rational(q) for c, q in zip(_COORDS, pt)}
    g = pair.g.xreplace(subs).applyfunc(sp.nsimplify)
    w = pair.omega.xreplace(subs).applyfunc(sp.nsimplify)
    A = d_omega(pair).xreplace(subs).applyfunc(sp.nsimplify)
    if all(e == 0 for e in A):
        return fail("d omega vanishes at the point")
    null = A.nullspace()
    if len(null) != 1:
        return fail("Ker(d omega) is not a line")
    e1 = null[0]
    we1 = sp.simplify((w.T * e1)[0])
    if we1 == 0:
        return fail("omega(e1) = 0 at the point")
    e1 = e1 / we1
    g11 = sp.simplify((e1.T * g * e1)[0])
    if g11 == 0:
        return fail("Ker(d omega) is null at the point")
    wsharp = g.inv() * w
    e2 = wsharp - (sp.simplify((wsharp.T * g * e1)[0]) / g11) * e1
    J0 = g.inv() * A
    # J0 preserves the g-complement of e1 and squares to a scalar there
    basis = []
    for cand in (sp.Matrix([1, 0, 0]), sp.Matrix([0, 1, 0]), sp.Matrix([0, 0, 1])):
        proj = cand - (sp.simplify((cand.T * g * e1)[0]) / g11) * e1
        basis.append(proj)
    M = sp.Matrix.hstack(*basis)
    if M.rank() < 2:
        return fail("projection to the complement degenerates")
    lam = None
    for b in basis:
        if b.norm() == 0:
            continue
        Jb = J0 * b
        JJb = J0 * Jb
        # solve JJb = lam * b componentwise
        for comp in range(3):
            if sp.simplify(b[comp]) != 0:
                cand = sp.simplify(JJb[comp] / b[comp])
                if lam is None:
                    lam = cand
                elif sp.simplify(lam - cand) != 0:
                    return fail("J^2 is not scalar on the complement")
        if lam is not None and not all(
            sp.simplify(JJb[c] - lam * b[c]) == 0 for c in range(3)
        ):
            return fail("J^2 is not scalar on the complement")
    if lam is None or lam == 0:
        return fail("J^2 degenerates on the complement")
    sign = 1 if lam > 0 else -1
    J = J0 / sp.sqrt(abs(lam))
    e3 = J * e2
    notes = []
    if sp.Matrix.hstack(e2, e3).rank() < 2:
        # in the para case (J^2 = +1) the projected covector can land on a
        # J-eigenvector; the pair (e2, e3) then fails to span the plane
        notes.append("e3 is proportional to e2 (J-eigenvector point)")
    simp = lambda vec: tuple(sp.simplify(c) for c in vec)
    return FrameResult(
        True,
        None,
        simp(e1),
        simp(e2),
        simp(e3),
        # J^2 = sign * id on the complement; -1 is the elliptic case
        sign,
        sp.simplify(-lam),
        tuple(notes),
    )


def signature_report(pair: WeylPair, pts) -> dict:
    """Determinant (a constant for the ansatz) and inertia at sample
    points; the sign pattern is reported, not asserted."""
    det = normalize(pair.g.det())
    out = {"det": to_text(det), "points": []}
    for p in pts:
        subs = {c: sp.Rational(q) for c, q in zip(_COORDS, p)}
        gval = pair.g.xreplace(subs)
        rows = []
        exact = True
        for i in range(3):
            row = []
            for j in range(3):
                e = sp.nsimplify(gval[i, j], rational=True)
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
        w = X**3 if w is None else sp.sympify(w)
        r = hierarchy_residual(w)
        if not is_zero(r):
            raise SolutionError(
                f"potential does not solve the hierarchy equation: {to_text(r)}"
            )
        return Solution(partial(w, "x"), -partial(w, "y"), name=cid)
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


def dkp_reduction_check(system: EquationSystem | None = None) -> bool:
    """With u = 0 the second equation is the dKP equation
    v_tx + v_x^2 + v v_xx - v_yy = 0 (on jets)."""
    system = system or ms_system()
    kill_u = {
        s: sp.Integer(0)
        for s in system.F2.free_symbols
        if is_jet_symbol(s) and jet_info(s)[0] == "u"
    }
    vtx, vxx, vyy = jet("v", "tx"), jet("v", "xx"), jet("v", "yy")
    vx, v = jet("v", "x"), jet("v")
    dkp = vtx + vx**2 + v * vxx - vyy
    return is_zero(normalize(system.F2.xreplace(kill_u) - dkp))


def hierarchy_residual(w) -> sp.Expr:
    """Left-hand side of the hierarchy equation on a closed-form potential:
    w_tx + w_x w_xy - w_y w_xx - w_yy."""
    w = sp.sympify(w)
    wx, wy = partial(w, "x"), partial(w, "y")
    return normalize(
        partial(wx, "t") + wx * partial(wx, "y") - wy * partial(wx, "x") - partial(wy, "y")
    )


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
        num, den = sp.fraction(sp.together(normalize(structure_K(i) - constants[i])))
        nval = sol.jet_subs(num)
        dval = sol.jet_subs(den)
        den_zero = is_zero(dval)
        any_indet = any_indet or den_zero
        out["entries"].append(
            {
                "k": i,
                "constant": str(constants[i]),
                "numerator_vanishes": is_zero(nval),
                "denominator_vanishes": den_zero,
            }
        )
    out["indeterminate"] = any_indet
    return out
