"""Weyl geometry of solutions: the tree side, the canonical frame and the
catalog.

A solution section (u, v) determines a metric and covector on the base by
the fixed ansatz.  The section field, solutions, the Weyl pair, its
connection, the curvature and the Einstein check are arithmetic in one
exact differential field and live in :mod:`jetweyl.sections`, which
imports no sympy; this module re-exports them.  Here is what gives or
takes sympy trees: the closed forms the sympy callers give, the skew
anchor as a matrix, the sampled residual of the Einstein check, the
order-2 canonical frame at a point in closed form, and the catalog of
explicit solutions with their reduction checks.  The catalog's closed
forms are DSL text in ``sections.CATALOG``; :func:`catalog` builds their
trees from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import sympy as sp

from .dsl import _build
from .errors import (
    ExprError,
    SolutionError,
)
from .exprcore import (
    T,
    X,
    Y,
    formal,
    is_formal_symbol,
    is_jet_symbol,
    jet_info,
    to_text,
    validate_kernel,
)
from .jets import _coordinates, _equations, _jet_key, _jet_ring
from .sections import (
    CATALOG,
    CORRECTION_SIGN,
    DOMAINS,
    Connection,
    EWReport,
    SectionField,
    Solution,
    WeylPair,
    _catalog_trees,
    _d_omega_of,
    _inverse,
    _Rescaled,
    _rows,
    build_pair,
    check_EW,
    weyl_connection,
)
from .syntax import CATALOG_IDS, MultiIndex

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

def _closed_form(e, rule: str) -> sp.Expr:
    """``e`` in the term language, refused with a ``SolutionError`` that
    states the ``rule`` when it holds a jet coordinate of positive order."""
    e = validate_kernel(sp.sympify(e), allow_exp=True)
    if any(is_jet_symbol(s) and jet_info(s)[1].order > 0 for s in e.free_symbols):
        raise SolutionError(f"{rule}, not jet coordinates")
    return e


def skew_anchor_residual(conn: Connection) -> sp.Matrix:
    """Residual of the curvature anchor: skew part of Ricci minus 3/2 times
    d omega, both taken in the alternated-tensor convention.

    Zero for every solution under the default correction sign; the anchor
    fails under the flipped sign, which is the mutation observable."""
    return sp.Matrix([[conn.pair.field.expr(e) for e in row] for row in conn.anchor_elements()])


# ---------------------------------------------------------------------------
# Einstein check


def _sampled_residual(C: _Rescaled, rsym, lam_g, resid) -> float:
    """max|Ric_sym - Lambda*g| / (max|Ric_sym| + max|Lambda*g| + 1) of the
    entries at a point (elements of the field of constants C), each
    evaluated to 50 digits: the sampled residual of ``check_EW``."""

    def size(values) -> float:
        return max(float(abs(sp.N(C.expr(e), 50))) for e in values)

    return size(resid) / (size(rsym) + size(lam_g) + 1.0)


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
    x^3) and returns the section (w_x, -w_y).  The closed forms of
    ``sections.CATALOG`` are DSL text, built into trees here with the
    parameters an entry uses in place of f(t) and h(t).

    Each (id, f, h, w) is built once per process and shared: its field,
    jets, residual check, pair, connections and curvature are computed on
    the first verdict that needs them.  A ``Solution`` is not written to
    after construction, only filled in where it caches.  The keys are
    typed, so 1.0 does not find the exact entry of 1.
    """
    if cid in CATALOG:
        # the parameters an entry uses; an unused one is not checked
        given = {name: p for name, p in (("f", f), ("h", h)) if f"{name}(t)" in CATALOG[cid]}
        params = {formal(name): _tfunc(p, name) for name, p in given.items()}
        u, v = (_build(tree).xreplace(params) for tree in _catalog_trees(cid))
        return Solution(u, v, name=cid, domain=DOMAINS.get(cid, ""))
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
    raise ValueError(f"unknown catalog id {cid!r}; known: {CATALOG_IDS}")


def dkp_reduction_check() -> bool:
    """With u = 0 the second equation is the dKP equation
    v_tx + v_x^2 + v v_xx - v_yy = 0 (on jets)."""
    ring = _jet_ring(2)
    kill_u = {key: ring.field.zero for key, dep, _ in _coordinates(2) if dep == "u"}
    vtx, vxx, vyy, vx, v = map(ring.gen, ("v_tx", "v_xx", "v_yy", "v_x", "v"))
    dkp = vtx + vx**2 + v * vxx - vyy
    return _substituted(ring, _equations()[1], kill_u) == dkp


def _substituted(ring, f, images: dict):
    """An element of a jet ring with the generators ``images`` names (by
    key) replaced by their images there, the others kept."""
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
        if not isinstance(index, MultiIndex):
            index = MultiIndex.from_word(index)
        return ring.gen(_jet_key("u", index))

    H = w("tx") + w("x") * w("xy") - w("y") * w("xx") - w("yy")
    images = {}
    for key, dep, idx in _coordinates(2):
        images[key] = w(idx.bump("x")) if dep == "u" else -w(idx.bump("y"))
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
