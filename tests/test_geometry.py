"""Metric/covector pairs, the Weyl connection, and the solution catalog."""

from fractions import Fraction

import pytest
import sympy as sp

from jetweyl import geometry
from jetweyl.errors import ExprError, SolutionError
from jetweyl.exprcore import T, X, Y, equal, formal, is_zero, jet
from jetweyl.geometry import (
    CATALOG_IDS,
    CORRECTION_SIGN,
    Solution,
    build_pair,
    canonical_frame,
    catalog,
    check_EW,
    dkp_reduction_check,
    hierarchy_reduction_check,
    invariants_on_solution,
    skew_anchor_residual,
    sl2_structure_report,
    weyl_connection,
)
from jetweyl.symmetry import PseudogroupElement
from jetweyl.jets import _JetRing, _jet_ring
from tree_oracle import TreeSection, tree_d_omega


def _metric(pair) -> sp.Matrix:
    """The canonical expressions of the pair's metric."""
    return sp.Matrix([[pair.field.expr(e) for e in row] for row in pair.g])


def test_pair_shape():
    sol = catalog("trivial")
    pair = build_pair(sol)
    # 4 dt dx - dy^2 and a vanishing covector
    assert _metric(pair) == sp.Matrix([[0, 2, 0], [2, 0, 0], [0, 0, -1]])
    assert all(map(pair.field.vanishes, pair.omega))


def test_pair_determinant_is_constant():
    # the shape fixes det g = 4 and g_yy = -1 on every section, hence the
    # signature (1, 2, 0): a negative entry on the diagonal and a positive
    # determinant leave one positive and two negative directions
    for cid in ("exp-family", "hierarchy"):
        g = _metric(build_pair(catalog(cid)))
        assert equal(sp.det(g), 4) and g[2, 2] == -1


def test_connection_compatibility_sign():
    pair = build_pair(catalog("exp-family", f=1, h=1))
    conn = weyl_connection(pair)
    assert conn.correction_sign == CORRECTION_SIGN == -1
    assert conn.compat_sign == 1  # nabla g = + omega (x) g
    flipped = weyl_connection(pair, correction_sign=+1)
    assert flipped.compat_sign == -1


def test_trivial_connection_vanishes():
    conn = weyl_connection(build_pair(catalog("trivial")))
    sf = conn.pair.field
    assert all(sf.vanishes(e) for cell in conn.christoffel_f for row in cell for e in row)


def test_skew_ricci_tracks_d_omega():
    for cid in ("trivial", "dkp-partial", "exp-family", "hierarchy", "sl2-family"):
        conn = weyl_connection(build_pair(catalog(cid)))
        res = skew_anchor_residual(conn)
        assert all(is_zero(res[i, j]) for i in range(3) for j in range(3)), cid


def test_skew_anchor_breaks_under_wrong_sign():
    conn = weyl_connection(build_pair(catalog("exp-family", f=1, h=1)), correction_sign=+1)
    res = skew_anchor_residual(conn)
    assert not all(is_zero(res[i, j]) for i in range(3) for j in range(3))


_LAMBDAS = {
    "trivial": sp.Integer(0),
    "dkp-partial": sp.Integer(0),
    "exp-family": sp.Rational(1, 8),
    "hierarchy": sp.Rational(9, 2) * X**2,
    "sl2-family": 1 / (18 * Y**2),
    "sl2-degenerate": 1 / (18 * Y**2),
}


@pytest.mark.parametrize("cid", sorted(CATALOG_IDS))
def test_catalog_is_einstein_weyl(cid):
    kwargs = {"f": 1, "h": 1} if cid == "exp-family" else {}
    sol = catalog(cid, **kwargs)
    rep = check_EW(sol)
    assert rep.exact and rep.ok
    assert equal(rep.lam, _LAMBDAS[cid])


def test_a_catalog_entry_is_built_once_per_typed_key():
    exact = catalog("exp-family", f=1, h=1)
    assert catalog("exp-family", f=1, h=1) is exact
    assert catalog("exp-family", f=0, h=1) is not exact
    assert catalog("exp-family", f=1, h=0) is not exact
    # 1.0 == 1 with equal hashes: an untyped key would answer the float with
    # the exact entry; it must still be refused as input
    with pytest.raises(ExprError, match="non-rational number"):
        catalog("exp-family", f=1.0, h=1)
    assert catalog.cache_info().maxsize is not None


def test_ew_fails_under_wrong_correction_sign():
    for cid in ("exp-family", "sl2-family", "hierarchy"):
        kwargs = {"f": 1, "h": 1} if cid == "exp-family" else {}
        if cid == "sl2-family":
            kwargs = {"f": 0, "h": 0}  # numeric fallback needs bound parameters
        rep = check_EW(catalog(cid, **kwargs), correction_sign=+1)
        assert not rep.ok, cid


def test_ew_verdict_is_the_exact_test(monkeypatch):
    # every sampled residual passes, yet the exact residual tensor is not
    # zero: the samples are reported, the verdict stays the exact one
    monkeypatch.setattr(geometry, "_sampled_residual", lambda C, rsym, lam_g, resid: 0.0)
    rep = check_EW(catalog("hierarchy"), pts=[(0, 1, 1), (1, 2, 3)], correction_sign=+1)
    assert not rep.exact
    assert len(rep.points) == 2 and all(c.residual == 0 for c in rep.points)
    assert not rep.ok
    # the samples of Lambda = 9/2 x^2 are exact
    assert [c.lam for c in rep.points] == [sp.Rational(9, 2), 18]


def test_check_ew_reports_non_solutions():
    bogus = Solution(X * Y, sp.Integer(0), deferred=True)
    rep = check_EW(bogus)
    assert not rep.ok


def test_solution_construction_rejects_non_solutions():
    with pytest.raises(SolutionError):
        Solution(X * Y, sp.Integer(0))


def test_solution_rejects_jets_in_components():
    with pytest.raises(SolutionError):
        Solution(jet("u", (0, 1, 0)), sp.Integer(0), deferred=True)


def test_jet_subs_constant_invariants():
    assert invariants_on_solution(catalog("sl2-family")) == (
        sp.Rational(-3, 25),
        sp.Rational(21, 100),
        sp.Rational(-147, 500),
    )
    assert invariants_on_solution(catalog("exp-family")) == (0, 0, 0)


def test_sl2_structure_constants_are_indeterminate_there():
    rep = sl2_structure_report(catalog("sl2-family"))
    assert rep["indeterminate"]
    for entry in rep["entries"]:
        # cleared numerator and denominator both die on the u_xx = 0 stratum
        assert entry["numerator_vanishes"] and entry["denominator_vanishes"]


def test_domain_guard():
    sol = catalog("sl2-family")
    assert sol.in_domain((0, 0, 1))
    assert not sol.in_domain((0, 0, -1))


def test_fractional_powers_need_a_positive_base():
    half = sp.Rational(1, 2)
    sol = Solution(X**half, X**half)
    assert sol.in_domain((-1, 1, -1))
    assert not sol.in_domain((0, -1, 1)) and not sol.in_domain((0, 0, 1))
    with pytest.raises(SolutionError, match=r"violates the domain \(x > 0\)"):
        check_EW(sol, pts=[(0, -1, 1)])
    # a constant radical puts no bound on the base point
    assert Solution(2**half * X, sp.Integer(0), deferred=True).in_domain((-1, -1, -1))


# -- canonical frame -------------------------------------------------------


def test_frame_at_exponential_origin():
    pair = build_pair(catalog("exp-family", f=0, h=0))
    fr = canonical_frame(pair, (0, 0, 0))
    assert fr.ok
    assert fr.e1 == (0, 3, -1)
    assert fr.e2 == (0, 4, 0)
    assert fr.e3 == (0, -4, 0)
    assert fr.j_squared_sign == 1
    assert fr.dw_norm_squared == sp.Rational(-1, 16)
    assert any("J-eigenvector" in n for n in fr.notes)


def test_frame_normalization_and_orthogonality():
    pair = build_pair(catalog("exp-family", f=0, h=0))
    fr = canonical_frame(pair, (0, 0, 0))
    point = {T: 0, X: 0, Y: 0}
    g, omega = TreeSection(pair.solution).pair()
    omega_at = omega.subs(point)
    g_at = g.subs(point)
    e1, e2, e3 = (sp.Matrix(e) for e in (fr.e1, fr.e2, fr.e3))
    assert (omega_at.T * e1)[0, 0] == 1
    assert (e3.T * g_at * e2)[0, 0] == 0


@pytest.mark.parametrize(
    "cid, kwargs, pt",
    [
        # a point 10^-20 away from (0, 1, 1), where rounding would move it
        ("hierarchy", {}, (0, 1 + Fraction(1, 10**20), 1)),
        # frames whose entries are radicals
        ("sl2-family", {"f": 0, "h": 0}, (0, 1, 2)),
        ("sl2-family", {"f": 0, "h": 0}, (1, -1, 3)),
    ],
)
def test_frame_is_exact_at_the_point(cid, kwargs, pt):
    pair = build_pair(catalog(cid, **kwargs))
    fr = canonical_frame(pair, pt)
    assert fr.ok
    point = {c: sp.Rational(q) for c, q in zip((T, X, Y), pt)}
    g, omega = TreeSection(pair.solution).pair()
    omega_at = omega.xreplace(point)
    g_at = g.xreplace(point)
    e1, e2 = sp.Matrix(fr.e1), sp.Matrix(fr.e2)
    assert is_zero((omega_at.T * e1)[0, 0] - 1)
    assert all(is_zero(c) for c in tree_d_omega(omega).xreplace(point) * e1)
    assert is_zero((e1.T * g_at * e2)[0, 0])


def test_frame_degenerate_report_and_strict_raise():
    pair = build_pair(catalog("trivial"))
    fr = canonical_frame(pair, (0, 0, 0))
    assert not fr.ok and "d omega vanishes" in fr.reason


# -- catalog auxiliaries ---------------------------------------------------


def test_catalog_reductions():
    assert dkp_reduction_check()
    assert hierarchy_reduction_check()


def test_hierarchy_reduction_sees_a_wrong_derivative(monkeypatch):
    # negative control: D_y where D_x belongs (and back) breaks the identity
    swap = {"x": "y", "y": "x", "t": "t"}
    total = _JetRing.total
    monkeypatch.setattr(_JetRing, "total", lambda ring, f, d: total(ring, f, swap[d]))
    assert not hierarchy_reduction_check()


def _perturbed_F2(monkeypatch, term) -> None:
    """The reductions read F1 and F2 + ``term``."""
    F1, F2 = geometry._equations()
    monkeypatch.setattr(geometry, "_equations", lambda: (F1, F2 + _jet_ring(2).convert(term)))


def test_dkp_reduction_sees_a_perturbed_v_term(monkeypatch):
    # negative control: a second v v_xx term is not the dKP equation
    _perturbed_F2(monkeypatch, jet("v") * jet("v", "xx"))
    assert not dkp_reduction_check()


def test_dkp_reduction_kills_the_u_terms(monkeypatch):
    # an extra u-term of F2 vanishes with u, and so does not show
    _perturbed_F2(monkeypatch, jet("u") * jet("v", "xx"))
    assert dkp_reduction_check()
    assert not hierarchy_reduction_check()


def test_hierarchy_residual():
    sf, r, _, _ = geometry._hierarchy(X**3)
    assert sf.vanishes(r)
    sf, r, _, _ = geometry._hierarchy(X**2 * Y + T)
    assert not sf.vanishes(r)


def test_hierarchy_solution_from_potential():
    sol = catalog("hierarchy", w=X**3)
    assert equal(sol.u, 3 * X**2) and is_zero(sol.v)


def test_dkp_partial_has_free_time_function():
    sol = catalog("dkp-partial")
    assert is_zero(sol.u)
    assert formal("h") in sol.v.free_symbols


def test_pseudogroup_acts_on_catalog_solutions():
    el = PseudogroupElement.make(d=4 * T, a=T, ee=3)
    moved = catalog("hierarchy", w=X**3).transform(el)
    assert moved.checked  # construction re-verified the equations


def test_reflections_on_solutions():
    sol = catalog("hierarchy", w=X**3)
    for which in ("txy", "yu"):
        assert sol.reflect(which).checked
