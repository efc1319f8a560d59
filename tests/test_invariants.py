"""Differential invariants, invariant derivations, and the counting series."""

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from jetweyl import invariants
from jetweyl.counts import counting, poincare_coefficients, poincare_text
from jetweyl.exprcore import equal, formal, is_zero, jet, to_text
from jetweyl.invariants import (
    apply_derivation,
    coframe_rewrite,
    derivation,
    independence_rank,
    invariant,
    _order3,
    structure_K,
    verify_derivation_commutators,
    verify_identities,
    verify_invariance,
)
from jetweyl.jets import internal_indices, ms_system
from jetweyl.linalg import rank
from tree_oracle import poincare_function

u_x = jet("u", (0, 1, 0))
u_xx = jet("u", (0, 2, 0))
u_xy = jet("u", (0, 1, 1))
u_yy = jet("u", (0, 0, 2))
v_x = jet("v", (0, 1, 0))
v_xx = jet("v", (0, 2, 0))
v_xy = jet("v", (1, 1, 0))  # placeholder, fixed below


def test_printed_forms():
    assert equal(invariant(1), (u_xy + v_xx) / u_x**2)
    assert equal(
        invariant(2),
        (u_x**2 * u_xy + u_x * u_xx * v_x + u_xx * u_yy - u_xy**2) / u_x**4,
    )
    vxy = jet("v", (0, 1, 1))
    assert equal(
        invariant(3),
        (u_x**2 * v_xx - u_x * u_xx * v_x + u_xx * vxy - u_xy * v_xx) / u_x**4,
    )
    with pytest.raises(ValueError):
        invariant(4)


def test_direct_substitution_value():
    assert invariant(1).xreplace({u_xy: 1, v_xx: 1, u_x: 1}) == 2


def test_invariant_value_at_a_jet_point():
    theta = ms_system().point(2, internal={"u_x": 1, "u_xx": 1, "u_xy": 1, "v_xx": 1})
    assert theta.eval(invariant(1)) == Fraction(2)


def _twelve_trees() -> list:
    table = _order3()
    return [table.ring.to_expr(f) for f in table.twelve]


def test_twelve_invariants_order():
    twelve = _twelve_trees()
    assert len(twelve) == 12
    assert equal(twelve[0], invariant(1))
    assert equal(twelve[3], apply_derivation(1, invariant(1)))
    assert equal(twelve[11], apply_derivation(3, invariant(3)))


def test_all_sixteen_quantities_are_invariant():
    system = ms_system()
    quantities = [invariant(i) for i in (1, 2, 3)]
    quantities += [structure_K(i) for i in (1, 2, 3, 4)]
    quantities += [
        apply_derivation(j, invariant(i), system) for i in (1, 2, 3) for j in (1, 2, 3)
    ]
    for q in quantities:
        assert verify_invariance(q, system=system) is True
    # the table's own elements, embedded into the ring of the order-3 families
    table = invariants._order3()
    for f in (*table.I, *table.K, *table.twelve[3:]):
        assert invariants._table_invariance(f) is True


def test_the_table_path_gives_the_witness_of_the_tree_path():
    # the order-3 families decide an order-2 element as the order-2 ones do
    table = invariants._order3()
    ring = table.ring
    for f in (
        table.I[1] + ring.convert(sp.Rational(3, 7) * u_xx),
        table.K[0] + ring.gen(jet("u", "xxy")),
    ):
        result = invariants._table_invariance(f)
        assert result is not True
        assert result == verify_invariance(ring.to_expr(f))


def test_relative_invariant_has_a_witness():
    fam, witness = verify_invariance(u_x)
    assert fam == 4
    # residual stays proportional to u_x itself
    assert equal(witness / u_x, -sp.Symbol("d'") / 2) or not is_zero(witness)


@pytest.mark.parametrize(
    "e, witness",
    [
        (formal("a") * u_x, "-a*d'*u_x/2 + a'*d*u_x"),
        (formal("z") * u_x, "d*u_x*z' - d'*u_x*z/2"),
        (u_x, "-d'*u_x/2"),
        (invariant(2) + sp.Rational(3, 7) * u_xx, "-3*d'*u_xx/14"),
    ],
)
def test_witnesses_name_the_family_and_residual(e, witness):
    # the five families share one ring, in which a formal function of e
    # named like a family parameter is that parameter
    fam, residual = verify_invariance(e)
    assert (fam, str(residual)) == (4, witness)


def test_a_family_one_witness():
    # X1(a) moves x by a(t) and v by a'(t): u_t and v_t are not invariant,
    # and family 1, the first tried, names the residual
    assert [
        (fam, to_text(residual))
        for fam, residual in map(verify_invariance, (jet("u", "t"), jet("v", "t")))
    ] == [(1, "-a'(t)*u_x"), (1, "a''(t) - a'(t)*v_x")]


def test_formal_inputs_leave_the_shared_families_alone():
    # u_x, of order 1, is decided in the ring of the order-3 families
    ring, fields = invariants._families(3)
    for i in range(20):
        assert verify_invariance(formal(f"w{i}") * u_x) is not True
    assert verify_invariance(u_x) is not True
    for pf in fields:
        assert {key[0] for key in (*pf._coeffs, *pf._dphi)} <= {ring}


@given(st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool))
@settings(max_examples=10, deadline=None)
def test_invariant_plus_u_xx_has_a_witness(q):
    result = verify_invariance(invariant(2) + sp.Rational(q.numerator, q.denominator) * u_xx)
    assert result is not True
    fam, witness = result
    assert fam in (1, 2, 3, 4, 5) and not is_zero(witness)


def test_derivation_commutators_close():
    for rep in verify_derivation_commutators():
        assert rep.ok, rep


def test_structure_identities_hold():
    reports = verify_identities()
    assert len(reports) == 2
    assert all(rep.ok for rep in reports)


def test_warm_proofs_and_point_evaluations_convert_no_tree(monkeypatch):
    """The order-3 data and the ansatz are converted into a jet ring once:
    after a first call, the commutator and identity proofs, the
    ``invariance`` check, the coframe, the independence rank and the jet
    clouds make no ``_JetRing.convert`` call, and the ``invariance`` check
    builds no order-2 prolongations."""
    from jetweyl import checks, invariants
    from jetweyl.equivalence import jet_cloud
    from jetweyl.jets import _JetRing

    def point():
        rng = random.Random(31)
        internal = {
            jet(dep, idx): Fraction(rng.randint(1, 9), rng.randint(1, 7))
            for dep in ("u", "v")
            for idx in internal_indices(3)
        }
        return ms_system().point(3, internal=internal)

    calls = [
        verify_derivation_commutators,
        verify_identities,
        checks.REGISTRY["invariance"].run,
        coframe_rewrite,
        lambda: independence_rank(point()),
        lambda: jet_cloud([point()]),
    ]
    for call in calls:
        call()
    converted, orders = [], []
    convert, families = _JetRing.convert, invariants._families

    def counted(self, e):
        converted.append(e)
        return convert(self, e)

    def recorded(k):
        orders.append(k)
        return families(k)

    monkeypatch.setattr(_JetRing, "convert", counted)
    monkeypatch.setattr(invariants, "_families", recorded)
    for call in calls:
        call()
    assert converted == []
    assert orders and 2 not in orders


def test_derivation_matrix_first_row():
    # nabla_1 = (u_x/u_xx) D_x and nothing else
    row = derivation(1)
    assert equal(row[1], u_x / u_xx)
    assert row[0] == 0 and row[2] == 0


def test_a_derivation_index_outside_one_to_three_is_refused():
    for i in (0, 4):
        with pytest.raises(ValueError, match="derivation index must be 1..3"):
            derivation(i)


def test_coframe_normal_form():
    rep = coframe_rewrite()
    assert rep.matches and rep.adjusted
    expected = sp.Matrix([[0, 0, 2], [0, -1, 1], [2, 1, 4 * invariant(2) - 1]])
    diff = rep.gprime - expected
    assert all(is_zero(diff[i, j]) for i in range(3) for j in range(3))


def test_coframe_determinant():
    m = sp.Matrix([derivation(i) for i in (1, 2, 3)])
    assert equal(sp.det(m.inv()), -(u_x**3))


def test_independence_rank_is_twelve():
    theta = ms_system().point(
        3,
        internal={
            "u_x": Fraction(3, 2),
            "u_xx": Fraction(-2, 3),
            "u_y": Fraction(1, 5),
            "u_xy": Fraction(2, 7),
            "u_yy": Fraction(-1, 2),
            "v_x": Fraction(1, 3),
            "u_xxx": Fraction(5, 4),
            "v_xx": Fraction(-3, 5),
            "u_xxy": Fraction(1, 6),
            "v_xy": Fraction(2, 9),
        },
    )
    assert independence_rank(theta) == 12


def _tree_jacobian(point) -> list:
    """The Jacobian rows on trees: sp.diff of the numerator and denominator
    of each invariant, evaluated by JetPoint.eval, row-scaled by den^2."""
    coords = [jet(dep, idx) for dep in ("u", "v") for idx in internal_indices(3)]
    rows = []
    for e in _twelve_trees():
        num, den = sp.fraction(sp.together(e))
        nval, dval = point.eval(num), point.eval(den)
        rows.append(
            [dval * point.eval(sp.diff(num, c)) - nval * point.eval(sp.diff(den, c)) for c in coords]
        )
    return rows


@pytest.mark.parametrize("seed", [3, 17, 20260822])
def test_independence_rank_matches_the_tree_jacobian(seed):
    rng = random.Random(seed)
    internal = {
        jet(dep, idx): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
        for dep in ("u", "v")
        for idx in internal_indices(3)
    }
    theta = ms_system().point(3, internal=internal)
    assert independence_rank(theta) == rank(_tree_jacobian(theta)) == 12


# -- counting --------------------------------------------------------------


def test_counting_on_the_equation():
    for k in range(2, 7):
        rec = counting("ms", k)
        assert rec.s == 2 * k**2 - k - 3
        assert rec.h == (3 if k == 2 else 4 * k - 3)


def test_counting_off_equation_series():
    assert counting("weyl", 2).h == 13
    assert counting("ew-general", 2).h == 8
    for k in range(3, 7):
        assert counting("weyl", k).h == (5 * k**2 + 7 * k - 6) // 2
        assert counting("ew-general", k).h == 3 * (2 * k - 1)


def test_poincare_series_match_counting():
    for series in ("ms", "weyl", "ew-general"):
        coeffs = poincare_coefficients(series, 8)
        for k in range(2, 9):
            assert coeffs[k] == counting(series, k).h, (series, k)


def test_poincare_coefficients_match_the_series_expansion():
    z = sp.Symbol("z")
    for series in ("ms", "weyl", "ew-general"):
        expansion = sp.series(poincare_function(series), z, 0, 13).removeO()
        want = [int(expansion.coeff(z, m)) for m in range(13)]
        assert poincare_coefficients(series, 12) == want, series


def test_poincare_text_is_the_canonical_text_of_the_function():
    for series in ("ms", "weyl", "ew-general"):
        assert poincare_text(series) == to_text(poincare_function(series)), series


def test_poincare_closed_form_ms():
    z = sp.Symbol("z")
    p = poincare_function("ms")
    expected = z**2 * (3 + 3 * z - 2 * z**2) / (1 - z) ** 2
    assert sp.simplify(p.subs(sp.Symbol("z"), z) - expected) == 0
