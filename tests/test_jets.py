"""Total derivatives, the second-order system, and on-shell reduction."""

import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.polys.polyerrors import ExactQuotientFailed

from jetweyl import jets
from jetweyl.counts import dims
from jetweyl.errors import JetOrderError
from jetweyl.exprcore import MAX_JET_ORDER, T, X, Y, equal, is_zero, jet
from jetweyl.geometry import Solution
from jetweyl.jets import (
    _equations,
    _jet_ring,
    _recurrence,
    internal_indices,
    ms_system,
    principal_indices,
)
from tree_oracle import (
    fraction_principal_values,
    partial,
    tree_equations,
    tree_normalize,
    tree_recurrence,
    tree_total_derivative,
    written_equations,
)

u, v = jet("u"), jet("v")
u_t, u_x, u_y = (jet("u", ix) for ix in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
v_t, v_x, v_y = (jet("v", ix) for ix in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def total(e, *directions, order: int = 3) -> sp.Expr:
    """D_d ... e by ``_JetRing.total`` in the jet ring of ``order``."""
    ring = _jet_ring(order)
    f = ring.convert(e)
    for d in directions:
        f = ring.total(f, d)
    return ring.to_expr(f)


def test_total_derivative_on_dependents():
    assert total(u, "x") == u_x
    assert total(v, "t") == v_t


def test_leibniz():
    got = total(u_x * v, "y")
    assert equal(got, jet("u", (0, 1, 1)) * v + u_x * v_y)


def test_equation_canonical_forms():
    # the ring form against the conservation forms, differentiated on trees
    D = tree_total_derivative
    f1 = D(u_t + u * u_y + v * u_x, "x") - D(u_y, "y")
    f2 = D(v_t + v * v_x - u * v_y, "x") - D(v_y - 2 * u * v_x, "y")
    ring = _jet_ring(2)
    F1, F2 = _equations()
    assert ring.to_expr(F1) == tree_normalize(f1)
    assert ring.to_expr(F2) == tree_normalize(f2)


def test_order_cap_enforced():
    with pytest.raises(JetOrderError, match=f"jet order {MAX_JET_ORDER + 1} exceeds the hard cap"):
        jet("u", (0, MAX_JET_ORDER + 1, 0))
    top = jet("u", (0, MAX_JET_ORDER, 0))
    with pytest.raises(JetOrderError, match=f"outside the ring of jet order {MAX_JET_ORDER}"):
        total(top, "x", order=MAX_JET_ORDER)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_total_derivatives_commute(seed):
    rng = random.Random(seed)
    pool = [u, v, u_x, u_y, v_x, T, Y]
    e = sum(rng.choice(pool) * rng.choice(pool) for _ in range(3))
    d1, d2 = rng.sample(("t", "x", "y"), 2)
    assert total(e, d1, d2) == total(e, d2, d1)


def _as_multiset(recurrence) -> tuple:
    # a two-factor term may list its factors in either order
    c, terms = recurrence
    return c, Counter((coef, tuple(sorted(factors))) for coef, factors in terms)


def _terms(F) -> dict:
    """{monomial: rational coefficient} of an expanded polynomial."""
    return dict(sp.expand(F).as_coefficients_dict())


def test_the_oracle_transcribes_the_written_equations():
    # the oracle's F1, F2 come from their definition by tree total
    # derivatives; they equal the written form term for term, and a copy of
    # the written form with any one coefficient changed is told apart
    for written, transcribed in zip(written_equations(), tree_equations()):
        want = _terms(transcribed)
        assert _terms(written) == want
        for monomial in _terms(written):
            assert _terms(written + monomial) != want, monomial


def test_recurrence_matches_the_tree_parse():
    for F, dep in zip(tree_equations(), ("u", "v")):
        assert _as_multiset(_recurrence(dep)) == _as_multiset(tree_recurrence(F, dep))


def test_a_leading_coefficient_other_than_one_or_minus_one_is_refused(monkeypatch):
    # F1 doubled leads with 2*u_tx: the recurrence and the leading solve
    # of the table refuse it rather than divide by 2 over ZZ
    F1, F2 = _equations()
    monkeypatch.setattr(jets, "_equations", lambda: (F1 * 2, F2))
    _recurrence.cache_clear()
    try:
        with pytest.raises(AssertionError, match="equation not affine-monic in u_tx"):
            _recurrence("u")
        ring = jets._JetRing(2)
        with pytest.raises(AssertionError, match="equation not affine-monic in u_tx"):
            ring.principal(ring.symbol_index[jet("u", "tx")])
        assert _recurrence("v")[0] == 1
    finally:
        _recurrence.cache_clear()


def test_the_leading_solve_divides_exactly(monkeypatch):
    # a leading coefficient of 2 that slipped past the recurrence: the
    # odd coefficients of F1 make the division fail, where sympy's
    # quo_ground over ZZ would drop their terms and truncate the table
    monkeypatch.setattr(jets, "_recurrence", lambda dep: (2, ()))
    ring = jets._JetRing(2)
    with pytest.raises(ExactQuotientFailed):
        ring.principal(ring.symbol_index[jet("u", "tx")])


def test_dimension_table():
    # jet space: 3 + 2*C(k+3,3); equation: 3 + 2(k+1)^2 once both
    # mixed principal slots exist (k >= 2)
    expected_jet = {0: 5, 1: 11, 2: 23, 3: 43, 4: 73}
    expected_eq = {0: 5, 1: 11, 2: 21, 3: 35, 4: 53}
    for k, dj in expected_jet.items():
        rec = dims(k)
        assert rec.dim_jet_space == dj
        assert rec.dim_equation == expected_eq[k]
        per_dep = len(internal_indices(k))
        assert 3 + 2 * per_dep == rec.dim_equation


def test_principal_indices_are_mixed():
    for ix in principal_indices(4):
        assert ix.nt >= 1 and ix.nx >= 1


def _leading_entries() -> tuple:
    """R_u, R_v with w_tx = R_w on the equation: the leading entries of the
    principal table, as trees."""
    ring = _jet_ring(2)
    return tuple(
        ring.to_expr(ring.field.raw_new(ring.principal(ring.symbol_index[jet(dep, "tx")])))
        for dep in ("u", "v")
    )


def test_principal_solve_kills_both_equations():
    ru, rv = _leading_entries()
    u_tx, v_tx = jet("u", (1, 1, 0)), jet("v", (1, 1, 0))
    for p in (ru, rv):
        assert not any(s in {u_tx, v_tx} for s in p.free_symbols)
    F1, F2 = tree_equations()
    assert is_zero(F1.subs({u_tx: ru, v_tx: rv}))
    assert is_zero(F2.subs({u_tx: ru, v_tx: rv}))


def test_principal_solve_matches_the_tree_solve():
    # the tree solve divides F_w by sympy's derivative in its leading
    # coordinate; the table's leading entries, w_tx - F_w/c with c read off
    # the ring form, must give the same trees
    want = []
    for F, dep in zip(tree_equations(), ("u", "v")):
        lead = jet(dep, "tx")
        want.append(sp.expand(lead - F / sp.diff(F, lead)))
    assert _leading_entries() == tuple(want)


def test_prolonged_equation_is_affine_in_its_principal_slot():
    ring = _jet_ring(3)
    dxf1 = ring.to_expr(ring.total(ring.embed(_equations()[0]), "x"))
    slot = jet("u", (1, 2, 0))
    assert equal(partial(dxf1, slot), 1)
    assert slot not in partial(dxf1, slot).free_symbols


def test_reduce_removes_principal_coordinates():
    sys_ = ms_system()
    principal = {
        jet(dep, (ix.nt, ix.nx, ix.ny)) for k in (2, 3, 4) for ix in principal_indices(k) for dep in ("u", "v")
    }
    e = jet("u", (1, 1, 0)) * v + jet("v", (2, 2, 0))
    red = sys_.reduce(e)
    assert not (red.free_symbols & principal)
    # idempotent
    assert equal(sys_.reduce(red), red)


def test_section_residuals_trivial_solution():
    sol = Solution(0, 0, deferred=True)
    r1, r2 = map(sol.field.expr, sol._residuals())
    assert is_zero(r1) and is_zero(r2)


def test_section_residuals_flag_non_solutions():
    sol = Solution(X * Y, 0, deferred=True)
    r1, _ = map(sol.field.expr, sol._residuals())
    assert not is_zero(r1)


# ---------------------------------------------------------------------------
# the integer solve of JetPoint against the Fraction solve it replaced


def _oracle_point(rng, k, den=10**6, zeros=0.0, base=None):
    """A seeded point of order k, its internal coordinates rationals with
    denominators up to ``den``, each 0 with probability ``zeros``."""
    internal = {
        (dep, (i.nt, i.nx, i.ny)): Fraction(0)
        if rng.random() < zeros
        else Fraction(rng.randint(-10**6, 10**6), rng.randint(1, den))
        for dep in ("u", "v")
        for i in internal_indices(k)
    }
    point = ms_system().point(
        k, base=base, internal={jet(dep, idx): q for (dep, idx), q in internal.items()}
    )
    return point, internal


def _assert_matches_oracle(point, internal, order):
    want = fraction_principal_values(internal, order)
    assert len(want) == 2 * len(principal_indices(order))
    point._solve_through(order)
    for (dep, idx), q in want.items():
        n, e = point._coord(dep, idx)
        assert Fraction(n, point._L**e) == q, (dep, idx)
        assert point.value(jet(dep, idx)) == q, (dep, idx)


@pytest.mark.parametrize("order", range(2, MAX_JET_ORDER + 1))
def test_integer_solve_matches_the_fraction_solve(order):
    rng = random.Random(order)
    _assert_matches_oracle(*_oracle_point(rng, order), order)
    # small denominators and a third of the coordinates 0
    _assert_matches_oracle(*_oracle_point(rng, order, den=7, zeros=0.3), order)


def test_integer_solve_at_the_origin_of_the_jets():
    point, internal = ms_system().point(MAX_JET_ORDER), {}
    assert point._L == 1
    _assert_matches_oracle(point, internal, MAX_JET_ORDER)
    assert all(point._coord(d, (i.nt, i.nx, i.ny))[0] == 0
               for d in ("u", "v") for i in principal_indices(MAX_JET_ORDER))


def test_integer_solve_ignores_the_base_point():
    rng = random.Random(3)
    base = {"t": Fraction(-7, 3), "x": Fraction(5, 11), "y": Fraction(10**6 + 3, 2)}
    point, internal = _oracle_point(rng, 4, base=base)
    _assert_matches_oracle(point, internal, 6)
    assert point.value(T) == base["t"] and point.value(Y) == base["y"]


def test_integer_solve_reads_a_high_order_value_first():
    rng = random.Random(6)
    point, internal = _oracle_point(rng, 5, den=1000, zeros=0.2)
    want = fraction_principal_values(internal, 6)
    # an order-6 principal value before any order-3 one
    assert point.value(jet("v", (2, 3, 1))) == want[("v", (2, 3, 1))]
    assert point.value(jet("u", (1, 1, 1))) == want[("u", (1, 1, 1))]
    _assert_matches_oracle(point, internal, 6)


def test_jet_point_round_trip():
    sys_ = ms_system()
    rng = random.Random(7)
    internal = {}
    for dep in ("u", "v"):
        for ix in internal_indices(2):
            internal[jet(dep, ix)] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    jp = sys_.point(2, base={"t": 0, "x": 1, "y": 2}, internal=internal)
    assert jp.k == 2
    # a principal value is derived, not stored
    u_tx = jet("u", (1, 1, 0))
    assert u_tx not in jp.internal
    assert jp.value(u_tx) == jp.eval(sys_.reduce(u_tx))


@pytest.mark.parametrize(
    "base, internal, named",
    [
        ({"t": 0.1}, {}, "t = 0.1"),
        ({}, {"u_x": 0.3}, "u_x = 0.3"),
        ({}, {"v_yy": 2.0}, "v_yy = 2.0"),
    ],
)
def test_a_float_coordinate_is_refused(base, internal, named):
    # 0.1 would be held as 3602879701896397/36028797018963968
    with pytest.raises(ValueError) as exc:
        ms_system().point(2, base=base, internal=internal)
    assert named in str(exc.value) and "float" in str(exc.value)


def test_integers_read_coordinates_over_one_denominator():
    rng = random.Random(29)
    base = {"t": Fraction(-7, 3), "x": Fraction(5, 11), "y": 4}
    point, internal = _oracle_point(rng, 3, den=50, zeros=0.3, base=base)
    keys = ("t", "x", "y", ("u", (0, 2, 1)), ("v", (1, 1, 0)), ("u", (2, 1, 1)), ("v", (0, 0, 5)))
    nums, den = point.integers(keys)
    assert den > 0 and all(type(n) is int for n in nums)
    want = [*(Fraction(base[c]) for c in "txy")]
    want += [point.value(jet(dep, idx)) for dep, idx in keys[3:]]
    assert [Fraction(n, den) for n in nums] == want
    assert want[-1] == 0  # an internal coordinate past k extends by zero
    assert point.integers(()) == ([], 1)
    assert point.integers(keys) is point.integers(keys)  # read once
