"""Total derivatives, the second-order system, and on-shell reduction."""

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from jetweyl.counts import dims
from jetweyl.errors import JetOrderError
from jetweyl.exprcore import MAX_JET_ORDER, T, X, Y, equal, is_zero, jet
from jetweyl.geometry import Solution
from jetweyl.jets import (
    internal_indices,
    jet as _unused_guard,  # noqa: F401  (re-export sanity)
    ms_system,
    principal_indices,
    total_derivative,
    total_derivative_multi,
)
from tree_oracle import partial

u, v = jet("u"), jet("v")
u_t, u_x, u_y = (jet("u", ix) for ix in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
v_t, v_x, v_y = (jet("v", ix) for ix in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_total_derivative_on_dependents():
    assert total_derivative(u, "x") == u_x
    assert total_derivative(v, "t") == v_t


def test_leibniz():
    got = total_derivative(u_x * v, "y")
    assert equal(got, jet("u", (0, 1, 1)) * v + u_x * v_y)


def test_equation_canonical_forms():
    sys_ = ms_system()
    f1 = total_derivative(u_t + u * u_y + v * u_x, "x") - total_derivative(u_y, "y")
    f2 = total_derivative(v_t + v * v_x - u * v_y, "x") - total_derivative(v_y - 2 * u * v_x, "y")
    assert equal(sys_.F1, f1)
    assert equal(sys_.F2, f2)


def test_order_cap_enforced():
    top = jet("u", (0, MAX_JET_ORDER, 0))
    with pytest.raises(JetOrderError, match=f"order-{MAX_JET_ORDER + 1} jet coordinate past"):
        total_derivative(top, "x")


def test_multi_equals_iterated():
    e = u_x * v + u_y**2
    assert equal(
        total_derivative_multi(e, (1, 1, 0)),
        total_derivative(total_derivative(e, "t"), "x"),
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_total_derivatives_commute(seed):
    rng = random.Random(seed)
    pool = [u, v, u_x, u_y, v_x, T, Y]
    e = sum(rng.choice(pool) * rng.choice(pool) for _ in range(3))
    d1, d2 = rng.sample(("t", "x", "y"), 2)
    assert equal(
        total_derivative(total_derivative(e, d1), d2),
        total_derivative(total_derivative(e, d2), d1),
    )


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


def test_principal_solve_kills_both_equations():
    sys_ = ms_system()
    ru, rv = sys_.principal_solve()
    u_tx, v_tx = jet("u", (1, 1, 0)), jet("v", (1, 1, 0))
    for p in (ru, rv):
        assert not any(s in {u_tx, v_tx} for s in p.free_symbols)
    assert is_zero(sys_.F1.subs({u_tx: ru, v_tx: rv}))
    assert is_zero(sys_.F2.subs({u_tx: ru, v_tx: rv}))


def test_principal_solve_matches_the_tree_solve():
    # the tree solve divides F_w by sympy's derivative in its leading
    # coordinate; the solve by the recurrence's coefficient must give the
    # same trees
    sys_ = ms_system()
    want = []
    for F, dep in zip(sys_.equations, ("u", "v")):
        lead = jet(dep, "tx")
        want.append(sp.expand(lead - F / sp.diff(F, lead)))
    assert sys_.principal_solve() == tuple(want)


def test_prolonged_equation_is_affine_in_its_principal_slot():
    sys_ = ms_system()
    dxf1 = total_derivative(sys_.F1, "x")
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
    r1, r2 = Solution(0, 0, deferred=True).residuals()
    assert is_zero(r1) and is_zero(r2)


def test_section_residuals_flag_non_solutions():
    r1, _ = Solution(X * Y, 0, deferred=True).residuals()
    assert not is_zero(r1)


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
