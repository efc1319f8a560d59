"""Point fields on the base-times-fibre space and their jet prolongations."""

import pytest
import sympy as sp

from jetweyl.errors import JetOrderError
from jetweyl.exprcore import T, X, Y, MultiIndex, equal, formal, is_zero, jet
from jetweyl.fields import PointField, ProlongedField, _bracket_in, _phi_in
from jetweyl.trees import _ring_for
from tree_oracle import generating_section, tree_total_derivative

u, v = jet("u"), jet("v")
u_x, u_y = jet("u", (0, 1, 0)), jet("u", (0, 0, 1))

a, b, d = formal("a"), formal("b"), formal("d")
ad, bd, dd = formal("a", 1), formal("b", 1), formal("d", 1)

# three of the symmetry families, written out by hand
F_A = PointField(ax=a, fv=ad)
F_B = PointField(ay=b, fu=bd)
F_D = PointField(
    at=d,
    ay=sp.Rational(1, 2) * dd * Y,
    fu=sp.Rational(1, 2) * (Y * formal("d", 2) - u * dd),
    fv=-dd * v,
)


def applied(field: PointField, e, k: int) -> sp.Expr:
    """The order-k prolongation applied to e in the ring of the
    prolongation and e (``ProlongedField._apply_in``)."""
    prolonged = ProlongedField(field, k)
    ring = prolonged._ring(e)
    return ring.to_expr(prolonged._apply_in(ring, ring.convert(e)))


def bracket(a: PointField, b: PointField) -> PointField:
    """[a, b] by ``fields._bracket_in`` in a ring holding both fields."""
    ring = _ring_for(0, (*a.components(), *b.components()), derivatives=1)
    fa, fb = ([ring.convert(c) for c in f.components()] for f in (a, b))
    return PointField(*map(ring.to_expr, _bracket_in(ring, fa, fb)))


def section(field: PointField) -> tuple[sp.Expr, sp.Expr]:
    """(phi_u, phi_v) by ``fields._phi_in`` in a ring holding the field."""
    ring = _ring_for(1, field.components())
    comps = [ring.convert(c) for c in field.components()]
    return tuple(ring.to_expr(_phi_in(ring, comps, dep)) for dep in "uv")


def test_generating_section_of_vertical_field():
    phi_u, phi_v = section(PointField(fu=1))
    assert equal(phi_u, 1)
    assert equal(phi_v, 0)


def test_generating_section_absorbs_transport():
    # phi_w = f_w - at*w_t - ax*w_x - ay*w_y
    phi_u, phi_v = section(F_B)
    assert equal(phi_u, bd - b * u_y)
    assert equal(phi_v, -b * jet("v", (0, 0, 1)))


def test_translation_kills_translation_invariant_jets():
    assert is_zero(applied(PointField(ax=1), u_x, 1))


def test_lie_derivative_first_order():
    # X3 with c(t): prolonged coefficient on u is -2 - c*u_x*y ... exercised
    # through a simple dilation-like field instead
    f = PointField(ax=X, fu=u)
    got = applied(f, u_x, 1)
    assert equal(got, sp.Integer(0))  # u_x scales by e^s * e^{-s}


def test_bracket_antisymmetry():
    lhs = bracket(F_A, F_D)
    rhs = bracket(F_D, F_A)
    for attr in ("at", "ax", "ay", "fu", "fv"):
        assert equal(getattr(lhs, attr), -getattr(rhs, attr))


def test_jacobi_identity():
    fields3 = (F_A, F_B, F_D)
    total = {attr: sp.Integer(0) for attr in ("at", "ax", "ay", "fu", "fv")}
    for i in range(3):
        f1 = fields3[i]
        inner = bracket(fields3[(i + 1) % 3], fields3[(i + 2) % 3])
        outer = bracket(f1, inner)
        for attr in total:
            total[attr] += getattr(outer, attr)
    for attr, val in total.items():
        assert is_zero(val), attr


def test_prolongation_is_a_bracket_morphism():
    probe = u_x * v + u_y
    lhs = applied(bracket(F_A, F_D), probe, 1)
    rhs = applied(F_A, applied(F_D, probe, 2), 2) - applied(F_D, applied(F_A, probe, 2), 2)
    assert equal(lhs, rhs)


def test_prolonged_coefficient_matches_transport_formula():
    # the ring builds phi_u from the field's components; the oracle is the
    # expanded generating section
    pf = ProlongedField(F_D, 1)
    sec = generating_section(F_D)
    expect = (
        tree_total_derivative(sec.phi_u, "x")
        + F_D.at * jet("u", (1, 1, 0))
        + F_D.ay * jet("u", (0, 1, 1))
    )
    ring = pf._ring(sp.Integer(0))
    assert equal(ring.to_expr(pf._coeff_in(ring, "u", MultiIndex(0, 1, 0))), expect)


def test_prolongation_order_guard():
    with pytest.raises(JetOrderError):
        applied(F_A, jet("u", (0, 2, 0)), 1)


def test_equal_point_fields_hash_alike():
    # two arrangements of one coefficient with sqrt(2) in the denominator:
    # their printed canonical forms differ, the fields are equal
    r = sp.sqrt(2)
    a = (r * T**4 + 16 * r) / (8 * T**2 + 64)
    b = (T**4 + 16) / (4 * r * T**2 + 32 * r)
    assert equal(a, b)
    assert PointField(at=a) == PointField(at=b)
    assert hash(PointField(at=a)) == hash(PointField(at=b))
    assert len({PointField(at=a), PointField(at=b), PointField(at=a + 1)}) == 2
