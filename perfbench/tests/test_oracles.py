"""The benchmark's reference computations, checked on cases known by hand."""

import random
from fractions import Fraction

import sympy as sp

import oracles

t, x, y = oracles.t, oracles.x, oracles.y


def test_dimension_formulas():
    assert oracles.dims(2) == (23, 21)
    assert oracles.dims(3) == (43, 35)


def test_counting_closed_forms():
    assert [oracles.ms_counts(k) for k in (2, 3, 4)] == [(3, 3), (12, 9), (25, 13)]


def test_invariants_at_a_point():
    ones = dict(ux=Fraction(1), uxx=Fraction(1), uxy=Fraction(1), uyy=Fraction(0),
                vx=Fraction(0), vxx=Fraction(1), vxy=Fraction(0))
    i1, i2, i3 = oracles.invariants_at(ones)
    assert i1 == 2
    assert i2 == 0  # u_x^2 u_xy - u_xy^2 = 0
    assert i3 == 0  # u_x^2 v_xx - u_xy v_xx = 0


def test_hausdorff_distance():
    a = [(Fraction(0), Fraction(0))]
    b = [(Fraction(0), Fraction(0)), (Fraction(3), Fraction(-1))]
    assert oracles.hausdorff(a, a) == 0
    assert oracles.hausdorff(a, b) == 3
    assert oracles.hausdorff(b, a) == 3


def test_residuals_tell_solutions_from_non_solutions():
    points = [(Fraction(1, 2), Fraction(-1), Fraction(2)), (Fraction(2), Fraction(1, 3), Fraction(1))]
    assert oracles.section_solves(3 * x**2, sp.Integer(0), points)
    assert not oracles.section_solves(x * y, sp.Integer(0), points)


def test_sl2_family_written_out_solves_and_has_the_constant_invariants():
    r = sp.Rational
    u = y ** r(2, 3) - r(10, 3) * x / y
    v = r(2, 5) * x * y ** r(-1, 3) - r(7, 3) * x**2 / y**2 + r(21, 25) * y ** r(4, 3)
    points = [(Fraction(1), Fraction(-2), Fraction(3, 2)), (Fraction(0), Fraction(1), Fraction(5))]
    assert oracles.section_solves(u, v, points)
    got = oracles.section_invariants_at(u, v, points[0])
    assert all(oracles.close(a, sp.Rational(b)) for a, b in zip(got, oracles.SL2_INVARIANTS))


def test_exp_family_lies_on_the_zero_invariant_stratum():
    u, v = x + sp.exp(y), 1 + sp.exp(-y)
    assert oracles.section_solves(u, v, [(Fraction(1), Fraction(2), Fraction(-1))])
    got = oracles.section_invariants_at(u, v, (Fraction(1), Fraction(2), Fraction(-1)))
    assert all(oracles.close(a, 0) for a in got)
    assert oracles.EXP_FAMILY_CLOUD["values"] == [["0"] * 12]


def test_reduced_u_tx_and_the_printed_form():
    s = {n: sp.Symbol(n) for n in oracles.JET_NAMES}
    want = s["u_yy"] - s["u"] * s["u_xy"] - s["u_x"] * s["u_y"] - s["u_x"] * s["v_x"] - s["u_xx"] * s["v"]
    assert sp.expand(oracles.reduced_u_tx() - want) == 0
    printed = "u_yy - u*u_xy - u_x*u_y - u_x*v_x - u_xx*v"
    assert sp.expand(oracles.parse_program_text(printed) - want) == 0


def test_section_text_is_read_back():
    u, v = oracles.parse_section_text("u = 3*x^2 + y^(5/3); v = exp(y)/2")
    assert u == 3 * x**2 + y ** sp.Rational(5, 3)
    assert v == sp.exp(y) / 2


def test_nonzero_somewhere_finds_a_witness_and_none_for_zero():
    a = sp.Symbol("a")
    rng = random.Random(0)
    assert oracles.nonzero_somewhere(a * x - a, rng)
    assert not oracles.nonzero_somewhere(a * x - x * a, rng)
