"""Text front end: parse, print, and the errors users actually hit."""

import pytest
import sympy as sp

from jetweyl.dsl import parse_expr, parse_solution
from jetweyl.errors import ParseError
from jetweyl.geometry import Solution
from jetweyl.exprcore import T, X, Y, equal, formal, jet, to_text


def test_jet_names_with_repeat_counts():
    assert parse_expr("u_t3x2") == jet("u", (3, 2, 0))
    assert parse_expr("v_xx") == jet("v", (0, 2, 0))
    assert parse_expr("u_txy") == jet("u", (1, 1, 1))


def test_formal_function_primes():
    assert parse_expr("f''(t)") == formal("f", 2)


def test_rational_literals_and_powers():
    assert equal(parse_expr("3/4 * y^(2/3)"), sp.Rational(3, 4) * Y ** sp.Rational(2, 3))
    assert equal(parse_expr("(t + x)^2"), T**2 + 2 * T * X + X**2)


def test_round_trip_through_text():
    e = parse_expr("(u_xy + v_xx) / u_x^2")
    assert equal(parse_expr(to_text(e)), e)


def test_exp_requires_flag():
    with pytest.raises(ParseError):
        parse_expr("exp(y)")
    assert parse_expr("exp(y)", allow_exp=True) == sp.exp(Y)


def test_parse_solution_returns_components():
    sol = parse_solution("u = x + exp(y) ; v = f(t) + h(t)*exp(-y)")
    assert sorted(sol) == ["u", "v"]
    assert equal(sol["u"], X + sp.exp(Y))


def test_solution_text_round_trip():
    sol = parse_solution("u = y^(2/3) - 10/3 * x/y ; v = 2/5 * x * y^(-1/3)")
    text = str(Solution(sol["u"], sol["v"], deferred=True))
    again = parse_solution(text)
    assert equal(again["u"], sol["u"]) and equal(again["v"], sol["v"])


def test_empty_component_is_a_syntax_error():
    with pytest.raises(ParseError) as err:
        parse_solution("u = ; v = 0")
    assert "position" in str(err.value)


def test_solutions_may_not_mention_jets():
    with pytest.raises(ParseError):
        parse_solution("u = u_x ; v = 0")
    # with several jets the message names the first in sort order, whatever
    # the order of the expression's symbol set
    with pytest.raises(ParseError, match="jet coordinate u "):
        parse_solution("u = v_txy + u_x + u ; v = 0")


def test_error_positions_point_at_the_offence():
    with pytest.raises(ParseError) as err:
        parse_expr("u_x + ")
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse_expr("u_x ** 2")  # only ^ is power here
    with pytest.raises(ParseError):
        parse_expr("w_x")  # unknown dependent
