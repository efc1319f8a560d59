"""The two-stage DSL against the one-stage parser of ``tree_oracle``.

The corpus is every string of ``test_dsl.py``, ``test_cli.py`` and
``test_canonical.py`` (the DSL texts among them, and argv words and
messages, which the DSL refuses) with, per token, its deletion and a
seeded insertion and replacement.  A text with ``=`` is read as a solution
section, any other as an expression.  Old and new must agree entry for
entry: the same ``srepr`` on success, else the same error class and
message.  The one accepted difference: a text with an algebra fault
(``x/(x - x)``, a term-language or jet-coordinate fault of a binding) and
a later fault that the syntax stage finds reports the later one.
"""

import ast
import pathlib
import random
from fractions import Fraction

import pytest
import sympy as sp

from jetweyl import dsl, syntax
from jetweyl.errors import ExprError, JetOrderError, ParseError
from tree_oracle import _tokenize, tree_parse_expr, tree_parse_solution

_HERE = pathlib.Path(__file__).resolve().parent
_SOURCES = ("test_dsl.py", "test_cli.py", "test_canonical.py")

# tokens spliced into the corpus texts
_ALPHABET = (
    "+", "-", "*", "/", "^", "(", ")", "=", ";", "0", "1", "2", "(-1)", "(1/2)",
    "x", "t", "y", "u", "v", "u_x", "v_tx", "u_x9", "w_x", "f(t)", "f''(t)",
    "exp", "exp(y)", "sqrt", "gamma", "x-x", "(x-x)", "\n", "@",
)


def _strings() -> list:
    found = set()
    for name in _SOURCES:
        tree = ast.parse((_HERE / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if len(node.value) <= 200:
                    found.add(node.value)
    return sorted(found)


def _mutations(text: str, rng: random.Random) -> list:
    """Per token: the text without it, with an alphabet token before it
    and with it replaced by one."""
    try:
        tokens = _tokenize(text, 0)[:-1]
    except ParseError:
        return []
    spans = [(tok.pos, tok.pos + len(tok.text)) for tok in tokens]
    out = []
    for a, b in spans:
        out.append(text[:a] + text[b:])
        out.append(f"{text[:a]} {rng.choice(_ALPHABET)} {text[a:]}")
        out.append(f"{text[:a]} {rng.choice(_ALPHABET)} {text[b:]}")
    return out


def _corpus() -> list:
    rng = random.Random(30)
    texts = set()
    for text in _strings():
        texts.add(text)
        texts.update(_mutations(text, rng))
    return sorted(texts)


_CORPUS = _corpus()


def _outcome(parse, text: str, allow_exp: bool):
    try:
        got = parse(text, allow_exp=allow_exp)
    except Exception as exc:  # the class and message are compared
        return "error", type(exc).__name__, str(exc)
    if isinstance(got, dict):
        return "ok", sorted((k, sp.srepr(e)) for k, e in got.items())
    return "ok", sp.srepr(got)


def _syntax_fault(text: str, allow_exp: bool):
    try:
        if "=" in text:
            syntax.parse_solution(text, allow_exp=allow_exp)
        else:
            syntax.parse_expr(text, allow_exp=allow_exp)
    except Exception as exc:
        return "error", type(exc).__name__, str(exc)
    return None


_ALGEBRA_MESSAGES = (
    "division by zero literal",
    "negative power of zero",
    "solution component may not reference jet coordinate",
)


def _is_algebra_fault(outcome) -> bool:
    """An error of the building stage: a zero that needs algebra, a fault
    of the term language or a jet coordinate in a binding."""
    _, cls, message = outcome
    if cls == "ParseError":
        return message.startswith(_ALGEBRA_MESSAGES)
    return cls in {c.__name__ for c in (ExprError, *ExprError.__subclasses__())}


def test_the_corpus_is_large():
    assert len(_CORPUS) >= 2000


def test_the_two_stages_agree_with_the_one_stage_parser():
    rng = random.Random(31)
    reordered = []
    for text in _CORPUS:
        solution = "=" in text
        allow_exp = solution or rng.random() < 0.5
        old_parse = tree_parse_solution if solution else tree_parse_expr
        new_parse = dsl.parse_solution if solution else dsl.parse_expr
        old = _outcome(old_parse, text, allow_exp)
        new = _outcome(new_parse, text, allow_exp)
        if old == new:
            continue
        # two faults: the syntax stage reports the later one first
        assert old[0] == "error" and _is_algebra_fault(old), (text, old, new)
        assert new == _syntax_fault(text, allow_exp), (text, old, new)
        reordered.append(text)
    assert len(reordered) < len(_CORPUS) // 20, reordered


# ---------------------------------------------------------------------------
# the syntax stage by itself


def test_the_tree_carries_token_positions():
    assert syntax.parse_expr("u_x + 2*f'(t)") == (
        "sum", 0, ("name", 0, "u_x"),
        (("+", ("product", 6, ("int", 6, 2), (("*", ("formal", 8, "f", 1), 13),)), 13),),
    )
    assert syntax.parse_expr("-y^(2/3)") == ("neg", 0, ("^", 1, ("name", 1, "y"), Fraction(2, 3), 8))
    assert syntax.parse_solution("v = 0\nu = exp(x)") == [
        ("v", 0, ("int", 4, 0)),
        ("u", 6, ("exp", 10, ("name", 14, "x"))),
    ]


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/0", "division by zero literal (at position 3)"),
        ("x/(3 - 6/2) + 1", "division by zero literal (at position 12)"),
        ("(2^2 - 4)^(-1)", "negative power of zero (at position 14)"),
        ("0^0/0^(1/2)", "division by zero literal (at position 11)"),
    ],
)
def test_rational_zeros_are_found_without_algebra(text, message):
    with pytest.raises(ParseError) as err:
        syntax.parse_expr(text)
    assert str(err.value) == message


def test_a_zero_that_needs_algebra_is_left_to_the_builder():
    tree = syntax.parse_expr("x/(x - x)")
    with pytest.raises(ParseError, match=r"division by zero literal \(at position 9\)"):
        dsl._build(tree)
    # a constant too large to fold is decided there as well
    tree = syntax.parse_expr("1/(2^100 - 2^100)")
    with pytest.raises(ParseError, match="division by zero literal"):
        dsl._build(tree)


def test_a_jet_order_past_the_cap_is_a_syntax_error():
    with pytest.raises(JetOrderError, match="jet order 9 exceeds the hard cap 8"):
        syntax.parse_expr("u_tx + u_x9")
    assert syntax.jet_parts("u_t2x") == ("u", syntax.MultiIndex(2, 1, 0))
    assert syntax.jet_parts("f") is None and syntax.jet_parts("w_x") is None


@pytest.mark.parametrize("word", ["x0", "t0y", "x01", "tx0"])
def test_a_zero_count_names_no_jet(word):
    assert syntax.jet_parts(f"u_{word}") is None
    with pytest.raises(ValueError, match="bad jet index word"):
        syntax.MultiIndex.from_word(word)
