"""Text syntax for kernel expressions and solution sections, in two stages.

:mod:`jetweyl.syntax` reads a text into a tree without loading sympy; its
docstring gives the grammar, and it raises every error the text alone
decides.  This module builds the sympy expression from the tree, in the
order of the tokens, raises the zero divisors and zero bases of negative
powers that only algebra finds (``x/(x - x)``), and returns the result
validated (``validate_kernel``) and in canonical form.

Serialization lives in :func:`jetweyl.exprcore.to_text`; parse/print/parse
is the identity on canonical forms.
"""

from __future__ import annotations

import sympy as sp

from . import syntax
from .errors import ParseError
from .exprcore import formal, is_jet_symbol, normalize, resolve_symbol, validate_kernel

__all__ = ["parse_expr", "parse_solution"]


def _build(node: syntax.Node) -> sp.Expr:
    """The sympy expression of a tree of :mod:`jetweyl.syntax`."""
    kind = node[0]
    if kind == "int":
        return sp.Integer(node[2])
    if kind == "name":
        return resolve_symbol(node[2])
    if kind == "formal":
        return formal(node[2], node[3])
    if kind == "exp":
        return sp.exp(_build(node[2]))
    if kind == "neg":
        return -_build(node[2])
    if kind == "^":
        _, _, base, expo, at = node
        atom = _build(base)
        expo = sp.Rational(expo.numerator, expo.denominator)
        if expo.is_negative and atom == 0:
            raise ParseError("negative power of zero", at)
        return atom**expo
    _, _, first, rest = node
    out = _build(first)
    for op, operand, at in rest:
        rhs = _build(operand)
        if op == "+":
            out = out + rhs
        elif op == "-":
            out = out - rhs
        elif op == "*":
            out = out * rhs
        else:
            if rhs == 0:
                raise ParseError("division by zero literal", at)
            out = out / rhs
    return out


def parse_expr(text: str, allow_exp: bool = False) -> sp.Expr:
    """Parse a single expression; returns it validated (``validate_kernel``)
    and in canonical form."""
    node = _build(syntax.parse_expr(text, allow_exp=allow_exp))
    return normalize(validate_kernel(node, allow_exp=allow_exp))


def parse_solution(text: str, allow_exp: bool = True) -> dict[str, sp.Expr]:
    """Parse ``u = <expr>; v = <expr>`` (order free, newlines allowed)."""
    bindings: dict[str, sp.Expr] = {}
    for name, pos, tree in syntax.parse_solution(text, allow_exp=allow_exp):
        node = normalize(validate_kernel(_build(tree), allow_exp=allow_exp))
        # in a fixed order, so that the message names the same jet each run
        for sym in sorted(node.free_symbols, key=sp.default_sort_key):
            if is_jet_symbol(sym):
                raise ParseError(
                    f"solution component may not reference jet coordinate {sym}", pos
                )
        bindings[name] = node
    return bindings
