"""Text syntax for kernel expressions and solution sections.

Grammar (whitespace-insensitive)::

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | atom ['^' exponent]
    exponent := ['-'] INT | '(' ['-'] INT ['/' INT] ')'
    atom     := INT | ident | '(' expr ')' | 'exp' '(' expr ')'
    ident    := 't' | 'x' | 'y' | 'u' | 'v'
              | jet coordinate:  u_tx, v_xxy, u_t3x2   (letters with counts)
              | formal function: f(t), f'(t), h''(t)

Rational literals are spelled ``p/q`` (division of integers).  ``^`` takes
integer or rational literal exponents only; general exponentiation is not
part of the language.  ``exp`` atoms are admitted only where the caller
says so (solution input); the kernel proper rejects them.

A solution section is two bindings separated by ``;`` or newlines::

    u = x + exp(y); v = 0

Serialization lives in :func:`jetweyl.exprcore.to_text`; parse/print/parse
is the identity on canonical forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import sympy as sp

from .errors import ParseError, UnknownSymbolError
from .exprcore import formal, is_jet_symbol, normalize, resolve_symbol, validate_kernel

__all__ = ["parse_expr", "parse_solution"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*'*)
  | (?P<op>[-+*/^()=;])
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str  # 'int' | 'ident' | one of -+*/^()=;
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup if m.lastgroup != "op" else m.group()
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, allow_exp: bool):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.allow_exp = allow_exp

    # -- token helpers ------------------------------------------------------

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {self.cur.text or 'end of input'!r}",
                self.cur.pos,
            )
        return self.advance()

    # -- grammar ------------------------------------------------------------

    def parse_expr(self) -> sp.Expr:
        node = self.parse_term()
        while self.cur.kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term(self) -> sp.Expr:
        node = self.parse_factor()
        while self.cur.kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.parse_factor()
            if op == "*":
                node = node * rhs
            else:
                if rhs == 0:
                    raise ParseError("division by zero literal", self.cur.pos)
                node = node / rhs
        return node

    def parse_factor(self) -> sp.Expr:
        if self.cur.kind == "-":
            self.advance()
            return -self.parse_factor()
        atom = self.parse_atom()
        if self.cur.kind == "^":
            self.advance()
            expo = self.parse_exponent()
            if expo.is_negative and atom == 0:
                raise ParseError("negative power of zero", self.cur.pos)
            atom = atom**expo
        return atom

    def parse_exponent(self) -> sp.Rational:
        sign = 1
        if self.cur.kind == "-":
            self.advance()
            sign = -1
        if self.cur.kind == "int":
            return sp.Integer(sign * int(self.advance().text))
        if self.cur.kind == "(":
            self.advance()
            if self.cur.kind == "-":
                self.advance()
                sign = -sign
            p = int(self.expect("int").text)
            q = 1
            if self.cur.kind == "/":
                self.advance()
                q = int(self.expect("int").text)
                if q == 0:
                    raise ParseError("zero denominator in exponent", self.cur.pos)
            self.expect(")")
            return sp.Rational(sign * p, q)
        raise ParseError(
            "exponent must be an integer or rational literal", self.cur.pos
        )

    def parse_atom(self) -> sp.Expr:
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            return sp.Integer(int(tok.text))
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            return self.parse_ident(tok)
        raise ParseError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
        )

    def parse_ident(self, tok: _Token) -> sp.Expr:
        name = tok.text
        if name == "exp":
            if not self.allow_exp:
                raise ParseError(
                    "exp(...) is not allowed in this context", tok.pos
                )
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return sp.exp(arg)
        if name in ("t", "x", "y", "u", "v"):
            if self.cur.kind == "(":
                raise ParseError(f"{name} does not take arguments", self.cur.pos)
            return resolve_symbol(name)
        if "_" in name:
            # a jet coordinate: u_tx, v_xxy, u_t3x2
            try:
                return resolve_symbol(name)
            except UnknownSymbolError:
                raise ParseError(f"unknown identifier {name!r}", tok.pos) from None
        # a formal function, applied to t: f(t), f''(t)
        base = name.rstrip("'")
        self.expect("(")
        arg = self.expect("ident")
        if arg.text != "t":
            raise ParseError(f"formal function {base!r} must be applied to t", arg.pos)
        self.expect(")")
        try:
            return formal(base, len(name) - len(base))
        except ValueError as exc:
            raise ParseError(str(exc), tok.pos) from None


def parse_expr(text: str, allow_exp: bool = False) -> sp.Expr:
    """Parse a single expression; returns it validated (``validate_kernel``)
    and in canonical form."""
    parser = _Parser(text, allow_exp=allow_exp)
    node = parser.parse_expr()
    if parser.cur.kind != "end":
        raise ParseError(
            f"trailing input {parser.cur.text!r}", parser.cur.pos
        )
    return normalize(validate_kernel(node, allow_exp=allow_exp))


def parse_solution(text: str, allow_exp: bool = True) -> dict[str, sp.Expr]:
    """Parse ``u = <expr>; v = <expr>`` (order free, newlines allowed)."""
    bindings: dict[str, sp.Expr] = {}
    chunks = [c for c in re.split(r"[;\n]+", text) if c.strip()]
    for chunk in chunks:
        parser = _Parser(chunk, allow_exp=allow_exp)
        head = parser.expect("ident")
        if head.text not in ("u", "v"):
            raise ParseError(
                f"solution bindings must assign u or v, got {head.text!r}", head.pos
            )
        parser.expect("=")
        node = parser.parse_expr()
        if parser.cur.kind != "end":
            raise ParseError(
                f"trailing input {parser.cur.text!r}", parser.cur.pos
            )
        if head.text in bindings:
            raise ParseError(f"duplicate binding for {head.text}", head.pos)
        node = normalize(validate_kernel(node, allow_exp=allow_exp))
        # in a fixed order, so that the message names the same jet each run
        for sym in sorted(node.free_symbols, key=sp.default_sort_key):
            if is_jet_symbol(sym):
                raise ParseError(
                    f"solution component may not reference jet coordinate {sym}",
                    head.pos,
                )
        bindings[head.text] = node
    missing = {"u", "v"} - set(bindings)
    if missing:
        raise ParseError(f"missing bindings for {', '.join(sorted(missing))}")
    return bindings

