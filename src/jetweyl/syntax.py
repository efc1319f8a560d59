"""The DSL read without algebra: names, tokens, grammar, tree.

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

This module imports the standard library and ``errors`` only, so a command
line can be read before sympy loads.  :func:`parse_expr` and
:func:`parse_solution` return a tree of tuples ``(kind, position, ...)``
and raise, in the order of the tokens, every error that the text decides:
grammar errors, identifier errors (an unknown name, an elementary or
special function name, a jet order past :data:`MAX_JET_ORDER`) and a
divisor or negative-power base that is zero as a rational constant
(``1/0``, ``0^(-1)``).  ``dsl`` builds the sympy expression from the tree;
a zero that needs algebra (``x/(x - x)``) is found there.

The name rules of the term language live here too, so ``exprcore``
imports them: the derivative multi-index, the jet-order cap, the
dependent variables, and the names that may not name a formal function.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import JetOrderError, ParseError, read_only

__all__ = [
    "MAX_JET_ORDER",
    "DEPENDENTS",
    "CATALOG_IDS",
    "MultiIndex",
    "capped",
    "check_formal_name",
    "jet_parts",
    "parse_expr",
    "parse_solution",
    "int_to_text",
    "text_to_int",
]

# ---------------------------------------------------------------------------
# names

#: hard cap on jet order: ``jet`` refuses a coordinate past it, so no jet
#: ring holds one, and reduction, prolongation and the orbit rank refuse
#: orders that would need one.
MAX_JET_ORDER = 8

DEPENDENTS = ("u", "v")

#: the sections of the explicit-solution catalog (``geometry.catalog``); a
#: solution argument of the command line names one or gives bindings
CATALOG_IDS = (
    "trivial",
    "dkp-partial",
    "hierarchy",
    "exp-family",
    "sl2-family",
    "sl2-degenerate",
)

_FORMAL_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")
_JET_WORD_RE = re.compile(r"^(?:[txy](?:[1-9]\d*)?)+$")
_JET_NAME_RE = re.compile(r"^([uv])_((?:[txy](?:[1-9]\d*)?)+)$")


class MultiIndex:
    """Symmetric derivative multi-index: counts of t-, x-, y-derivatives.
    Read-only; equal, hashed and ordered as the tuple (nt, nx, ny)."""

    def __init__(self, nt: int = 0, nx: int = 0, ny: int = 0):
        for n in (nt, nx, ny):
            if not isinstance(n, int) or n < 0:
                raise ValueError(
                    "multi-index entries must be non-negative ints, "
                    f"got MultiIndex(nt={nt!r}, nx={nx!r}, ny={ny!r})"
                )
        # object.__setattr__, not self.__dict__: touching __dict__ turns
        # every later read of a field into a dict lookup, and multi-indices
        # are read in the jet ring's loops
        object.__setattr__(self, "nt", nt)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "ny", ny)

    __setattr__ = __delattr__ = read_only

    def __repr__(self) -> str:
        return f"MultiIndex(nt={self.nt!r}, nx={self.nx!r}, ny={self.ny!r})"

    def __hash__(self) -> int:
        return hash((self.nt, self.nx, self.ny))

    def __eq__(self, other):
        if other.__class__ is not MultiIndex:
            return NotImplemented
        return (self.nt, self.nx, self.ny) == (other.nt, other.nx, other.ny)

    # a > b and a >= b are the reflections b < a and b <= a
    def __lt__(self, other):
        if other.__class__ is not MultiIndex:
            return NotImplemented
        return (self.nt, self.nx, self.ny) < (other.nt, other.nx, other.ny)

    def __le__(self, other):
        if other.__class__ is not MultiIndex:
            return NotImplemented
        return (self.nt, self.nx, self.ny) <= (other.nt, other.nx, other.ny)

    @property
    def order(self) -> int:
        return self.nt + self.nx + self.ny

    @property
    def is_principal(self) -> bool:
        """Principal = at least one t- and one x-derivative; the equation
        expresses these coordinates through the remaining (internal) ones."""
        return self.nt >= 1 and self.nx >= 1

    @property
    def is_internal(self) -> bool:
        return not self.is_principal

    def bump(self, direction) -> "MultiIndex":
        """One more derivative in ``direction``: 't', 'x', 'y' or a base
        variable symbol."""
        d = _direction_name(direction)
        return MultiIndex(
            self.nt + (d == "t"), self.nx + (d == "x"), self.ny + (d == "y")
        )

    def drop(self, direction) -> "MultiIndex":
        d = _direction_name(direction)
        out = MultiIndex(
            self.nt - (d == "t"), self.nx - (d == "x"), self.ny - (d == "y")
        )
        return out

    def word(self) -> str:
        """Compact letter form: MultiIndex(1,2,0) -> 'txx'; empty for order 0."""
        return "t" * self.nt + "x" * self.nx + "y" * self.ny

    @staticmethod
    def from_word(word: str) -> "MultiIndex":
        """Parse 'txx', 't2x', 'x3y' style words (letters, each with an optional positive count)."""
        if word == "":
            return MultiIndex()
        if not _JET_WORD_RE.match(word):
            raise ValueError(f"bad jet index word {word!r}")
        counts = {"t": 0, "x": 0, "y": 0}
        for letter, num in re.findall(r"([txy])(\d*)", word):
            counts[letter] += text_to_int(num) if num else 1
        return MultiIndex(counts["t"], counts["x"], counts["y"])

    def __str__(self) -> str:
        return self.word() or "0"


def _direction_name(direction) -> str:
    # a base variable symbol carries its letter as its name
    direction = getattr(direction, "name", direction)
    if direction not in ("t", "x", "y"):
        raise ValueError(f"direction must be one of t,x,y, got {direction!r}")
    return direction


def capped(index: MultiIndex) -> MultiIndex:
    """The index itself; :class:`JetOrderError` past :data:`MAX_JET_ORDER`."""
    if index.order > MAX_JET_ORDER:
        raise JetOrderError(
            f"jet order {int_to_text(index.order)} exceeds the hard cap {MAX_JET_ORDER}"
        )
    return index


def jet_parts(name: str) -> tuple[str, MultiIndex] | None:
    """(dependent, index) of a jet coordinate name (``u``, ``u_tx``,
    ``v_t2x``), None for any other name; :class:`JetOrderError` past the
    cap."""
    if name in DEPENDENTS:
        return name, MultiIndex()
    m = _JET_NAME_RE.match(name)
    if m is None:
        return None
    return m.group(1), capped(MultiIndex.from_word(m.group(2)))


# elementary functions the term language lacks (exp aside): as names of
# formal functions they would stand for some other function of t unnoticed
_ELEMENTARY = frozenset(
    {"sqrt", "cbrt", "log", "ln", "log2", "log10", "abs"}
    | {
        pre + f + post
        for f in ("sin", "cos", "tan", "cot", "sec", "csc")
        for pre in ("", "a", "arc")
        for post in ("", "h")
    }
)
# special functions: the same holds for their names
_SPECIAL = frozenset(
    {"erf", "erfc", "erfi", "erfinv", "erfcinv", "erf2", "erf2inv"}
    | {"gamma", "lgamma", "loggamma", "digamma", "trigamma", "polygamma"}
    | {"uppergamma", "lowergamma", "multigamma", "beta", "betainc"}
    | {"factorial", "factorial2", "subfactorial", "binomial"}
    | {"zeta", "polylog", "lerchphi", "stieltjes"}
    | {"besselj", "bessely", "besseli", "besselk", "hankel1", "hankel2", "jn", "yn"}
    | {"airyai", "airybi", "airyaiprime", "airybiprime"}
    | {"Ei", "E1", "expint", "li", "Li", "Si", "Ci", "Shi", "Chi", "fresnels", "fresnelc"}
    | {"LambertW", "hyper", "meijerg", "sinc", "atan2"}
    | {"legendre", "hermite", "laguerre", "jacobi", "gegenbauer", "chebyshevt", "chebyshevu"}
    | {"sign", "sgn", "floor", "ceiling", "ceil", "frac", "round", "Heaviside", "DiracDelta"}
    | {"Max", "Min", "max", "min", "re", "im", "arg", "conjugate"}
)
_RESERVED_FORMAL = {"t", "x", "y", "u", "v", "exp"} | _ELEMENTARY | _SPECIAL


def check_formal_name(name: str) -> None:
    """ValueError unless ``name`` may name a formal function of t."""
    if name in _ELEMENTARY or name in _SPECIAL:
        kind = "an elementary" if name in _ELEMENTARY else "a special"
        hint = "; write a fractional power such as t^(1/2)" if name == "sqrt" else ""
        raise ValueError(
            f"{name} is {kind} function outside the term language, "
            f"not a formal function name{hint}"
        )
    if not _FORMAL_NAME_RE.match(name) or name in _RESERVED_FORMAL:
        raise ValueError(f"bad formal function name {name!r}")
    if name[0] in "uv" and (len(name) == 1 or name[1] == "_"):
        raise ValueError(f"formal name {name!r} collides with jet coordinates")


# ---------------------------------------------------------------------------
# integers and their decimal text
#
# Python refuses to convert between an int and its decimal text past
# sys.get_int_max_str_digits() digits (4,300 by default, 640 at the least).
# These two convert piece by piece, each piece under that least limit, so
# a literal of any length reads and a coefficient of any size prints.

_DIGITS = 600


def int_to_text(n: int) -> str:
    """``str(n)``, for an int of any size."""
    if n < 0:
        return "-" + int_to_text(-n)
    bits = n.bit_length()
    if bits <= 3 * _DIGITS:
        # n < 8^_DIGITS, fewer than _DIGITS digits
        return str(n)
    # 10^k < 2^(bits/2) <= n: both parts are about half of n's digits
    k = bits * 3 // 20
    high, low = divmod(n, 10**k)
    return int_to_text(high) + int_to_text(low).zfill(k)


def text_to_int(text: str) -> int:
    """``int(text)`` for a string of decimal digits of any length."""
    if len(text) <= _DIGITS:
        return int(text)
    k = len(text) // 2
    return text_to_int(text[:-k]) * 10**k + text_to_int(text[-k:])


# ---------------------------------------------------------------------------
# tokens

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*'*)
  | (?P<op>[-+*/^()=;])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind  # 'int' | 'ident' | 'end' | one of -+*/^()=;
        self.text = text
        self.pos = pos


def _tokenize(text: str, offset: int) -> list[_Token]:
    """The tokens of ``text``, at their positions plus ``offset``."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", offset + pos)
        if m.lastgroup != "ws":
            kind = m.lastgroup if m.lastgroup != "op" else m.group()
            tokens.append(_Token(kind, m.group(), offset + pos))
        pos = m.end()
    tokens.append(_Token("end", "", offset + len(text)))
    return tokens


# ---------------------------------------------------------------------------
# the tree
#
# A node is a tuple (kind, position of its first token, ...):
#
#   ("int", pos, n)                  a non-negative integer literal
#   ("name", pos, name)              t, x, y or a jet coordinate
#   ("formal", pos, name, order)     name with ``order`` primes, applied to t
#   ("exp", pos, argument)
#   ("neg", pos, operand)
#   ("^", pos, base, exponent, at)   exponent a Fraction
#   ("sum", pos, first, rest)        rest: ((op, operand, at), ...), op + or -
#   ("product", pos, first, rest)    rest: ((op, operand, at), ...), op * or /
#
# ``at`` is the position of the token after the exponent or operand, where
# a zero base of a negative power or a zero divisor is reported.

Node = tuple

# a constant whose powers are worked out exactly: bigger ones are left to
# the algebra, which decides their zero test anyway
_MAX_FOLDED_EXPONENT = 64


class _Parser:
    """Recursive descent over one text.  Each rule returns (node, value),
    the value a Fraction when the node is a rational constant whose value
    is worked out, else None."""

    def __init__(self, text: str, allow_exp: bool, offset: int = 0):
        self.tokens = _tokenize(text, offset)
        self.i = 0
        self.allow_exp = allow_exp

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

    def end(self) -> None:
        if self.cur.kind != "end":
            raise ParseError(f"trailing input {self.cur.text!r}", self.cur.pos)

    def expr(self):
        pos = self.cur.pos
        node, value = self.term()
        rest = []
        while self.cur.kind in ("+", "-"):
            op = self.advance().kind
            rhs, v = self.term()
            rest.append((op, rhs, self.cur.pos))
            if value is not None and v is not None:
                value = value + v if op == "+" else value - v
            else:
                value = None
        return (("sum", pos, node, tuple(rest)) if rest else node), value

    def term(self):
        pos = self.cur.pos
        node, value = self.factor()
        rest = []
        while self.cur.kind in ("*", "/"):
            op = self.advance().kind
            rhs, v = self.factor()
            if op == "/" and v == 0:
                raise ParseError("division by zero literal", self.cur.pos)
            rest.append((op, rhs, self.cur.pos))
            if value is not None and v is not None:
                value = value * v if op == "*" else value / v
            else:
                value = None
        return (("product", pos, node, tuple(rest)) if rest else node), value

    def factor(self):
        if self.cur.kind == "-":
            pos = self.advance().pos
            node, value = self.factor()
            return ("neg", pos, node), (None if value is None else -value)
        pos = self.cur.pos
        node, value = self.atom()
        if self.cur.kind == "^":
            self.advance()
            expo = self.exponent()
            if value == 0:
                if expo < 0:
                    raise ParseError("negative power of zero", self.cur.pos)
                value = Fraction(1 if expo == 0 else 0)  # 0^0 = 1, as in sympy
            elif value is not None and expo.denominator == 1 and abs(expo) <= _MAX_FOLDED_EXPONENT:
                value = value**expo
            else:
                value = None
            node = ("^", pos, node, expo, self.cur.pos)
        return node, value

    def exponent(self) -> Fraction:
        sign = 1
        if self.cur.kind == "-":
            self.advance()
            sign = -1
        if self.cur.kind == "int":
            return Fraction(sign * text_to_int(self.advance().text))
        if self.cur.kind == "(":
            self.advance()
            if self.cur.kind == "-":
                self.advance()
                sign = -sign
            p = text_to_int(self.expect("int").text)
            q = 1
            if self.cur.kind == "/":
                self.advance()
                q = text_to_int(self.expect("int").text)
                if q == 0:
                    raise ParseError("zero denominator in exponent", self.cur.pos)
            self.expect(")")
            return Fraction(sign * p, q)
        raise ParseError(
            "exponent must be an integer or rational literal", self.cur.pos
        )

    def atom(self):
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            n = text_to_int(tok.text)
            return ("int", tok.pos, n), Fraction(n)
        if tok.kind == "(":
            self.advance()
            got = self.expr()
            self.expect(")")
            return got
        if tok.kind == "ident":
            self.advance()
            return self.ident(tok), None
        raise ParseError(
            f"expected a value, found {tok.text or 'end of input'!r}", tok.pos
        )

    def ident(self, tok: _Token) -> Node:
        name = tok.text
        if name == "exp":
            if not self.allow_exp:
                raise ParseError(
                    "exp(...) is not allowed in this context", tok.pos
                )
            self.expect("(")
            arg, _ = self.expr()
            self.expect(")")
            return ("exp", tok.pos, arg)
        if name in ("t", "x", "y", "u", "v"):
            if self.cur.kind == "(":
                raise ParseError(f"{name} does not take arguments", self.cur.pos)
            return ("name", tok.pos, name)
        if "_" in name:
            # a jet coordinate: u_tx, v_xxy, u_t3x2
            if jet_parts(name) is None:
                raise ParseError(f"unknown identifier {name!r}", tok.pos)
            return ("name", tok.pos, name)
        # a formal function, applied to t: f(t), f''(t)
        base = name.rstrip("'")
        self.expect("(")
        arg = self.expect("ident")
        if arg.text != "t":
            raise ParseError(f"formal function {base!r} must be applied to t", arg.pos)
        self.expect(")")
        try:
            check_formal_name(base)
        except ValueError as exc:
            raise ParseError(str(exc), tok.pos) from None
        return ("formal", tok.pos, base, len(name) - len(base))


def parse_expr(text: str, allow_exp: bool = False) -> Node:
    """The tree of a single expression."""
    parser = _Parser(text, allow_exp)
    node, _ = parser.expr()
    parser.end()
    return node


def parse_solution(text: str, allow_exp: bool = True) -> list[tuple[str, int, Node]]:
    """The bindings of ``u = <expr>; v = <expr>`` (order free, newlines
    allowed) as (u or v, position of the name, tree), in the order given.
    Positions count from the start of ``text``."""
    bindings: list[tuple[str, int, Node]] = []
    for chunk in re.finditer(r"[^;\n]+", text):
        if not chunk.group().strip():
            continue
        parser = _Parser(chunk.group(), allow_exp, offset=chunk.start())
        head = parser.expect("ident")
        if head.text not in DEPENDENTS:
            raise ParseError(
                f"solution bindings must assign u or v, got {head.text!r}", head.pos
            )
        parser.expect("=")
        node, _ = parser.expr()
        parser.end()
        if any(name == head.text for name, _, _ in bindings):
            raise ParseError(f"duplicate binding for {head.text}", head.pos)
        bindings.append((head.text, head.pos, node))
    missing = set(DEPENDENTS) - {name for name, _, _ in bindings}
    if missing:
        raise ParseError(f"missing bindings for {', '.join(sorted(missing))}")
    return bindings
