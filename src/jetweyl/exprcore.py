"""Exact symbolic kernel.

The whole verification stack works in one term language: rational functions,
with exact rational coefficients, in

* the base variables ``t, x, y`` (``y > 0`` so that the fractional powers
  appearing in the power-law solution family have a single real branch),
* jet coordinates ``u, v, u_t, u_tx, v_xxy, ...`` of the two dependent
  variables, and
* opaque formal functions of ``t`` alone (``a``, ``a'``, ``a''``, ...),
  closed under d/dt but otherwise uninterpreted.

Two measured extensions of the rational language are admitted:

* rational exponents on base variables and positive rational constants
  only (``y^(2/3)``, ``2^(1/3)`` and friends), and
* exponential atoms ``exp(q*t + r*y + s*x)`` with rational coefficients,
  which enter solely through the explicit-solution catalog and are disabled
  by default.

Everything else (arbitrary radicals, algebraic extensions, transcendental
simplification) is deliberately out of scope.

Canonical forms are produced by :func:`normalize`: fractional powers,
exponential atoms and the non-rational constants are rescaled to integer
powers of auxiliary generators (:func:`_rescaled`), the result becomes an
element of the sparse rational-function field of ``jets.py`` (read from
the tree by ``trees.py``), prime radicals are reduced by R^M = p, and the
generators are substituted back into numerator over denominator.  The
zero test is exact, but where a prime radical divides a denominator equal
expressions can print apart.  :func:`to_text` prints a canonical form in
jet coordinates, base variables and formal functions alone with the jet
field's printer (``jets.text``), and every other from the sympy tree.

This module pins down the term language, the rescaling and the canonical
text form.  It takes no derivatives: the formal chain rule
``d/dt a^(k) = a^(k+1)`` is the image of a^(k) under the total derivative
D_t of the jet ring (``jets._JetRing``), on which the section field
(``sections.SectionField``) is built.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Union

import sympy as sp

from .errors import (
    DivisionByZeroExpression,
    ExpAtomError,
    ExponentPolicyError,
    ExprError,
    UnknownSymbolError,
)
from .jets import _key_text
from .sections import _joint_constants, _prime_radicals
from .syntax import (
    _FORMAL_NAME_RE,
    _RESERVED_FORMAL,
    DEPENDENTS,
    MAX_JET_ORDER,
    MultiIndex,
    capped,
    check_formal_name,
    jet_parts,
)

__all__ = [
    "T",
    "X",
    "Y",
    "BASE_SYMBOLS",
    "MAX_JET_ORDER",
    "MultiIndex",
    "jet",
    "jet_info",
    "is_jet_symbol",
    "formal",
    "formal_info",
    "is_formal_symbol",
    "formal_shift",
    "resolve_symbol",
    "validate_kernel",
    "normalize",
    "is_zero",
    "equal",
    "to_text",
]

# Base variables.  y carries the positivity assumption so that sympy merges
# rational powers of y automatically; t and x stay merely real.
T = sp.Symbol("t", real=True)
X = sp.Symbol("x", real=True)
Y = sp.Symbol("y", positive=True)
BASE_SYMBOLS = (T, X, Y)

#: sympy Symbol -> ("u"|"v", MultiIndex)
_JET_REGISTRY: dict[sp.Symbol, tuple[str, MultiIndex]] = {}
#: sympy Symbol -> (name, derivative order)
_FORMAL_REGISTRY: dict[sp.Symbol, tuple[str, int]] = {}


IndexLike = Union[MultiIndex, str, tuple]


def _as_index(index: IndexLike) -> MultiIndex:
    if isinstance(index, MultiIndex):
        return index
    if isinstance(index, str):
        return MultiIndex.from_word(index)
    return MultiIndex(*index)


def jet(dependent: str, index: IndexLike = MultiIndex()) -> sp.Symbol:
    """The jet coordinate symbol u_sigma / v_sigma.

    ``jet('u')`` is the dependent variable itself; ``jet('u', 'tx')`` and
    ``jet('u', (1, 1, 0))`` name the same symbol ``u_tx``.
    """
    if dependent not in DEPENDENTS:
        raise ValueError(f"dependent must be one of {DEPENDENTS}, got {dependent!r}")
    idx = capped(_as_index(index))
    name = dependent if idx.order == 0 else f"{dependent}_{idx.word()}"
    sym = sp.Symbol(name, real=True)
    _JET_REGISTRY.setdefault(sym, (dependent, idx))
    return sym


def jet_info(symbol: sp.Symbol) -> tuple[str, MultiIndex]:
    """(dependent, MultiIndex) of a jet symbol; KeyError if not a jet symbol."""
    return _JET_REGISTRY[symbol]


def is_jet_symbol(symbol) -> bool:
    return symbol in _JET_REGISTRY


def jet_order(e) -> int:
    """Highest jet order among the jet symbols of e (0 if none)."""
    e = sp.sympify(e)
    orders = [0]
    for s in e.free_symbols:
        info = _JET_REGISTRY.get(s)
        if info is not None:
            orders.append(info[1].order)
    return max(orders)


def formal(name: str, order: int = 0) -> sp.Symbol:
    """Opaque formal function of t: ``formal('a', 2)`` is a''(t).

    The symbol depends on t only through the chain rule of the jet ring,
    whose D_t sends a^(k) to a^(k+1); sympy itself sees an independent real
    symbol.
    """
    check_formal_name(name)
    if order < 0:
        raise ValueError("derivative order must be non-negative")
    sym = sp.Symbol(name + "'" * order, real=True)
    _FORMAL_REGISTRY.setdefault(sym, (name, order))
    return sym


def formal_info(symbol: sp.Symbol) -> tuple[str, int]:
    return _FORMAL_REGISTRY[symbol]


def is_formal_symbol(symbol) -> bool:
    return symbol in _FORMAL_REGISTRY


def formal_shift(symbol: sp.Symbol) -> sp.Symbol:
    """The formal symbol with derivative order raised by one."""
    name, order = formal_info(symbol)
    return formal(name, order + 1)


def resolve_symbol(name) -> sp.Symbol:
    """Map a name to a registered symbol, creating jet/formal symbols on
    demand.  Accepts 't', 'u_tx', 'u_t2x', \"f''\" and existing symbols."""
    if isinstance(name, sp.Symbol):
        if (
            name in BASE_SYMBOLS
            or name in _JET_REGISTRY
            or name in _FORMAL_REGISTRY
        ):
            return name
        name = name.name
    if not isinstance(name, str):
        raise UnknownSymbolError(f"cannot resolve {name!r} as a symbol")
    if name == "t":
        return T
    if name == "x":
        return X
    if name == "y":
        return Y
    parts = jet_parts(name)
    if parts is not None:
        return jet(*parts)
    base = name.rstrip("'")
    if _FORMAL_NAME_RE.match(base) and base not in _RESERVED_FORMAL:
        return formal(base, len(name) - len(base))
    raise UnknownSymbolError(f"unknown symbol {name!r}")


# ---------------------------------------------------------------------------
# term-language validation


def _check_exp_argument(arg: sp.Expr) -> None:
    """exp arguments must be rational-linear forms in base variables."""
    try:
        poly = sp.Poly(arg, *BASE_SYMBOLS) if arg.free_symbols <= set(BASE_SYMBOLS) else None
    except sp.PolynomialError:
        poly = None  # a quotient such as y/(t^2 + 1)
    if poly is None or poly.total_degree() > 1:
        raise ExpAtomError(f"exp argument {arg} is not linear in t,x,y")
    for coeff in poly.coeffs():
        if not coeff.is_Rational:
            raise ExpAtomError(f"exp argument {arg} has a non-rational coefficient")


def validate_kernel(e, allow_exp: bool = False) -> sp.Expr:
    """Check that a sympy expression stays inside the term language.

    Returns the expression unchanged; raises an :class:`ExprError` subclass
    otherwise.  ``allow_exp=True`` admits exponential atoms (the explicit
    solution catalog needs them); the kernel default rejects them.
    """
    e = sp.sympify(e)
    if e.has(sp.zoo, sp.nan) or e.has(sp.oo, -sp.oo):
        raise DivisionByZeroExpression(f"expression contains an undefined value: {e}")
    for node in sp.preorder_traversal(e):
        if isinstance(node, sp.Symbol):
            if (
                node not in BASE_SYMBOLS
                and node not in _JET_REGISTRY
                and node not in _FORMAL_REGISTRY
                and not isinstance(node, sp.Dummy)
            ):
                raise UnknownSymbolError(f"unregistered symbol {node}")
        elif isinstance(node, sp.exp):
            if not allow_exp:
                raise ExpAtomError(
                    "exponential atoms are only admitted on the solution-catalog path"
                )
            _check_exp_argument(node.args[0])
        elif isinstance(node, sp.Pow):
            base, expo = node.args
            if isinstance(base, sp.exp):
                continue  # handled when the exp node itself is visited
            if not expo.is_Rational:
                raise ExponentPolicyError(f"non-rational exponent in {node}")
            if not expo.is_Integer:
                ok_base = base in BASE_SYMBOLS or (
                    base.is_Rational and base.is_positive
                )
                if not ok_base:
                    raise ExponentPolicyError(
                        f"fractional exponent on non-base expression in {node}"
                    )
        elif node.is_Atom:
            if node.is_Number and not node.is_Rational:
                raise ExprError(f"non-rational number {node}")
        elif not isinstance(node, (sp.Add, sp.Mul)):
            raise ExprError(f"disallowed operation {type(node).__name__} in {node}")
    return e


# ---------------------------------------------------------------------------
# canonicalization


#: auxiliary key -> its generator, a positive ``Dummy`` with the name
#: ``jets._key_text`` prints the key with; fixed, so that the jet rings
#: holding them can be reused
_AUX_SYMBOLS: dict[tuple, sp.Dummy] = {}
#: the inverse of ``_AUX_SYMBOLS``: generator -> key
_AUX_KEYS: dict[sp.Dummy, tuple] = {}
#: the values of the constant generators: (p, M) -> p^(1/M) for a prime p
#: or exp(1/M) for p = 0
_CONSTANTS: dict[tuple[int, int], sp.Expr] = {}


def _aux_symbol(key: tuple) -> sp.Dummy:
    """The generator of an auxiliary key: ("root", b) for b^(1/m),
    ("exp", b) for exp(s*b) and ("radical", p, M) for p^(1/M), or exp(1/M)
    for p = 0."""
    gen = _AUX_SYMBOLS.get(key)
    if gen is None:
        gen = _AUX_SYMBOLS[key] = sp.Dummy(_key_text(key)[1:], positive=True)
        _AUX_KEYS[gen] = key
    return gen


def _constant(p: int, M: int) -> tuple[sp.Dummy, sp.Expr]:
    """(generator, value) of the constant p^(1/M), or exp(1/M) for p = 0."""
    value = _CONSTANTS.get((p, M))
    if value is None:
        value = sp.Integer(p) ** sp.Rational(1, M) if p else sp.exp(sp.Rational(1, M))
        _CONSTANTS[(p, M)] = value
    return _aux_symbol(("radical", p, M)), value


def _rescaled(e: sp.Expr) -> tuple[sp.Expr, dict]:
    """Replace fractional powers of base variables, exponential atoms and
    the constants that are not rational by integer powers of auxiliary
    positive generators, which turns an expression of the term language
    into a rational function over QQ.

    A base variable b with fractional powers becomes B^m, and the atoms
    exp(c*b) become powers of one generator E_b = exp(s*b).  A constant
    q^(k/m) (q a positive rational) becomes a rational times powers of
    prime radicals p^(1/M) (:func:`_prime_radicals`), and exp(c) (c
    rational) a power of exp(1/M).  Returns
    the new expression and {generator: value}; the value of a prime radical
    is the power p^(1/M) of an integer.

    ``e`` may be a ``sp.Tuple``: its entries are rescaled jointly, with the
    same generators and exponents for all of them."""
    back: dict[sp.Symbol, sp.Expr] = {}
    if e.has(sp.exp):
        # exp(a + b) -> exp(a)*exp(b), so that each atom has one base
        # variable or a constant argument
        e = e.xreplace({a: sp.expand_power_exp(a) for a in e.atoms(sp.exp) if a.args[0].is_Add})
        for base in BASE_SYMBOLS:
            coeffs = {}
            for atom in e.atoms(sp.exp):
                c = atom.args[0].as_coefficient(base)
                if c is not None and c.is_Rational and c != 0:
                    coeffs[atom] = c
            if not coeffs:
                continue
            scale = sp.Rational(1, functools.reduce(sp.ilcm, [c.q for c in coeffs.values()], 1))
            gen = _aux_symbol(("exp", base.name))
            e = e.xreplace({atom: gen ** int(c / scale) for atom, c in coeffs.items()})
            back[gen] = sp.exp(scale * base)
    for base in BASE_SYMBOLS:
        dens = [
            p.exp.q
            for p in e.atoms(sp.Pow)
            if p.base == base and p.exp.is_Rational and not p.exp.is_Integer
        ]
        if not dens:
            continue
        m = functools.reduce(sp.ilcm, dens, 1)
        gen = _aux_symbol(("root", base.name))
        e = e.xreplace({base: gen**m})
        back[gen] = base ** sp.Rational(1, m)
    return _constant_generators(e, back)


def _constant_generators(e: sp.Expr, back: dict) -> tuple[sp.Expr, dict]:
    """The constants step of :func:`_rescaled`: {atom: (c, [(p, r)])} with
    the atom equal to c times the product of p^r over the list (p = 0
    stands for e; a power of a rational is split by :func:`_prime_radicals`),
    then the generators of :func:`_joint_constants`."""
    parts = {}
    for a in e.atoms(sp.Pow):
        if a.base.is_Rational and a.base > 0 and not a.exp.is_Integer:
            base, exp = (Fraction(int(r.p), int(r.q)) for r in a.args)
            c, radicals = _prime_radicals(base, exp)
            parts[a] = sp.Rational(c.numerator, c.denominator), list(radicals.items())
    one = sp.Integer(1)
    for a in e.atoms(sp.exp):
        if a.args[0].is_Rational:
            parts[a] = one, [(0, Fraction(int(a.args[0].p), int(a.args[0].q)))]
    if e.has(sp.E):
        parts[sp.E] = one, [(0, Fraction(1))]
    if not parts:
        return e, back
    joint = {p: (M, *_constant(p, M)) for p, (_, M) in _joint_constants(parts.values()).items()}
    back.update((gen, value) for _, gen, value in joint.values())
    rep = {
        a: c * sp.Mul(*(joint[p][1] ** int(r * joint[p][0]) for p, r in terms))
        for a, (c, terms) in parts.items()
    }
    return e.xreplace(rep), back


def normalize(e) -> sp.Expr:
    """Canonical form of an expression of the term language: numerator over
    denominator, expanded and without common factor, computed in the jet
    ring (``trees._canonical``), with the generators of :func:`_rescaled`
    substituted back.  A number is its own canonical form.

    Idempotent, but not unique where a prime radical divides a denominator:
    1/(sqrt(2)*t + sqrt(2)) and sqrt(2)/(2*t + 2) are equal (:func:`equal`).
    """
    e = sp.sympify(e)
    if e.is_Rational or e.is_Float:
        return e
    # trees builds on this module; named in full, as jets explains
    from jetweyl.trees import _canonical

    scaled, f = _canonical(e)
    return scaled.expr(f)


def is_zero(e) -> bool:
    """Exact zero test: the numerator of the canonical form vanishes."""
    e = sp.sympify(e)
    if e.is_Rational or e.is_Float:
        return e == 0
    from jetweyl.trees import _canonical

    scaled, f = _canonical(e)
    return scaled.vanishes(f)


def equal(a, b) -> bool:
    """Exact equality of rational functions."""
    return is_zero(sp.sympify(a) - sp.sympify(b))


# ---------------------------------------------------------------------------
# canonical text form


def _print_rational(q: sp.Rational) -> str:
    return str(q) if q >= 0 else f"({q})"


def _print_pow(base: sp.Expr, expo: sp.Rational) -> str:
    b = _print_term(base, wrap_mul=True)
    if expo.is_Integer and expo > 0:
        return f"{b}^{expo}"
    return f"{b}^({expo})"


def _print_term(e: sp.Expr, wrap_mul: bool = False) -> str:
    """Print one multiplicative factor or atom."""
    if e.is_Rational:
        return _print_rational(e)
    if isinstance(e, sp.Symbol):
        if e in _FORMAL_REGISTRY:
            return f"{e.name}(t)"
        return e.name
    if isinstance(e, sp.exp):
        return f"exp({_print_expr(e.args[0])})"
    if e is sp.E:
        # sympy's exp(1)
        return "exp(1)"
    if isinstance(e, sp.Pow):
        base, expo = e.args
        if isinstance(base, sp.exp) and expo.is_Rational:
            return f"exp({_print_expr(sp.expand(base.args[0] * expo))})"
        return _print_pow(base, expo)
    if isinstance(e, (sp.Add, sp.Mul)):
        inner = _print_expr(e)
        return f"({inner})" if (wrap_mul or isinstance(e, sp.Add)) else inner
    raise ExprError(f"cannot serialize node {e!r}")


def _print_product(e: sp.Expr) -> str:
    """Print a Mul with the sign pulled out; callers handle the sign."""
    coeff, rest = e.as_coeff_Mul()
    factors = [f for f in sp.Mul.make_args(rest) if f != 1]
    parts = []
    if coeff != 1 or not factors:
        parts.append(_print_rational(coeff))
    for f in sorted(factors, key=sp.default_sort_key):
        if isinstance(f, sp.Add):
            parts.append(f"({_print_expr(f)})")
        else:
            parts.append(_print_term(f, wrap_mul=True))
    return "*".join(parts)


def _print_sum(e: sp.Expr) -> str:
    terms = sorted(sp.Add.make_args(e), key=sp.default_sort_key)
    chunks = []
    for term in terms:
        coeff, _ = term.as_coeff_Mul()
        sign = "-" if coeff < 0 else "+"
        body = _print_product(-term if coeff < 0 else term)
        chunks.append((sign, body))
    first_sign, first_body = chunks[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


def _print_expr(e: sp.Expr) -> str:
    if isinstance(e, sp.Add):
        return _print_sum(e)
    coeff, rest = e.as_coeff_Mul()
    if coeff < 0:
        return "-" + _print_product(-e)
    return _print_product(e)


def to_text(e) -> str:
    """Deterministic canonical text form, parsable by the DSL.

    A canonical form in named generators only (jet coordinates, t, x, y
    and formal functions) is printed by the jet field's printer
    (``jets.text``); the sympy tree is printed where a fractional power,
    an exponential atom or a non-rational constant remains."""
    e = sp.sympify(e)
    if e.is_Rational or e.is_Float:
        return str(e) if e.is_Rational else _print_expr(e)
    from jetweyl.jets import text
    from jetweyl.trees import _canonical

    scaled, f = _canonical(e)
    if scaled.named(f):
        return text(scaled.ring, f)
    canon = scaled.expr(f)
    num, den = sp.fraction(canon)
    if den == 1:
        return _print_expr(num)
    num_s = _print_expr(num)
    if isinstance(num, sp.Add) or num.as_coeff_Mul()[0] < 0:
        num_s = f"({num_s})"
    den_s = _print_term(den, wrap_mul=True)
    return f"{num_s}/{den_s}"
