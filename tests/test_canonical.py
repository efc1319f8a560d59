"""One canonical form: ``normalize`` and ``is_zero`` in the jet ring against
the sympy ``cancel`` canonical form of ``tree_oracle``.

On the corpus (catalog sections with formal and bound parameters, the
generating invariants and structure coefficients, the twelve invariants,
seeded pseudogroup moves of every catalog family, the text inputs of the
CLI) the two forms must agree structurally.  Where radicals of several
primes occur, sympy's ``cancel`` takes 45^(1/3) and 3^(2/3)*5^(1/3) as
different generators and can leave a quotient unreduced; the ring form is
reduced there and must equal the oracle as a value.
"""

import ast
import pathlib
import random

import pytest
import sympy as sp

from jetweyl import checks, dsl, geometry, invariants
from jetweyl.errors import (
    DivisionByZeroExpression,
    ExpAtomError,
    ExponentPolicyError,
    ExprError,
    ParseError,
)
from jetweyl.exprcore import T, X, Y, is_zero, jet, normalize, to_text, validate_kernel
from jetweyl.symmetry import PseudogroupElement
from tree_oracle import tree_moved, tree_normalize, tree_reflected

_BOUND = {
    "dkp-partial": {"h": 0},
    "exp-family": {"f": 1, "h": 1},
    "sl2-family": {"f": 0, "h": 0},
    "sl2-degenerate": {"f": 0, "h": 0},
}


def _primes(e: sp.Expr) -> set:
    """The primes whose radicals occur in e."""
    return {
        p
        for a in e.atoms(sp.Pow)
        if a.base.is_Rational and not a.exp.is_Integer
        for p in sp.factorint(a.base.p * a.base.q)
    }


def _agrees_with_the_oracle(e) -> bool:
    got, want = normalize(e), tree_normalize(e)
    if got == want:
        return True
    # only a quotient with radicals of several primes may differ, and then
    # as a form of the same value
    return len(_primes(sp.sympify(e))) > 1 and is_zero(got - want)


def _sections():
    for cid in geometry.CATALOG_IDS:
        for kwargs in ({}, _BOUND.get(cid, {})):
            yield geometry.catalog(cid, **kwargs)


def test_catalog_sections_agree_with_the_oracle():
    for sol in _sections():
        for e in (sol.u, sol.v):
            assert normalize(e) == tree_normalize(e), (sol.name, e)


def test_invariants_agree_with_the_oracle():
    corpus = [invariants.invariant(i) for i in (1, 2, 3)]
    corpus += [invariants.structure_K(i) for i in (1, 2, 3, 4)]
    corpus += list(invariants.twelve_invariants())
    corpus += [c for i in (1, 2, 3) for c in invariants.derivation(i).coefficients()]
    corpus.append(invariants.poincare_function("weyl"))
    for e in corpus:
        assert normalize(e) == tree_normalize(e), e


@pytest.mark.parametrize("kind", ("cube", "noshift", "free"))
def test_moved_sections_agree_with_the_oracle(kind):
    rng = random.Random(4100 + ("cube", "noshift", "free").index(kind))
    elements = checks._random_elements(rng, kind, count=4)
    compared = 0
    for sol in _sections():
        for el in elements:
            for e in tree_moved(el, sol.u, sol.v):
                try:
                    validate_kernel(e, allow_exp=True)
                except ExprError:
                    continue  # the move leaves the term language
                assert normalize(e) == tree_normalize(e), (sol.name, el)
                compared += 1
        for which in ("txy", "yu"):
            for e in tree_reflected(which, sol.u, sol.v):
                try:
                    validate_kernel(e, allow_exp=True)
                except ExprError:
                    continue
                assert normalize(e) == tree_normalize(e), (sol.name, which)
                compared += 1
    assert compared > 50


def test_radicals_of_several_primes_are_reduced():
    # the oracle keeps both forms of one number side by side; the ring
    # form writes it once
    sol = geometry.catalog("sl2-family")
    el = PseudogroupElement.make(d=3 * T + 1, ee=5, c=T)
    for e in tree_moved(el, sol.u, sol.v):
        assert _agrees_with_the_oracle(e)
    _, v = (normalize(e) for e in tree_moved(el, sol.u, sol.v))
    assert sol.transform(el).v == v
    assert "3^(2/3)*5^(1/3)" not in to_text(v) and "45^(1/3)" in to_text(v)


def test_the_45_quotient_is_one():
    c = sp.Integer(45) ** sp.Rational(1, 3)
    d = sp.Integer(3) ** sp.Rational(2, 3) * sp.Integer(5) ** sp.Rational(1, 3)
    e = (c * Y + 1) / (d * Y + 1)
    assert normalize(e) == 1 and is_zero(e - 1)
    assert tree_normalize(e) != 1  # the oracle does not reduce it
    assert normalize(sp.sqrt(6) * X - sp.sqrt(2) * sp.sqrt(3) * X) == 0


# the DSL inputs of the CLI tests and README examples, and the texts the
# golden transform commands print
_CLI_TEXTS = [
    "u_tx",
    "(u_xy + v_xx)/u_x^2",
    "u_ttx*y^(1/3) + v_tx*y^(1/2)",
    "(u_tx + u_x)/(u_xx)",
    "t^2+1",
    "4*t",
    "u = 3*x^2 ; v = 0",
    "u = x*y ; v = 0",
    "u = y^(1/2) ; v = x",
    "u = (-20*x + 3*2^(1/3)*y^(5/3))/(6*y); "
    "v = (-700*x^2 + 63*2^(2/3)*y^(10/3) + 60*2^(1/3)*x*y^(5/3))/(300*y^2)",
    "u = 1/4*x + exp(1/4*y); v = (1 + exp(1/4*y))/exp(1/4*y)",
    "u = 0; v = 1/12*y^4 - x*y",
    "u = exp(1)*x + exp(y + 1); v = x/exp(1)",
]


def _raw_parts(text: str) -> list:
    """The parse trees of a text, before any canonical form."""
    chunks = [c.split("=", 1)[1] for c in text.split(";")] if "=" in text else [text]
    out = []
    for chunk in chunks:
        parser = dsl._Parser(chunk, allow_exp=True)
        out.append(parser.parse_expr())
    return out


@pytest.mark.parametrize("text", _CLI_TEXTS)
def test_cli_inputs_agree_with_the_oracle(text):
    for e in _raw_parts(text):
        assert normalize(e) == tree_normalize(e), text


def test_normalize_is_idempotent_on_the_corpus():
    for sol in _sections():
        for e in (sol.u, sol.v):
            assert normalize(normalize(e)) == normalize(e)


# ---------------------------------------------------------------------------
# the DSL validates before it canonicalizes


@pytest.mark.parametrize(
    "text, err",
    [
        ("(x + 1)^(1/2)", ExponentPolicyError),
        ("exp(x*y)", ExpAtomError),
        ("exp(y/(t^2 + 1))", ExpAtomError),
        ("1/((x + 1)^2 - x^2 - 2*x - 1)", DivisionByZeroExpression),
    ],
)
def test_the_dsl_refuses_with_the_documented_error(text, err):
    with pytest.raises(err):
        dsl.parse_expr(text, allow_exp=True)
    with pytest.raises(err):
        dsl.parse_solution(f"u = {text}; v = 0")


def test_the_dsl_refuses_exp_where_it_is_not_admitted():
    with pytest.raises(ParseError):
        dsl.parse_expr("exp(y)")


def test_floats_print_bare():
    # the sampled values of a non-solution are floats
    assert to_text(sp.Float(1.5)) == "1.50000000000000"
    assert normalize(sp.Float(-0.25)) == sp.Float(-0.25)


def test_symbols_outside_the_jet_space_are_generators():
    z = sp.Symbol("z")
    assert normalize((z**2 - 1) / (z - 1)) == z + 1
    assert is_zero(jet("u", "x") * z - z * jet("u", "x"))


# ---------------------------------------------------------------------------
# no second canonicalizer in the package


def _sympy_calls(source: str) -> list:
    """(function, enclosing def) for every call of sympy's cancel, solve,
    simplify or nsimplify in a module's source, by attribute
    (``sp.cancel``) or by name."""
    tree = ast.parse(source)
    imported = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "sympy"
        for a in node.names
    }
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Call):
                f = child.func
                name = None
                if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                    if f.value.id in ("sp", "sympy"):
                        name = f.attr
                elif isinstance(f, ast.Name) and f.id in imported:
                    name = f.id
                if name in ("cancel", "solve", "simplify", "nsimplify"):
                    found.append((name, inner))
            visit(child, inner)

    visit(tree, None)
    return found


def test_no_second_canonicalizer_in_the_package():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetweyl"
    offending = []
    for path in sorted(src.glob("*.py")):
        for name, where in _sympy_calls(path.read_text()):
            offending.append(f"{path.name}: sympy.{name} in {where}")
    assert offending == []


def test_the_canonicalizer_guard_sees_calls():
    found = _sympy_calls(
        "import sympy as sp\nfrom sympy import solve\n"
        "def f(e):\n    return sp.cancel(e) + solve(e)\n"
        "def canonical_frame(e):\n    return sp.simplify(e)\n"
        "def g(e):\n    return sympy.nsimplify(e)\n"
    )
    assert found == [
        ("cancel", "f"),
        ("solve", "f"),
        ("simplify", "canonical_frame"),
        ("nsimplify", "g"),
    ]
