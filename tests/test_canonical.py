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

from jetweyl import checks, dsl, geometry, invariants, syntax
from jetweyl.errors import (
    DivisionByZeroExpression,
    ExpAtomError,
    ExponentPolicyError,
    ExprError,
    ParseError,
)
from jetweyl.exprcore import T, X, Y, is_zero, jet, normalize, to_text, validate_kernel
from jetweyl.symmetry import PseudogroupElement
from tree_oracle import (
    poincare_function,
    tree_moved,
    tree_normalize,
    tree_reflected,
    written_derivation,
)

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
    table = invariants._order3()
    corpus += [table.ring.to_expr(f) for f in table.twelve]
    corpus += [c for i in (1, 2, 3) for c in written_derivation(i)]
    corpus.append(poincare_function("weyl"))
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
    """The sympy trees of a text, before any canonical form."""
    if "=" in text:
        trees = [tree for _, _, tree in syntax.parse_solution(text)]
    else:
        trees = [syntax.parse_expr(text, allow_exp=True)]
    return [dsl._build(tree) for tree in trees]


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


_CANONICALIZERS = ("cancel", "solve", "simplify", "nsimplify")


def _calls(tree, flagged, kinds=ast.Call) -> list:
    """(what, enclosing def) for every ``what`` in ``flagged(node)`` over
    the calls of a parsed module, or over its nodes of ``kinds``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, kinds):
                found.extend((what, inner) for what in flagged(child))
            visit(child, inner)

    visit(tree, None)
    return found


def _sympy_calls(source: str, names=_CANONICALIZERS) -> list:
    """(function, enclosing def) for every call of one of the sympy
    functions ``names`` (by default cancel, solve, simplify and nsimplify)
    in a module's source, by attribute (``sp.cancel``) or by name."""
    tree = ast.parse(source)
    imported = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "sympy"
        for a in node.names
    }

    def flagged(call):
        f = call.func
        name = None
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            if f.value.id in ("sp", "sympy"):
                name = f.attr
        elif isinstance(f, ast.Name) and f.id in imported:
            name = f.id
        return [name] if name in names else []

    return _calls(tree, flagged)


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


# ---------------------------------------------------------------------------
# one derivation machinery: no tree derivative in the package


def test_no_tree_derivative_in_the_package():
    # the jet ring and the section field take every derivative; the tree
    # derivative lives on as the oracle of the tests
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetweyl"
    offending = []
    for path in sorted(src.glob("*.py")):
        for name, where in _sympy_calls(path.read_text(), ("diff",)):
            offending.append(f"{path.name}: sympy.{name} in {where}")
    assert offending == []
    with pytest.raises(ImportError):
        from jetweyl.exprcore import partial  # noqa: F401


def test_the_tree_derivative_guard_sees_calls():
    found = _sympy_calls(
        "import sympy as sp\nfrom sympy import diff\n"
        "def principal_solve(F, s):\n    return sp.diff(F, s)\n"
        "def f(e):\n    return diff(e) + sympy.diff(e)\n"
        "def g(p, q):\n    return p.diff(q)\n",
        ("diff",),
    )
    assert found == [("diff", "principal_solve"), ("diff", "f"), ("diff", "f")]


# ---------------------------------------------------------------------------
# the jet ring reads trees and differentiates by index itself


_REPLACED_METHODS = ("diff", "from_expr", "as_numer_denom", "degrees")


def _method_calls(source: str) -> list:
    """(method, enclosing def) for every call ``obj.diff(...)``,
    ``obj.from_expr(...)``, ``obj.as_numer_denom(...)`` or
    ``obj.degrees(...)`` in a module's source, on any object."""

    def flagged(call):
        f = call.func
        return [f.attr] if isinstance(f, ast.Attribute) and f.attr in _REPLACED_METHODS else []

    return _calls(ast.parse(source), flagged)


def test_no_polynomial_diff_or_tree_rebuild_in_the_package():
    # _JetRing.apply differentiates by generator index and
    # _JetRing.convert reads trees; the paths they replaced live on as
    # tree_oracle.diff_derivation and tree_oracle.tree_convert.  The
    # generators in use are read off monomial supports (jets._support), not
    # off PolyElement.degrees
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetweyl"
    offending = []
    for path in sorted(src.glob("*.py")):
        for what, where in _method_calls(path.read_text()):
            offending.append(f"{path.name}: .{what}( in {where}")
    assert offending == []


def test_the_kernel_call_guard_sees_calls():
    found = _method_calls(
        "def convert(self, e):\n    num, den = e.as_numer_denom()\n"
        "    return self.ring.from_expr(num)\n"
        "def derivation(p, g):\n    return p.diff(g) + sp.diff(p, g)\n"
        "def f(p):\n    return diff(p) + p.differentiate(g)\n"
        "def present(f):\n    return f.numer.degrees(), degrees(f)\n"
    )
    assert found == [
        ("as_numer_denom", "convert"),
        ("from_expr", "convert"),
        ("diff", "derivation"),
        ("diff", "derivation"),
        ("degrees", "present"),
    ]


# ---------------------------------------------------------------------------
# one ring form of the ansatz


_ANSATZ = ("_METRIC", "_COVECTOR")


def _ansatz_reads(source: str) -> list:
    """(row table, enclosing def) for every read of ``_METRIC`` or
    ``_COVECTOR`` in a module's source, by name or by attribute."""

    def flagged(node):
        name = node.attr if isinstance(node, ast.Attribute) else node.id
        return [name] if name in _ANSATZ and isinstance(node.ctx, ast.Load) else []

    return _calls(ast.parse(source), flagged, (ast.Name, ast.Attribute))


def test_only_the_ring_form_builds_the_ansatz():
    # the ansatz is DSL text in jets, read by jets._ansatz alone; every
    # other user embeds its entries
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetweyl"
    found = [
        (path.name, name, where)
        for path in sorted(src.glob("*.py"))
        for name, where in _ansatz_reads(path.read_text())
    ]
    assert found == [
        ("jets.py", "_METRIC", "_ansatz"),
        ("jets.py", "_COVECTOR", "_ansatz"),
    ]


def test_the_ansatz_guard_sees_reads():
    found = _ansatz_reads(
        "from .symmetry import _METRIC\nfrom . import symmetry as _symmetry\n"
        "def coframe_rewrite(u, v):\n    return _METRIC[0]\n"
        "def build_pair(sol):\n    return [*_symmetry._COVECTOR]\n"
        "def f(g):\n    _METRIC = g\n    return '_COVECTOR'\n"
        "g = len(_COVECTOR)\n"
    )
    assert found == [
        ("_METRIC", "coframe_rewrite"),
        ("_COVECTOR", "build_pair"),
        ("_COVECTOR", None),
    ]


# ---------------------------------------------------------------------------
# no sympy matrix algebra in the package


_MATRIX_METHODS = ("nullspace", "inv", "rank", "hstack")


def _matrix_algebra(source: str) -> list:
    """(what, enclosing def) for every call of a sympy matrix method
    (``m.nullspace()``, ``m.inv()``, ``m.rank()``, ``Matrix.hstack``) and
    every call that passes ``iszerofunc``, in a module's source.  Calls by
    plain name, such as ``linalg.rank`` imported as ``rank``, are not
    methods."""

    def flagged(call):
        f = call.func
        method = [f.attr] if isinstance(f, ast.Attribute) and f.attr in _MATRIX_METHODS else []
        return method + ["iszerofunc" for k in call.keywords if k.arg == "iszerofunc"]

    return _calls(ast.parse(source), flagged)


def test_no_matrix_algebra_in_the_package():
    # the canonical frame is built in closed form; the matrix path lives on
    # as tree_oracle.tree_canonical_frame
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetweyl"
    offending = []
    for path in sorted(src.glob("*.py")):
        for what, where in _matrix_algebra(path.read_text()):
            offending.append(f"{path.name}: {what} in {where}")
    assert offending == []


def test_the_matrix_algebra_guard_sees_calls():
    found = _matrix_algebra(
        "import sympy as sp\nfrom .linalg import rank\n"
        "def canonical_frame(A, g):\n    return A.nullspace(iszerofunc=is_zero), g.inv(method='ADJ')\n"
        "def f(a, b):\n    return sp.Matrix.hstack(a, b).rank() + rank(a)\n"
    )
    assert found == [
        ("nullspace", "canonical_frame"),
        ("iszerofunc", "canonical_frame"),
        ("inv", "canonical_frame"),
        ("rank", "f"),
        ("hstack", "f"),
    ]


# ---------------------------------------------------------------------------
# a jet point's integer pairs stay behind JetPoint


_POINT_INTERNALS = ("_L", "_values", "_coord")


def _point_internal_reads(source: str) -> list:
    """(attribute, enclosing def) for every access of ``_L``, ``_values``
    or ``_coord`` on any object in a module's source."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Attribute) and child.attr in _POINT_INTERNALS:
                found.append((child.attr, inner))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_only_jets_reads_a_points_pairs():
    # the rest of the package reads a point through JetPoint.integers and
    # JetPoint.value
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetweyl"
    offending = [
        f"{path.name}: {attr} in {where}"
        for path in sorted(src.glob("*.py"))
        if path.name != "jets.py"
        for attr, where in _point_internal_reads(path.read_text())
    ]
    assert offending == []
    assert {attr for attr, _ in _point_internal_reads((src / "jets.py").read_text())} == set(
        _POINT_INTERNALS
    )


def test_the_point_internals_guard_sees_reads():
    found = _point_internal_reads(
        "def taylor(theta, k):\n    return theta._values, theta._L ** k\n"
        "def f(theta):\n    n, e = theta._coord('u', (0, 1, 0))\n"
        "def g(theta):\n    return theta.integers(('t',)), theta.L, theta._solved\n"
    )
    assert found == [("_values", "taylor"), ("_L", "taylor"), ("_coord", "f")]


# ---------------------------------------------------------------------------
# jetweyl leaves sympy's classes alone


def _sympy_attribute_writes(source: str) -> list:
    """(target, enclosing def) for every assignment, augmented assignment
    or deletion of an attribute of a sympy module or of a name imported
    from sympy, and every ``setattr``/``delattr`` on one, in a module's
    source."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {
                a.asname or a.name.split(".")[0]
                for a in node.names
                if a.name.split(".")[0] == "sympy"
            }
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy":
            bound |= {a.asname or a.name for a in node.names}

    def rooted(node) -> bool:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return isinstance(node, ast.Name) and node.id in bound

    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            targets = []
            if isinstance(child, (ast.Assign, ast.Delete)):
                targets = [t for t in child.targets if not isinstance(t, ast.Name)]
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target] if not isinstance(child.target, ast.Name) else []
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id in ("setattr", "delattr")
                and child.args
            ):
                targets = [child.args[0]]
            found.extend((ast.unparse(t), inner) for t in targets if rooted(t))
            visit(child, inner)

    visit(tree, None)
    return found


def test_jetweyl_leaves_sympys_classes_alone():
    from sympy.polys.fields import FracElement, FracField
    from sympy.polys.rings import PolyElement

    from jetweyl.symmetry import grading_check

    assert grading_check()
    assert invariants.verify_invariance(invariants.invariant(1)) is True
    assert geometry.check_EW(geometry.catalog("sl2-family", f=0, h=0)).ok
    for cls, name, module in (
        (PolyElement, "cancel", "sympy.polys.rings"),
        (FracElement, "new", "sympy.polys.fields"),
        (FracField, "new", "sympy.polys.fields"),
    ):
        method = cls.__dict__[name]
        assert (method.__module__, method.__qualname__) == (module, f"{cls.__name__}.{name}")
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetweyl"
    offending = []
    for path in sorted(src.glob("*.py")):
        for target, where in _sympy_attribute_writes(path.read_text()):
            offending.append(f"{path.name}: {target} in {where}")
    assert offending == []


def test_the_sympy_attribute_guard_sees_writes():
    found = _sympy_attribute_writes(
        "import sympy as sp\nimport sympy.polys.rings\n"
        "from sympy.polys.rings import PolyElement\n"
        "from sympy.polys.fields import FracField as F\n"
        "def _cancel(p, q):\n    return p, q\n"
        "PolyElement.cancel = _cancel\n"
        "def hook():\n    F.new = lambda self, n, d=None: n\n"
        "    sp.Basic.__eq__ += 1\n    setattr(sympy.polys.rings.PolyElement, 'gcd', None)\n"
        "def fine(ring):\n    ring.field = F\n    PolyElement.cancel(ring, ring)\n"
    )
    assert found == [
        ("PolyElement.cancel", None),
        ("F.new", "hook"),
        ("sp.Basic.__eq__", "hook"),
        ("sympy.polys.rings.PolyElement", "hook"),
    ]


# ---------------------------------------------------------------------------
# jet rings are built by their own constructor only


_RING_CLASSES = ("PolyRing", "FracField")
# sympy's functions that build a ring or field with its own constructor
_RING_FUNCTIONS = ("ring", "xring", "vring", "sring", "field", "xfield", "vfield", "sfield")


def _ring_constructions(source: str) -> list:
    """(what, enclosing class.def) for every construction of a sympy
    ``PolyRing`` or ``FracField`` in a module's source: a call of the class
    or of its ``__new__``, by imported name or through a sympy module, a
    ``super().__new__`` in a subclass of one, and a call of one of sympy's
    ring-building functions (``ring``, ``xring``, ``field``, ...)."""
    tree = ast.parse(source)
    # local name -> the dotted sympy name it stands for
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "sympy":
                    names[a.asname or a.name.split(".")[0]] = a.name if a.asname else "sympy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy":
            for a in node.names:
                names[a.asname or a.name] = f"{node.module}.{a.name}"

    def sympy_name(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in names:
            return None
        return ".".join([names[node.id], *reversed(parts)])

    def constructed(call, ring_bases):
        f = call.func
        if isinstance(f, ast.Attribute) and f.attr == "__new__":
            inner = f.value
            if isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == "super":
                return ring_bases
            f = inner
        name = sympy_name(f)
        last = name.rsplit(".", 1)[-1] if name else None
        return [last] if last in _RING_CLASSES + _RING_FUNCTIONS else []

    found = []

    def visit(node, scope, ring_bases):
        for child in ast.iter_child_nodes(node):
            inner, bases = scope, ring_bases
            if isinstance(child, ast.ClassDef):
                inner = child.name
                bases = [
                    n.rsplit(".", 1)[-1]
                    for n in map(sympy_name, child.bases)
                    if n and n.rsplit(".", 1)[-1] in _RING_CLASSES
                ]
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                found.extend((what, scope) for what in constructed(child, ring_bases))
            visit(child, inner, bases)

    visit(tree, None, [])
    return found


def test_only_the_jet_constructors_build_rings():
    # the jet field is the package's own; sympy's ring is built by
    # jets._by_sympy alone, once per jet ring, for a multi-term gcd
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetweyl"
    offending = []
    for path in sorted(src.glob("*.py")):
        for what, where in _ring_constructions(path.read_text()):
            if not (path.name == "jets.py" and where == "_by_sympy" and what == "PolyRing"):
                offending.append(f"{path.name}: {what} in {where}")
    assert offending == []


def test_the_ring_construction_guard_sees_calls():
    found = _ring_constructions(
        "import sympy as sp\nimport sympy.polys.fields\n"
        "from sympy.polys.rings import PolyRing, ring as make_ring\n"
        "from sympy.polys import fields\nfrom dataclasses import field\n"
        "class Mine(PolyRing):\n"
        "    def __new__(cls, symbols):\n        return super().__new__(cls, symbols, sp.QQ)\n"
        "def build(s):\n"
        "    R, K = PolyRing(s, sp.QQ), fields.FracField.__new__(fields.FracField, s, sp.QQ)\n"
        "    S, x = make_ring('x', sp.QQ)\n    T = sp.xring('y', sp.QQ)\n"
        "    return sympy.polys.fields.field('z', sp.QQ), field(default=0), Mine(s)\n"
    )
    assert found == [
        ("PolyRing", "Mine.__new__"),
        ("PolyRing", "build"),
        ("FracField", "build"),
        ("ring", "build"),
        ("xring", "build"),
        ("field", "build"),
    ]


# ---------------------------------------------------------------------------
# sympy's polynomials stay at the boundary of jets.py


def _sympy_polys_uses(source: str) -> list:
    """(what, name) for every import of a ``sympy.polys`` module or name
    in a module's source, and every class whose base is a name imported
    from ``sympy.polys`` (directly or through a module imported from
    there)."""
    tree = ast.parse(source)
    found, polys_names = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("sympy.polys"):
                    found.append(("import", a.name))
                    if a.asname:
                        polys_names.add(a.asname)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("sympy.polys") or (
                module == "sympy" and any(a.name == "polys" for a in node.names)
            ):
                for a in node.names:
                    if module != "sympy" or a.name == "polys":
                        found.append(("import", f"{module}.{a.name}"))
                        polys_names.add(a.asname or a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                root = base
                while isinstance(root, ast.Attribute):
                    root = root.value
                dotted = ast.unparse(base)
                if isinstance(root, ast.Name) and (
                    root.id in polys_names or dotted.startswith("sympy.polys")
                ):
                    found.append(("base", f"{node.name}({dotted})"))
    return found


def test_only_jets_imports_sympy_polys_and_no_class_derives_from_it():
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetweyl"
    imports, bases = [], []
    for path in sorted(src.glob("*.py")):
        for what, name in _sympy_polys_uses(path.read_text()):
            (imports if what == "import" else bases).append(f"{path.name}: {name}")
    assert bases == []
    assert imports and all(entry.startswith("jets.py: ") for entry in imports), imports


def test_the_sympy_polys_guard_sees_imports_and_bases():
    found = _sympy_polys_uses(
        "import sympy as sp\nimport sympy.polys.rings\n"
        "from sympy.polys.fields import FracField as F\n"
        "from sympy import polys, Symbol\n"
        "class A(F):\n    pass\n"
        "class B(polys.rings.PolyElement, dict):\n    pass\n"
        "class C(sympy.polys.rings.PolyRing):\n    pass\n"
        "class D(sp.Basic, dict):\n    pass\n"
        "class E(sympy.Basic):\n    pass\n"
    )
    assert found == [
        ("import", "sympy.polys.rings"),
        ("import", "sympy.polys.fields.FracField"),
        ("import", "sympy.polys"),
        ("base", "A(F)"),
        ("base", "B(polys.rings.PolyElement)"),
        ("base", "C(sympy.polys.rings.PolyRing)"),
    ]


# ---------------------------------------------------------------------------
# no exported name without a caller

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# names kept without a caller, each with its reason
_UNCALLED = {
    # kept for the planned exact equivalence check on I-regular formal
    # solutions, which is to call it before it inverts the invariants
    "equivalence.py: i_regular",
    # the paper's order-2 canonical frame, checked against its matrix-algebra
    # oracle in tests/test_frame.py; ROADMAP item 4 records why it stays
    "geometry.py: canonical_frame",
}


def _public_definitions(tree) -> list:
    """(qualified name, node) for every public top-level function and class
    of a parsed module, and every public method of those classes."""
    out = []
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (f"{node.name}.{m.name}", m)
                    for m in node.body
                    if isinstance(m, _DEFS[:2]) and not m.name.startswith("_")
                )
    return out


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, *_COMPREHENSIONS)


def _bound(scope) -> set:
    """The names a function or comprehension binds itself: its parameters
    and every ``Name`` it stores to (an assignment, a ``for``, ``with`` or
    comprehension target), outside the scopes nested in it."""
    names = set()
    if not isinstance(scope, _COMPREHENSIONS):
        a = scope.args
        params = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
        names.update(x.arg for x in params if x)
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _uses(tree) -> list:
    """(name, ids of the enclosing definitions) for every name used in a
    parsed module: a ``Name`` that is read and not bound in an enclosing
    function or comprehension (:func:`_bound`), an ``Attribute`` or an
    import alias."""
    found = []

    def visit(node, inside, local):
        if isinstance(node, _DEFS):
            inside = inside | {id(node)}
        if isinstance(node, _SCOPES):
            local = local | _bound(node)
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in local:
                found.append((node.id, inside))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, inside))
        elif isinstance(node, ast.alias):
            found.extend((n, inside) for n in {node.name.split(".")[-1], node.asname} if n)
        for child in ast.iter_child_nodes(node):
            visit(child, inside, local)

    visit(tree, frozenset(), frozenset())
    return found


def _uncalled(package: dict, others: dict) -> list:
    """"module: name" for every public definition of the ``package``
    sources (file name -> source) whose name is never used in them or in
    the ``others``, outside its own definition."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    uses = [u for tree in [*trees.values(), *map(ast.parse, others.values())] for u in _uses(tree)]
    return [
        f"{module}: {qualified}"
        for module, tree in trees.items()
        for qualified, node in _public_definitions(tree)
        if not any(n == node.name and id(node) not in inside for n, inside in uses)
    ]


def test_every_exported_name_has_a_caller():
    root = pathlib.Path(__file__).resolve().parent.parent
    package = {p.name: p.read_text() for p in sorted((root / "src" / "jetweyl").glob("*.py"))}
    others = {str(p): p.read_text() for p in sorted((root / "perfbench").glob("*.py"))}
    assert others, "perfbench/*.py not found"
    found = _uncalled(package, others)
    assert [f for f in found if f not in _UNCALLED] == []
    # an exemption whose name has gained a caller goes
    assert sorted(_UNCALLED - set(found)) == []


def test_the_caller_guard_sees_unused_names():
    package = {
        "mod.py": "def used(x):\n    return x\n"
        "def unused(n):\n    return unused(n - 1) if n else used(n)\n"
        "class Box:\n    def kept(self):\n        return used(self)\n"
        "    def dropped(self):\n        return self.kept()\n"
        "    def _private(self):\n        pass\n"
        "class Lonely:\n    def make(self):\n        return Lonely()\n"
        "def _helper():\n    pass\n",
    }
    found = _uncalled(package, {"user.py": "from mod import Box as B\nB().kept()\n"})
    assert found == ["mod.py: unused", "mod.py: Box.dropped", "mod.py: Lonely", "mod.py: Lonely.make"]
    # a use in another module, by attribute or by import, counts
    found = _uncalled(package, {"user.py": "import mod\nfrom mod import Lonely\nmod.unused(2)\n"})
    assert "mod.py: unused" not in found and "mod.py: Lonely" not in found
    # a local name that shadows a public one is not a use of it: a
    # parameter, an assignment, a for, with or comprehension target, and a
    # name stored to
    package["mod.py"] += "def residuals():\n    return 0\n"
    shadows = (
        "def report(residuals):\n    return residuals\n"
        "def table(rows):\n    residuals = rows\n    return [residuals for _ in rows]\n"
        "def loop(rows):\n    for residuals in rows:\n        print(residuals)\n"
        "def opened(path):\n    with open(path) as residuals:\n        return residuals.read()\n"
        "squares = [residuals for residuals in range(3)]\n"
        "residuals = None\n"
    )
    assert "mod.py: residuals" in _uncalled(package, {"user.py": shadows})
    # a read where nothing local binds the name is a use
    for use in ("def report(rows):\n    return residuals()\n", "checked = residuals\n"):
        assert "mod.py: residuals" not in _uncalled(package, {"user.py": shadows + use})
