"""The jet field's core against the sympy path it replaces on rational text.

``jets.read`` reads a syntax tree straight into a field; its oracle is
``convert(dsl.parse_expr(text))``, entry for entry, on every rational text
of the CLI snapshot, on the written definitions and on seeded random
texts with formal functions, which a reader with an exponent off by one
fails.  ``jets.text`` prints a field element; its
oracle is ``tree_oracle.tree_text``, the sympy printing ``to_text`` used
for every canonical form, on a seeded corpus that holds negative leading
terms, integer and monomial denominators, a rational constant over a sum,
multi-term denominators and formal functions; a printer with one sort
flipped fails the corpus.  The print order of the generators
(``_JetRing._sympy_order``) is sympy's ``_sort_gens`` on every ring a
``verify-all`` pass builds and on rings with formal, auxiliary and
foreign generators.  ``reduce`` and ``invariants --eval`` refuse rational
text through the core as they do through ``dsl.parse_expr``, the
conversion and ``JetPoint.eval``: same error class, message and exit code.
``invariant`` and ``derivation`` give the trees they gave when they were
written as sympy expressions.
"""

import contextlib
import io
import json
import pathlib
import random

import pytest
import sympy as sp
from sympy.polys.polyutils import _sort_gens

from jetweyl import cli, dsl, exprcore, jets, syntax
from jetweyl.exprcore import X, Y, formal, jet, to_text
from jetweyl.invariants import derivation, invariant
from jetweyl.jets import _JetRing
from jetweyl.trees import _canonical, _ring_for
from test_integer_field import _clear_caches
from test_kernels import _mutant
from tree_oracle import tree_text

SNAPSHOT = pathlib.Path(__file__).resolve().parent / "data" / "cli_stdout.json"


def _entries(f) -> tuple:
    return dict(f.numer), dict(f.denom)


# ---------------------------------------------------------------------------
# the reader


def _snapshot_texts() -> list[str]:
    """The DSL expressions of the snapshot's argvs that the syntax stage
    reads as rational trees."""
    texts = []
    for argv in json.loads(SNAPSHOT.read_text())["argvs"]:
        words = [w for w in argv if w != "--"]
        candidates = []
        if words[:1] == ["reduce"] and len(words) > 1:
            candidates.append(words[1])
        for i, w in enumerate(words):
            if w.startswith("--") and "=" in w:
                candidates.append(w.split("=", 1)[1])
            elif w in ("--eval", "--parameter", "--D", "--A", "--B", "--C", "--E") and i + 1 < len(words):
                candidates.append(words[i + 1])
        for text in candidates:
            try:
                tree = syntax.parse_expr(text)
            except Exception:
                continue
            if jets.is_rational(tree):
                texts.append(text)
    return texts


def _definition_texts() -> list[str]:
    structure = [text for terms in jets.STRUCTURE for term in terms for text in term if text]
    rows = [c for row in jets.DERIVATIONS for c in row]
    return [*jets.EQUATIONS, *jets.INVARIANTS, *rows, *structure]


_NAMES = ["u", "v", "u_x", "u_xy", "v_yy", "u_xxx", "v_t", "t", "x", "y"]
_FORMALS = ["f(t)", "h''(t)", "a2'(t)", "b(t)"]


def _random_text(rng: random.Random, depth: int = 0) -> str:
    """A random DSL text of the rational subset."""
    if depth > 2 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.2:
            return str(rng.randint(0, 9))
        if pick < 0.35:
            return rng.choice(_FORMALS)
        return rng.choice(_NAMES)
    kind = rng.choice(["+", "-", "*", "/", "^", "neg", "()"])
    a, b = _random_text(rng, depth + 1), _random_text(rng, depth + 1)
    if kind == "^":
        n = rng.choice([0, 1, 2, 3, -1, -2])
        return f"({a})^{n}" if n >= 0 else f"({a})^({n})"
    if kind == "neg":
        return f"-({a})"
    if kind == "()":
        return f"({a} + {b})*({b} - {a})"
    return f"{a} {kind} {b}"


def _random_texts(count: int) -> list[str]:
    """Seeded random texts that pass the syntax stage (which refuses a
    divisor that is zero as a constant, such as 1/0)."""
    rng = random.Random(3810)
    out = []
    while len(out) < count:
        text = _random_text(rng)
        try:
            syntax.parse_expr(text)
        except syntax.ParseError:
            continue
        out.append(text)
    return out


def _read_both(text: str):
    """(the core's element, the oracle's element) of a text in the ring of
    its tree; the core's is None where it leaves the text to sympy, and
    the oracle's is the exception the sympy path raised."""
    tree = syntax.parse_expr(text)
    got = jets._read_rational(tree)
    ring = got[0] if got else None
    try:
        e = dsl.parse_expr(text)
    except Exception as exc:
        return got, exc
    if ring is None:
        names = jets._names(tree, {"order": 0, "formals": {}})
        ring = jets._ring_of(names["order"], names["formals"])
    return got, ring.convert(e)


@pytest.mark.parametrize("source", ["snapshot", "definitions", "random"])
def test_the_reader_matches_convert_of_the_parsed_tree(source):
    texts = {
        "snapshot": _snapshot_texts,
        "definitions": _definition_texts,
        "random": lambda: _random_texts(240),
    }[source]()
    assert len(texts) >= {"snapshot": 30, "definitions": 20, "random": 200}[source]
    deferred = 0
    for text in texts:
        got, want = _read_both(text)
        if isinstance(want, Exception):
            # only a zero divisor makes the sympy path refuse rational text
            assert got is None, (text, want)
            deferred += 1
            continue
        assert got is not None, text
        assert _entries(got[1]) == _entries(want), text
    if source == "random":
        assert deferred < len(texts) // 4
        assert any("h''(t)" in t for t in texts) and any("/" in t for t in texts)


def test_a_reader_with_an_exponent_off_by_one_fails_the_oracle(monkeypatch):
    mutant = _mutant(jets.read, "int(tree[3])", "int(tree[3]) + 1")
    monkeypatch.setattr(jets, "read", mutant)
    differ = 0
    for text in _random_texts(240):
        got, want = _read_both(text)
        if got is not None and not isinstance(want, Exception):
            differ += _entries(got[1]) != _entries(want)
    assert differ


def test_a_zero_divisor_is_left_to_the_sympy_path():
    # x/(x - x) is a literal zero for sympy, (x+1)^2 - x^2 - 2x - 1 is not:
    # their refusals differ, so the core reads neither
    for text in ("u_x/(u_x - u_x)", "u/((u_x + 1)^2 - u_x^2 - 2*u_x - 1)", "(u_y - u_y)^(-2)"):
        assert jets._read_rational(syntax.parse_expr(text)) is None, text
    assert jets._read_rational(syntax.parse_expr("t^(1/2)*u_x")) is None


# ---------------------------------------------------------------------------
# the printer

_POOL = [
    jet("u", "x"), jet("u", "xx"), jet("v"), jet("u"), jet("v", "y"), jet("u", "xxy"),
    exprcore.T, X, Y, formal("f"), formal("h", 2), formal("a2"), formal("b", 1),
]


def _poly(rng: random.Random, terms: int) -> sp.Expr:
    out = sp.Integer(0)
    for _ in range(terms):
        m = sp.Integer(rng.choice([1, -1]) * rng.choice([1, 1, 2, 3, 4, 6]))
        for _ in range(rng.randint(0, 3)):
            m *= rng.choice(_POOL) ** rng.randint(1, 3)
        out += m
    return out


def _printer_corpus() -> list:
    """Seeded rational expressions: numerator over denominator times a
    rational constant."""
    rng = random.Random(4242)
    out = []
    while len(out) < 400:
        num, den = _poly(rng, rng.randint(1, 4)), _poly(rng, rng.choice([1, 1, 2, 3]))
        if den != 0:
            out.append(num / den * sp.Rational(rng.choice([1, 1, 2, 3]), rng.choice([1, 2, 3, 5])))
    return out


def _features(e) -> set:
    """What the printed form of e shows, among the cases the corpus must
    hold."""
    scaled, f = _canonical(e)
    den, text = f.denom, to_text(e)
    constant = den.get(scaled.ring.ring.zero_monom) if len(den) == 1 else None
    found = {name for name in ("f(t)", "h''(t)") if name in text}
    if text.startswith(("-", "(-")):
        found.add("negative leading term")
    if constant is not None and constant != 1:
        found.add("integer denominator")
        if len(f.numer) > 1:
            found.add("rational constant over a sum")
    elif len(den) == 1 and constant is None:
        found.add("monomial denominator")
    elif len(den) > 1:
        found.add("multi-term denominator")
    return found


def test_the_printer_matches_the_sympy_path():
    corpus = _printer_corpus()
    features = set().union(*map(_features, corpus))
    assert features >= {
        "negative leading term", "integer denominator", "monomial denominator",
        "rational constant over a sum", "multi-term denominator", "f(t)", "h''(t)",
    }
    for e in corpus:
        assert to_text(e) == tree_text(e), e


def test_the_printer_prints_every_element_of_the_order3_table():
    table = jets._order3()
    for f in (*table.I, *table.K, *table.twelve, *(c for row in table.nabla for c in row)):
        assert jets.text(table.ring, f) == tree_text(table.ring.to_expr(f))


@pytest.mark.parametrize(
    "func, old, new",
    [
        ("_sum_text", "key=lambda t: _term_key(*t))", "key=lambda t: _term_key(*t), reverse=True)"),
        ("_product_text", "key=lambda f: _term_key(1, (f,)))", "key=lambda f: _term_key(1, (f,)), reverse=True)"),
    ],
)
def test_a_printer_with_one_sort_flipped_fails_the_corpus(monkeypatch, func, old, new):
    monkeypatch.setattr(jets, func, _mutant(getattr(jets, func), old, new))
    assert any(to_text(e) != tree_text(e) for e in _printer_corpus())


def test_rational_forms_are_not_printed_by_sympys_sort(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the sympy printer printed a rational canonical form")

    for name in ("_print_expr", "_print_term", "_print_sum", "_print_product"):
        monkeypatch.setattr(exprcore, name, refused)
    for e in _printer_corpus()[:50]:
        to_text(e)
    with pytest.raises(AssertionError):
        to_text(sp.sqrt(Y) * jet("u", "x"))


# ---------------------------------------------------------------------------
# the print order of the generators


def _rings_of_a_verify_all_pass(monkeypatch) -> list:
    built, init = [], _JetRing.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    _clear_caches()
    monkeypatch.setattr(_JetRing, "__init__", recorded)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify-all"]) == 0
    finally:
        monkeypatch.undo()
        _clear_caches()
    return built


def test_the_print_order_is_sympys_generator_order(monkeypatch):
    rings = _rings_of_a_verify_all_pass(monkeypatch)
    assert len(rings) > 10
    assert any(any(type(k) is not str for k in ring.keys) for ring in rings)
    z = sp.Symbol("z")
    names = [formal(n) for n in ("f01", "f1", "a2", "b10", "zed", "T")]
    rings += [
        _ring_for(2, names, derivatives=2),
        _ring_for(1, (formal("h", 2),), aux=(z,)),
        _JetRing(1, (sp.Symbol("q3"), sp.Symbol("_x"), z)),
        _canonical(sp.sqrt(2) * sp.exp(exprcore.T) * Y ** sp.Rational(1, 3) + X ** sp.Rational(2, 5) * z)[0].ring,
    ]
    for ring in rings:
        assert [ring.symbols[i] for i in ring._sympy_order] == list(_sort_gens(ring.symbols)), ring.keys


# ---------------------------------------------------------------------------
# refusals


def _outcome(argv, sympy_path: bool = False) -> tuple:
    """(error class, message, exit code) of a command line; with
    ``sympy_path`` the core reads no text, so every text goes the sympy
    way (``dsl.parse_expr``, the conversion, ``JetPoint.eval``)."""
    with pytest.MonkeyPatch.context() as mp:
        if sympy_path:
            mp.setattr(jets, "reduced", lambda tree, k=None: None)
        args = cli.build_parser().parse_args(argv)
        try:
            args.handler(args)
        except Exception as exc:
            error = (type(exc), str(exc))
        else:
            error = (None, None)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    return (*error, code)


_REFUSED = [
    ["reduce", "u_x/(u_x - u_x)"],
    ["reduce", "u_xxx", "--order", "2"],
    ["reduce", "u_x*u_y^(-1) + v_xxxx", "--order", "3"],
    ["invariants", "--eval", "(u_xy + v_xx)/u_x^2", "--at", "u_x=0,u_xx=1"],
    ["invariants", "--eval", "1/u_y", "--at", "u_x=2"],
    ["invariants", "--eval", "u_y/u_xx", "--at", "u_x=2"],
    ["invariants", "--eval", "u_x", "--at", "u_tx=1"],
    ["invariants", "--eval", "f(t)*u_x", "--at", "u_x=1"],
]


@pytest.mark.parametrize("argv", _REFUSED, ids=" ".join)
def test_refusals_of_the_core_are_those_of_the_sympy_path(argv):
    core, tree = _outcome(argv), _outcome(argv, sympy_path=True)
    assert core == tree
    assert core[0] is not None and core[2] in (cli.EXIT_PARSE, cli.EXIT_DOMAIN), core


# ---------------------------------------------------------------------------
# the tree API


def test_invariants_and_derivations_build_the_trees_they_were_written_as():
    ux, uy, uxx, uxy, uyy = (jet("u", w) for w in ("x", "y", "xx", "xy", "yy"))
    vx, vxx, vxy, u, v = jet("v", "x"), jet("v", "xx"), jet("v", "xy"), jet("u"), jet("v")
    assert [invariant(i) for i in (1, 2, 3)] == [
        (uxy + vxx) / ux**2,
        (ux**2 * uxy + ux * uxx * vx + uxx * uyy - uxy**2) / ux**4,
        (ux**2 * vxx - ux * uxx * vx + uxx * vxy - uxy * vxx) / ux**4,
    ]
    assert [derivation(i) for i in (1, 2, 3)] == [
        (sp.Integer(0), ux / uxx, sp.Integer(0)),
        (sp.Integer(0), uxy / (ux * uxx), -1 / ux),
        (uxx / ux**3, (vx * ux + v * uxx + uyy) / ux**3, (ux**2 + u * uxx - 2 * uxy) / ux**3),
    ]


def test_the_tree_api_builds_no_ring(monkeypatch):
    derivation.cache_clear()

    def refused(self, *args, **kwargs):
        raise AssertionError("a ring was built")

    monkeypatch.setattr(_JetRing, "__init__", refused)
    monkeypatch.setattr(jets, "_jet_ring", jets._jet_ring.__wrapped__)
    invariant(2)
    derivation(3)
