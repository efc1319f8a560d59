"""The section reader against the sympy route it replaces.

``sections.read_section`` reads the solution argument of a command line
(bindings, or a catalog id of ``sections.CATALOG`` with its parameters)
into a section field without sympy.  Its oracle is the sympy route:
``SectionField((u, v))`` of ``dsl.parse_solution``, and ``catalog(cid,
f, h)`` with the parameters ``dsl.parse_expr`` reads.  The two fields must
agree entry for entry: the ring's keys in their order, the readings of the
auxiliary generators and the numerator and denominator dicts of the
values.  They are compared on every binding of the CLI snapshot in the
algebraic subset, on the four catalog ids with and without parameters and
on seeded random texts with fractional powers of t, x and y and formal
functions, which a reader that skips the reduction of the root exponents
fails.  Through the CLI, the light path and the sympy route refuse alike
(same error class, message and exit code) and print alike, on chosen and
on seeded random command lines.  The catalog's trees and the
ansatz rows, now DSL text, are the trees they were when they were written
as sympy expressions.
"""

import contextlib
import io
import json
import pathlib
import random

import pytest
import sympy as sp

from jetweyl import cli, dsl, geometry, jets, sections, syntax
from jetweyl.exprcore import T, X, Y, formal, jet
from test_kernels import _mutant

SNAPSHOT = pathlib.Path(__file__).resolve().parent / "data" / "cli_stdout.json"


def _field_entries(sf) -> tuple:
    """What a section field is made of: its ring's keys in order, the
    readings in order and the dicts of its values."""
    return (
        sf.ring.keys,
        list(sf._readings.items()),
        [(dict(f.numer), dict(f.denom)) for f in sf.values],
    )


def _both(text: str):
    """(the reader's field, the oracle's field) of bindings; the reader's
    is None where it leaves the text to sympy, and the oracle's is the
    exception the sympy route raised."""
    trees = {name: tree for name, _, tree in syntax.parse_solution(text)}
    got = sections.read_section(text, trees, deferred=True)
    try:
        bindings = dsl.parse_solution(text)
        want = geometry.SectionField((bindings["u"], bindings["v"]))
    except Exception as exc:
        return got, exc
    return got, want


# ---------------------------------------------------------------------------
# bindings


def _snapshot_bindings() -> list[str]:
    """The bindings of the snapshot's solution arguments that the syntax
    stage reads."""
    texts = []
    for argv in json.loads(SNAPSHOT.read_text())["argvs"]:
        if argv[0] in ("check-solution", "signature", "transform") and len(argv) > 1:
            text = argv[1]
            if text in syntax.CATALOG_IDS:
                continue
            try:
                syntax.parse_solution(text)
            except syntax.ParseError:
                continue
            texts.append(text)
    return texts


_ROOTS = ["t^(1/2)", "x^(1/3)", "y^(2/3)", "y^(-1/3)", "t^(3/2)", "x^(-1/2)", "y^(1/6)"]
_ATOMS = ["t", "x", "y", "f(t)", "h'(t)", "a2(t)", *_ROOTS]


def _random_text(rng: random.Random, depth: int = 0) -> str:
    """A random expression of the algebraic subset."""
    if depth > 2 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.15:
            return str(rng.randint(0, 5))
        return rng.choice(_ATOMS)
    kind = rng.choice(["+", "-", "*", "/", "^", "()", "cancel"])
    a, b = _random_text(rng, depth + 1), _random_text(rng, depth + 1)
    if kind == "^":
        n = rng.choice([0, 1, 2, 3, -1])
        return f"({a})^{n}" if n >= 0 else f"({a})^({n})"
    if kind == "()":
        return f"({a} + {b})*({b} - {a})"
    if kind == "cancel":
        # roots whose product or quotient leaves a smaller root or none
        r = rng.choice(_ROOTS)
        return f"{r}*{r}*{a}" if rng.random() < 0.5 else f"({a})*{r}/{r}"
    return f"{a} {kind} {b}"


def _random_bindings(count: int) -> list[str]:
    rng = random.Random(3911)
    out = []
    while len(out) < count:
        text = f"u = {_random_text(rng)} ; v = {_random_text(rng)}"
        try:
            syntax.parse_solution(text)
        except syntax.ParseError:
            continue
        out.append(text)
    return out


@pytest.mark.parametrize("source", ["snapshot", "random"])
def test_the_reader_builds_the_field_of_the_parsed_bindings(source):
    texts = _snapshot_bindings() if source == "snapshot" else _random_bindings(240)
    read = 0
    for text in texts:
        got, want = _both(text)
        if isinstance(want, Exception):
            # a jet coordinate, an exp atom or a zero divisor
            assert got is None, (text, want)
            continue
        if got is None:
            # left to sympy while sympy reads it: an exp atom only
            assert "exp" in text, text
            continue
        read += 1
        assert _field_entries(got.field) == _field_entries(want), text
    assert read >= {"snapshot": 3, "random": 200}[source]
    if source == "random":
        # the corpus reaches fields where a root cancels, and formal derivatives
        roots = [_both(t)[1] for t in texts[:80]]
        assert any(not isinstance(w, Exception) and w._readings for w in roots)


def test_a_reader_that_keeps_the_scan_root_fails_the_oracle(monkeypatch):
    # without the gcd of the exponents, y^(1/2)*y^(1/2) keeps a root of y
    mutant = _mutant(sections._read_values, "acc = math.gcd(acc, monom[j])", "pass")
    monkeypatch.setattr(sections, "_read_values", mutant)
    differ = 0
    for text in _random_bindings(240):
        got, want = _both(text)
        if got is not None and not isinstance(want, Exception):
            differ += _field_entries(got.field) != _field_entries(want)
    assert differ


# ---------------------------------------------------------------------------
# the catalog


_PARAMETERS = [
    {},
    {"f": "0", "h": "0"},
    {"f": "1", "h": "0"},
    {"f": "t^2 - 1/3", "h": "a(t)"},
    {"f": "t^(1/2)", "h": "1/(t + 1)"},
    {"h": "t^(1/3) + f''(t)"},
    {"f": "(t^(1/2) + 1)^2 - t - 2*t^(1/2)"},
    {"f": "h(t) - h(t)"},
]


@pytest.mark.parametrize("cid", sorted(sections.CATALOG))
@pytest.mark.parametrize("params", _PARAMETERS, ids=lambda p: ",".join(f"{k}={v}" for k, v in p.items()) or "formal")
def test_the_catalog_read_from_text_is_the_catalog_of_trees(cid, params):
    trees = {name: syntax.parse_expr(text, allow_exp=True) for name, text in params.items()}
    got = sections.read_section(cid, trees)
    want = geometry.catalog(cid, **{k: dsl.parse_expr(v, allow_exp=True) for k, v in params.items()})
    assert got is not None and got.checked and want.checked
    assert (got.name, got.domain) == (want.name, want.domain)
    assert _field_entries(got.field) == _field_entries(want.field)


def test_the_catalog_is_written_once_as_text():
    # the trees of the closed forms, as they were written in sympy
    f, h = formal("f"), formal("h")
    r = sp.Rational
    written = {
        "trivial": (0, 0),
        "dkp-partial": (0, Y**4 / 12 + X * Y + h),
        "sl2-family": (
            Y ** r(2, 3) - r(10, 3) * X / Y,
            r(2, 5) * X * Y ** r(-1, 3)
            - r(7, 3) * X**2 / Y**2
            + r(21, 25) * Y ** r(4, 3)
            + (f * Y ** r(1, 3) + h) * Y**2,
        ),
        "sl2-degenerate": (
            -r(10, 3) * X / Y,
            -r(7, 3) * X**2 / Y**2 + (f * Y ** r(1, 3) + h) * Y**2,
        ),
    }
    assert set(written) == set(sections.CATALOG)
    for cid, (u, v) in written.items():
        sol = geometry.catalog(cid)
        assert (sol.u, sol.v) == (u, v), cid
    zero = geometry.catalog("sl2-degenerate", f=0, h=0)
    assert (zero.u, zero.v) == (-r(10, 3) * X / Y, -r(7, 3) * X**2 / Y**2)
    bound = geometry.catalog("sl2-family", f=T, h=1)
    assert bound.v == written["sl2-family"][1].subs({f: T, h: 1})


def test_the_ansatz_is_written_once_as_text():
    u, v, ux, uy, vx = jet("u"), jet("v"), jet("u", "x"), jet("u", "y"), jet("v", "x")
    metric = ((-(u**2) - 4 * v, 2, u), (2, 0, 0), (u, 0, -1))
    covector = (u * ux + 2 * uy + 4 * vx, 0, -ux)

    def built(text):
        return dsl._build(syntax.parse_expr(text))

    assert tuple(tuple(map(built, row)) for row in jets._METRIC) == metric
    assert tuple(map(built, jets._COVECTOR)) == covector
    ring = jets._jet_ring(2)
    g, w = jets._ansatz()
    assert g == tuple(tuple(map(ring.convert, row)) for row in metric)
    assert w == tuple(map(ring.convert, covector))


# ---------------------------------------------------------------------------
# the command line: output and refusals


def _outcome(argv, tmp_path, sympy_route: bool = False) -> tuple:
    """(error class, message, exit code, stdout) of a command line; with
    ``sympy_route`` no solution argument is read in the jet field."""
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)
        if sympy_route:
            mp.setattr(sections, "read_section", lambda *args: None)
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
    return (*error, code, stdout.getvalue())


_REFUSED = [
    ["check-solution", "sl2-family", "--f", "x"],
    ["signature", "sl2-degenerate", "--h", "y*t"],
    ["check-solution", "u = x/(y - y) ; v = 0"],
    ["check-solution", "u = 1/((x + 1)^2 - x^2 - 2*x - 1) ; v = 0"],
    ["check-solution", "trivial", "--f", "1/(t - t)"],
    ["check-solution", "u = x/t ; v = 0", "--points", "2"],
    ["signature", "u = x/t ; v = 0"],
    ["signature", "u = x*y ; v = 0"],
    ["signature", "trivial"],
    ["signature", "dkp-partial"],
    ["signature", "u = x + y^(1/2) ; v = 0", "--n", "2"],
]


@pytest.mark.parametrize("argv", _REFUSED, ids=" ".join)
def test_refusals_of_the_light_path_are_those_of_the_sympy_route(argv, tmp_path):
    light, tree = _outcome(argv, tmp_path), _outcome(argv, tmp_path, sympy_route=True)
    assert light == tree
    assert light[0] is not None and light[2] in (cli.EXIT_PARSE, cli.EXIT_DOMAIN), light


_PRINTED = [
    ["check-solution", "u = x*y ; v = 0", "--points", "2"],
    ["check-solution", "u = t^(1/2)*x ; v = y^(2/3)", "--points", "2"],
    ["check-solution", "u = f(t)*x^(1/2) ; v = 0"],
    ["check-solution", "sl2-family", "--f", "0", "--h", "0", "--points", "3"],
    ["check-solution", "sl2-degenerate", "--f", "t^(1/2)"],
    ["check-solution", "dkp-partial", "--h", "t^2"],
    ["signature", "u = x^2*y ; v = x*t", "--n", "3"],
    ["signature", "sl2-family", "--f", "0", "--h", "0", "--n", "2", "--seed", "3"],
]


@pytest.mark.parametrize("argv", _PRINTED, ids=" ".join)
def test_the_light_path_prints_what_the_sympy_route_prints(argv, tmp_path):
    assert _outcome(argv, tmp_path) == _outcome(argv, tmp_path, sympy_route=True)


_PARAMETER_ATOMS = ["t", "f(t)", "a'(t)", "2", "1/3", "t^(1/2)", "t^(2/3)", "0"]


def _random_parameter(rng: random.Random, depth: int = 0) -> str:
    if depth > 1 or rng.random() < 0.4:
        return rng.choice(_PARAMETER_ATOMS)
    op = rng.choice(["+", "-", "*", "/"])
    return f"({_random_parameter(rng, depth + 1)}) {op} ({_random_parameter(rng, depth + 1)})"


def _random_command_lines(count: int) -> list:
    """Seeded ``check-solution`` and ``signature`` command lines on random
    bindings and on the catalog ids with random parameters."""
    rng = random.Random(3912)
    bindings = iter(_random_bindings(count))
    out = []
    while len(out) < count:
        cmd = rng.choice(["check-solution", "signature"])
        if rng.random() < 0.5:
            argument = [next(bindings)]
        else:
            argument = [rng.choice(sorted(sections.CATALOG))]
            for name in ("f", "h"):
                if rng.random() < 0.7:
                    argument += [f"--{name}", _random_parameter(rng)]
        tail = rng.choice([[], ["--points", "2"]]) if cmd == "check-solution" else ["--n", "2"]
        out.append([cmd, *argument, *tail])
    return out


def test_random_command_lines_print_alike(tmp_path):
    argvs = _random_command_lines(40)
    for argv in argvs:
        assert _outcome(argv, tmp_path) == _outcome(argv, tmp_path, sympy_route=True), argv
