"""The light path: commands that need no sympy start without it, and
commands that sample or compare no signature cloud without ``dataclasses``.

``import jetweyl.cli`` loads the standard library and ``errors`` only, and
each subcommand imports the layers it uses.  A fresh interpreter runs
``dims``, ``compare``, ``--help``, usage errors, for every command that
reads DSL text a text the syntax stage refuses, ``reduce`` and
``invariants`` (bare and with ``--eval``/``--at``) on rational text, which
the jet field's core (``jets``) computes and prints, and ``check-solution``
and ``signature`` on sections of the algebraic subset, which the section
core (``sections``) reads and checks; it must not have loaded sympy after
any of them.  The negative controls, run last in probes of their own, must
load it: a ``reduce`` of a fractional power, a ``transform`` and a
``check-solution`` of a section with exponential atoms.  Nor may the probe
have loaded ``dataclasses`` or ``inspect`` (which ``dataclasses`` imports,
with ``ast`` and ``dis``) after ``import jetweyl.cli`` or after any of
those light runs: the records of ``syntax``, ``counts`` and ``sections``
are plain classes, and only the signature clouds of ``clouds`` are
dataclasses.  So a ``signature`` that samples a cloud and a ``compare``
load both, each run in a probe of its own as its negative control, still
without sympy.
``counts`` loads neither sympy nor an algebra layer.  A static guard reads
the sources: the light modules import neither sympy nor a module that uses
it, ``cli.py`` and the core ``jets.py`` import neither at module level,
the section core ``sections.py``, which imports ``jets``, imports neither
sympy nor a module that loads it at module level, and ``syntax.py``,
``counts.py`` and ``sections.py`` import ``dataclasses`` nowhere at module
level.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import jetweyl
from jetweyl.clouds import SignatureCloud, cloud_to_json

SRC = pathlib.Path(jetweyl.__file__).resolve().parent

LIGHT = ("__init__.py", "errors.py", "linalg.py", "counts.py", "clouds.py", "syntax.py")
# modules that import sympy, or a module that uses it, only inside the
# functions that need it
MODULE_LEVEL = ("cli.py", "jets.py")
# the section core imports jets, which reaches trees lazily: it may import
# a module that uses sympy, but not one that loads it, at module level
LOADS_LEVEL = ("sections.py",)
# modules of the light commands that build their records without dataclasses
NO_DATACLASSES = ("syntax.py", "counts.py", "sections.py")


# ---------------------------------------------------------------------------
# a fresh interpreter

_PROBE = """
import json, sys
import jetweyl.cli
def heavy():
    return ["sympy" in sys.modules, "dataclasses" in sys.modules, "inspect" in sys.modules]
loaded = {"import": heavy()}
for name, argv in json.loads(sys.argv[1]):
    try:
        code = jetweyl.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    loaded[name] = [code, *heavy()]
with open(sys.argv[2], "w") as fh:
    json.dump(loaded, fh)
"""


def _cloud(shift: int) -> SignatureCloud:
    values = tuple(
        tuple(float(shift + i + k) for k in range(12)) for i in range(3)
    )
    points = tuple((i, 0, 1) for i in range(3))
    return SignatureCloud(points, values, "float64")


def test_light_commands_do_not_load_sympy(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(cloud_to_json(_cloud(0)) + "\n")
    b.write_text(cloud_to_json(_cloud(5)) + "\n")
    report = tmp_path / "report.json"
    # (name, argv, exit code): 3 a parse error, 4 a jet order past the cap
    runs = [
        ("dims", ["dims", "3"], 0),
        ("usage", ["dims", "-1"], 2),
        ("help", ["--help"], 0),
        ("reduce", ["reduce", "u_tx +* 2"], 3),
        ("reduce-order", ["reduce", "u_x9"], 4),
        ("invariants-eval", ["invariants", "--eval", "u_x +"], 3),
        ("invariants-eval-empty", ["invariants", "--eval", ""], 3),
        ("invariants-at", ["invariants", "--eval", "u_x", "--at", "u_tx=1"], 3),
        ("reduce-zero-count", ["reduce", "u_x0 + v_t0y"], 3),
        ("invariants-at-zero-count", ["invariants", "--eval", "u", "--at", "u_x0=3"], 3),
        ("invariants-at-twice", ["invariants", "--eval", "u_x", "--at", "u_x=1,u_x=2"], 3),
        ("invariants-at-alone", ["invariants", "--at", "garbage"], 2),
        ("check-symmetry", ["check-symmetry", "all", "--parameter", "t^"], 3),
        ("check-solution", ["check-solution", "u = x ; v = 1 +* 2"], 3),
        ("check-solution-f", ["check-solution", "sl2-family", "--f", "sqrt(t)"], 3),
        ("transform", ["transform", "u = ; v = 0", "--D", "2*t"], 3),
        ("transform-w", ["transform", "hierarchy", "--w", "x^", "--reflect", "txy"], 3),
        ("transform-D", ["transform", "hierarchy", "--w", "x^3", "--D", "2*t)"], 3),
        ("transform-E", ["transform", "trivial", "--D", "2*t", "--E", "1/0"], 3),
        ("signature", ["signature", "u = x ; x = 0"], 3),
        ("signature-h", ["signature", "sl2-family", "--f", "0", "--h", "f(x)"], 3),
        # rational text: the core reads, reduces, evaluates and prints it
        ("reduce-light", ["reduce", "u_tx"], 0),
        ("reduce-negative", ["reduce", "--", "-u_tx"], 0),
        ("reduce-formal", ["reduce", "h''(t)*u_x"], 0),
        ("invariants", ["invariants"], 0),
        ("invariants-eval-at", [
            "invariants", "--eval", "(u_x^2*u_xy + u_x*u_xx*v_x + u_xx*u_yy - u_xy^2)/u_x^4",
            "--at", "u_x=-5,u_xx=2,u_xy=4,u_yy=1/7,v_x=7/5,v_xx=-8/3,v_xy=-2/3",
        ], 0),
        # sections of the algebraic subset: the section core reads and checks them
        ("check-solution-bindings", ["check-solution", "u = x*y ; v = 0"], 1),
        ("check-solution-trivial", ["check-solution", "trivial"], 0),
        ("check-solution-sl2-degenerate", ["check-solution", "sl2-degenerate", "--f", "0", "--h", "0"], 0),
        ("check-solution-points", [
            "check-solution", "sl2-family", "--f", "0", "--h", "0", "--points", "3",
        ], 0),
        # pseudogroup elements: the field of t reads, checks and moves them,
        # and the field's printer prints the roots of the moved section
        *(
            (f"transform-{n}", [
                "transform", "sl2-family", "--f", "0", "--h", "0", "--D", d,
                "--A", a, "--C", c, "--E", "8",
            ], 0)
            for n, (d, a, c) in enumerate([
                ("t + (1)", "(1)*t + (-2)", "(2)*t + (-1/2)"),
                ("t + (1)", "(2)*t + (-1)", "(1)*t + (-1)"),
                ("t + (1/3)", "(2)*t + (-1)", "(1)*t + (-1/2)"),
            ])
        ),
        ("transform-reflect", ["transform", "trivial", "--reflect", "txy"], 0),
        ("transform-not-affine", ["transform", "trivial", "--D", "t^3+t"], 4),
    ]
    # the commands that load dataclasses and not sympy, and the negative
    # controls that load sympy, each run last in a probe of its own
    clouds = [
        ("compare", ["compare", str(a), str(b)], 1),
        ("signature-sl2", [
            "signature", "sl2-family", "--f", "0", "--h", "0", "--n", "8", "--seed", "760",
            "--out", str(tmp_path / "sl2.json"),
        ], 0),
    ]
    controls = [
        ("reduce-radical", ["reduce", "t^(1/2)*u_x"], 0),
        # 2^(1/3) in the moved section is printed from its sympy tree
        ("transform-radical", [
            "transform", "sl2-family", "--f", "0", "--h", "0", "--D", "4*t", "--E", "8",
        ], 0),
        ("check-solution-exp", ["check-solution", "exp-family"], 0),
    ]
    assert _probe([(name, argv) for name, argv, _ in runs], report) == {
        "import": [False, False, False],
        **{name: [code, False, False, False] for name, _, code in runs},
    }
    for name, argv, code in clouds:
        assert _probe([(name, argv)], report) == {
            "import": [False, False, False],
            name: [code, False, True, True],
        }
    for name, argv, code in controls:
        got = _probe([(name, argv)], report)
        assert got["import"] == [False, False, False] and got[name][:2] == [code, True], got


def _probe(commands: list, report) -> dict:
    """What the probe reports after running ``commands`` in one fresh
    interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands), str(report)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(report.read_text())


def test_counts_loads_no_algebra_layer():
    # the Poincare function is printed from the integer table of counts
    probe = (
        "import json, sys\n"
        "import jetweyl.cli\n"
        "code = jetweyl.cli.main(['counts', 'weyl'])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(('jetweyl.', 'sympy')))\n"
        "print(json.dumps([code, loaded]), file=sys.stderr)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    assert code == 0
    heavy = {f"jetweyl.{m}" for m in ("invariants", "symmetry", "fields", "jets")}
    assert heavy.isdisjoint(loaded) and "sympy" not in loaded, loaded
    poincare = json.loads(proc.stdout)["poincare"]
    assert poincare == "(-13*z^2 + 9*z^3 - z^5)/(-1 + 3*z - 3*z^2 + z^3)"


# ---------------------------------------------------------------------------
# the sources


def _imports(source: str, module_level: bool) -> set:
    """Modules a source imports, relative imports as ``jetweyl.<name>``;
    with ``module_level`` only those that run when the module is imported
    (not inside a function)."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if module_level and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(child, ast.Import):
                found.update(a.name for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                if child.level or child.module == "jetweyl":
                    if child.module and child.module != "jetweyl":
                        found.add(f"jetweyl.{child.module}")
                    else:
                        found.update(f"jetweyl.{a.name}" for a in child.names)
                else:
                    found.add(child.module)
            visit(child)

    visit(ast.parse(source))
    return found


def _is_sympy(name: str) -> bool:
    return name == "sympy" or name.startswith("sympy.")


def _users(imports: dict, module: dict) -> set:
    """The modules of ``imports`` ({file name: names it imports}) that
    import sympy, or a module that does, by those imports."""
    heavy = {name for name, names in imports.items() if any(map(_is_sympy, names))}
    grew = True
    while grew:
        grew = False
        for name, names in imports.items():
            if name not in heavy and any(module.get(m) in heavy for m in names):
                heavy.add(name)
                grew = True
    return heavy


def light_path_offences(sources: dict) -> list:
    """Offences against the light path in ``{file name: source}``.

    A module uses sympy when it imports sympy, or a module that uses it,
    anywhere; it loads sympy when it does so at module level.  A light
    module may import neither sympy nor a module that uses it; ``cli.py``
    and ``jets.py`` may import neither at module level; ``sections.py`` may
    import neither sympy nor a module that loads it at module level; the
    modules of ``NO_DATACLASSES`` may not import ``dataclasses`` at module
    level."""
    module = {f"jetweyl.{name[:-3]}": name for name in sources}
    anywhere = {name: _imports(src, False) for name, src in sources.items()}
    level = {name: _imports(src, True) for name, src in sources.items()}
    uses, loads = _users(anywhere, module), _users(level, module)

    def bad(names, heavy):
        return sorted(m for m in names if _is_sympy(m) or module.get(m) in heavy)

    out = []
    for name in LIGHT:
        if name in sources:
            out += [f"{name} imports {m}" for m in bad(anywhere[name], uses)]
    for names, heavy in ((MODULE_LEVEL, uses), (LOADS_LEVEL, loads)):
        for name in names:
            if name in sources:
                out += [f"{name} imports {m} at module level" for m in bad(level[name], heavy)]
    for name in NO_DATACLASSES:
        if "dataclasses" in level.get(name, ()):
            out.append(f"{name} imports dataclasses at module level")
    return out


def test_the_light_modules_and_cli_import_no_sympy():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert set(LIGHT) | set(MODULE_LEVEL) | set(LOADS_LEVEL) | set(NO_DATACLASSES) <= set(sources)
    assert light_path_offences(sources) == []


def test_the_light_path_guard_sees_a_planted_import():
    sources = {
        "__init__.py": "",
        "errors.py": "class JetweylError(Exception):\n    pass\n",
        "linalg.py": "from fractions import Fraction\n",
        "exprcore.py": "import sympy as sp\n",
        # heavy through exprcore only
        "jets.py": "from .exprcore import jet\ndef symbols(ring):\n    from . import trees\n",
        "trees.py": "from .jets import _JetRing\nimport sympy as sp\n",
        # a lazy import is still an import for a light module
        "clouds.py": "from . import errors, linalg\nfrom sympy.core import S\n",
        # a record module may build a dataclass lazily, not at module level
        "syntax.py": "import re\nfrom dataclasses import dataclass\n",
        "counts.py": "def dims(k):\n    from .jets import ms_system\n    import dataclasses\n",
        "cli.py": (
            "import argparse\nfrom .errors import JetweylError\n"
            "from jetweyl import jets\nfrom . import frames\n"
            "def _cmd_reduce(args):\n    from . import exprcore\n"
        ),
        # the section core may reach trees lazily, not at module level, and
        # may import a module that uses sympy lazily; cli.py may not
        "sections.py": (
            "from .jets import read\nfrom .geometry import catalog\nfrom . import frames\n"
            "def expr(f):\n    from jetweyl.trees import rescaled_expr\n"
            "if True:\n    from dataclasses import dataclass\n"
        ),
        "frames.py": "def moved(f):\n    import sympy as sp\n",
        "geometry.py": "import sympy as sp\n",
    }
    assert light_path_offences(sources) == [
        "counts.py imports jetweyl.jets",
        "clouds.py imports sympy.core",
        "cli.py imports jetweyl.frames at module level",
        "cli.py imports jetweyl.jets at module level",
        "jets.py imports jetweyl.exprcore at module level",
        "sections.py imports jetweyl.geometry at module level",
        "sections.py imports jetweyl.jets at module level",
        "syntax.py imports dataclasses at module level",
        "sections.py imports dataclasses at module level",
    ]
