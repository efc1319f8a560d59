"""Command-line front end.

Every subcommand prints a JSON document (deterministic for fixed inputs:
keys sorted, no timestamps); ``--pretty`` indents it.  ``verify-all`` runs
the acceptance registry of :mod:`jetweyl.checks` (table, symmetry, lift,
orbit, invariance, commutators, coframe, counting, geometry, equivalence,
mutation) and exits nonzero when any check fails.

Exit codes: 0 ok; 1 a verification or comparison failed; 2 bad usage
(argparse, including a negative order and an unreadable cloud file); 3 DSL
parse error; 4 domain or math error (singular locus, invalid solution,
pseudogroup data); 5 unexpected internal error.

Each handler imports the layers it uses, so ``dims``, ``compare``,
``--help`` and usage errors run without loading sympy.  A handler that
reads DSL text reads all of it with :mod:`jetweyl.syntax` first, before it
loads an algebra layer: a parse error, a bad ``--at`` piece or a jet
coordinate past the order cap exits without loading sympy as well.
``reduce`` and ``invariants`` compute rational text in the jet field
(``jets``), ``check-solution``, ``signature`` and ``transform`` read a
section of the algebraic subset into its field (``sections.read_section``),
and ``transform`` reads its pseudogroup element into the field of t
(``sections.read_element``); other input takes the sympy path, with the
same output and refusals.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import JetweylError, ParseError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4
EXIT_INTERNAL = 5

_EPILOG = """exit codes:
  0  success
  1  a check or comparison reported failure
  2  bad command line
  3  DSL parse error
  4  domain error (singular locus, not a solution, bad pseudogroup data)
  5  internal error
"""


def _emit(doc, args) -> None:
    kwargs = {"sort_keys": True}
    if getattr(args, "pretty", False):
        kwargs["indent"] = 2
    print(json.dumps(doc, **kwargs))


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    import sympy as sp

    from .exprcore import to_text

    if isinstance(x, sp.MatrixBase):
        return [[to_text(e) for e in x.row(i)] for i in range(x.rows)]
    if isinstance(x, sp.Basic):
        return to_text(x)
    return str(x)


def _read_solution(args) -> dict:
    """Read the solution argument with the syntax stage: the trees of a
    catalog id's parameters ``--f``, ``--h``, ``--w`` (which bindings
    ignore) or of the bindings, by name."""
    from . import syntax

    if args.solution in syntax.CATALOG_IDS:
        return {
            name: syntax.parse_expr(val, allow_exp=True)
            for name in ("f", "h", "w")
            if (val := getattr(args, name, None)) is not None
        }
    return {name: tree for name, _, tree in syntax.parse_solution(args.solution)}


def _solution(args, deferred: bool = False):
    """The solution argument: read in the jet field where it lies in the
    algebraic subset (``sections.read_section``), else through sympy."""
    from . import sections

    sol = sections.read_section(args.solution, _read_solution(args), deferred)
    if sol is not None:
        return sol
    from . import geometry
    from .dsl import parse_expr, parse_solution

    if args.solution in geometry.CATALOG_IDS:
        kw = {name: getattr(args, name, None) for name in ("f", "h", "w")}
        kw = {name: parse_expr(val, allow_exp=True) for name, val in kw.items() if val is not None}
        return geometry.catalog(args.solution, **kw)
    bindings = parse_solution(args.solution)
    return geometry.Solution(bindings["u"], bindings["v"], name="user", deferred=deferred)


# the flags of ``transform`` that give a pseudogroup element
_ELEMENT_FLAGS = ("D", "A", "B", "C", "E")


def _element(trees: dict):
    """The pseudogroup element of the syntax trees of the flags, by name
    (``d``, ``a``, ``b``, ``c``, ``ee``): read in the field of t where the
    trees allow (``sections.read_element``), else built from their sympy
    trees by ``symmetry.PseudogroupElement``."""
    from . import sections

    element = sections.read_element(trees)
    if element is not None:
        return element
    from .dsl import from_tree
    from .symmetry import PseudogroupElement

    return PseudogroupElement.make(**{name: from_tree(tree) for name, tree in trees.items()})


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (document, ok)


def _cmd_dims(args):
    from .counts import dims

    rec = dims(args.k)
    return {
        "k": rec.k,
        "dim_jet_space": rec.dim_jet_space,
        "dim_equation": rec.dim_equation,
        "internal_per_dependent": rec.internal_per_dependent,
    }, True


def _cmd_reduce(args):
    from . import syntax

    tree = syntax.parse_expr(args.expr)
    from . import jets

    got = jets.reduced(tree, args.order)
    if got is not None:
        ring, f, red = got
        return {"input": jets.text(ring, f), "reduced": jets.text(ring, red)}, True
    # a fractional power, an exp atom or a zero divisor: the sympy path
    from .dsl import parse_expr
    from .exprcore import to_text

    e = parse_expr(args.expr)
    red = jets.ms_system().reduce(e, k=args.order)
    return {"input": to_text(e), "reduced": to_text(red)}, True


def _cmd_verify_table(args):
    from . import symmetry

    reports = symmetry.verify_commutation_table()
    ok = all(r.ok for r in reports)
    return {
        "ok": ok,
        "cells": [
            {
                "i": r.i,
                "j": r.j,
                "expected": symmetry.table_cell_text(r.i, r.j),
                "ok": r.ok,
            }
            for r in reports
        ],
    }, ok


def _cmd_check_symmetry(args):
    from . import syntax

    if args.parameter:
        syntax.parse_expr(args.parameter)
    from . import symmetry
    from .dsl import parse_expr
    from .exprcore import formal, to_text

    families = (1, 2, 3, 4, 5) if args.family == "all" else (int(args.family),)
    param = parse_expr(args.parameter) if args.parameter else formal("f")
    out = []
    ok = True
    for i in families:
        field = symmetry.generator(i, param)
        res = symmetry.check_symmetry(field)
        good = res is True
        ok = ok and good
        out.append(
            {
                "family": i,
                "parameter": to_text(param),
                "ok": good,
                "residuals": None if good else [to_text(r) for r in res],
            }
        )
    return {"ok": ok, "checks": out}, ok


def _cmd_grading(args):
    from . import symmetry

    ok = symmetry.grading_check()
    return {"ok": ok, "weights": symmetry.GRADES}, ok


def _cmd_orbit_dim(args):
    from . import symmetry
    from .jets import ms_system

    system = ms_system()
    if args.point == "special":
        # u_x = u_xx = 1, as far as the order reaches
        assign = {name: Fraction(1) for name in ("u_x", "u_xx")[: args.k]}
        theta = system.point(args.k, internal=assign)
    else:
        import random

        from .exprcore import jet
        from .jets import internal_indices

        rng = random.Random(args.seed)
        internal = {
            jet(dep, idx): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for dep in ("u", "v")
            for idx in internal_indices(args.k)
        }
        theta = system.point(args.k, internal=internal)
    dim = symmetry.orbit_dimension(args.k, theta)
    expected = symmetry.orbit_expected_dimension(args.k)
    return {
        "k": args.k,
        "point": args.point,
        "dimension": dim,
        "expected": expected,
        "ok": dim == expected,
    }, dim == expected


def _point_assignment(text: str) -> dict:
    """The ``name=rational`` pieces of ``invariants --at``; a name is t, x,
    y or an internal jet coordinate, named at most once."""
    from .syntax import jet_parts

    assign = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, _, val = (part.strip() for part in piece.partition("="))
        try:
            value = Fraction(val)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"--at {piece!r}: {val!r} is not a rational number") from None
        if name not in ("t", "x", "y"):
            try:
                parts = jet_parts(name)
            except JetweylError:
                parts = None
            if parts is None or not parts[1].is_internal:
                raise ParseError(
                    f"--at {piece!r}: {name!r} is not t, x, y or an internal jet coordinate"
                )
        if name in assign:
            raise ParseError(f"--at {piece!r}: {name!r} is named twice")
        assign[name] = value
    return assign


def _cmd_invariants(args):
    from . import syntax

    if args.eval is not None:
        tree = syntax.parse_expr(args.eval)
        assign = _point_assignment(args.at or "")
    from . import jets

    evaluated = None
    if args.eval is not None:
        # bad input fails before the table is built
        base = {c: assign.pop(c, Fraction(0)) for c in ("t", "x", "y")}
        # order 3 holds the invariants; a higher coordinate named in --at
        # raises it
        order = max([3, *(syntax.jet_parts(name)[1].order for name in assign)])
        got = jets.reduced(tree)
        if got is not None:
            ring, _, red = got
            value = jets.JetPoint(order, base=base, internal=assign).value_of(ring, red)
        else:
            # a fractional power, an exp atom or a zero divisor: the sympy path
            from .dsl import parse_expr

            system = jets.ms_system()
            e = system.reduce(parse_expr(args.eval))
            value = system.point(order, base=base, internal=assign).eval(e)
        evaluated = {"expr": args.eval, "value": jets._number_text(value)}
    table = jets._order3()

    def texts(elements) -> list[str]:
        return [jets.text(table.ring, f) for f in elements]

    doc = {
        "I": dict(enumerate(texts(table.I), 1)),
        "K": dict(enumerate(texts(table.K), 1)),
        "derivations": {
            i: dict(zip("txy", texts(row))) for i, row in enumerate(table.nabla, 1)
        },
    }
    if evaluated is not None:
        doc["eval"] = evaluated
    return doc, True


def _cmd_verify_invariance(args):
    from . import invariants

    table = invariants._order3()
    names = ("I1", "I2", "I3", "K1", "K2", "K3", "K4")
    quantities = dict(zip(names, (*table.I, *table.K)))
    if args.quantity != "all":
        quantities = {args.quantity: quantities[args.quantity]}
    out = {}
    ok = True
    for name, f in quantities.items():
        res = invariants._table_invariance(f)
        good = res is True
        ok = ok and good
        out[name] = good
    return {"ok": ok, "invariant": out}, ok


def _cmd_verify_commutators(args):
    from . import invariants

    reports = invariants.verify_derivation_commutators()
    ok = all(r.ok for r in reports)
    return {
        "ok": ok,
        "relations": [{"pair": r.pair, "expected": r.expected, "ok": r.ok} for r in reports],
    }, ok


def _cmd_verify_identities(args):
    from . import invariants

    reports = invariants.verify_identities()
    ok = all(r.ok for r in reports)
    return {"ok": ok, "identities": [{"name": r.name, "ok": r.ok} for r in reports]}, ok


def _cmd_coframe(args):
    from . import invariants
    from .exprcore import to_text

    rep = invariants.coframe_rewrite()
    return {
        "ok": rep.matches,
        "metric": _jsonable(rep.gprime),
        "covector": [to_text(e) for e in rep.omega_prime],
        "conformal_adjustment": rep.adjusted,
        "notes": list(rep.notes),
    }, rep.matches


def _cmd_counts(args):
    from .counts import counting, poincare_text

    out = []
    for k in range(2, args.upto + 1):
        rec = counting(args.series, k)
        out.append({"k": rec.k, "s": rec.s, "h": rec.h})
    return {
        "series": args.series,
        "poincare": poincare_text(args.series),
        "values": out,
    }, True


def _cmd_check_solution(args):
    sol = _solution(args, deferred=True)
    from . import sections

    solves = sol.solves()
    pts = []
    if args.points:
        cfg = sections.SamplerConfig(seed=args.seed, n=args.points)
        pts = [p for p, _ in cfg.admissible(sol)]
    rep = sections.check_EW(sol, pts=pts)
    ok = solves and rep.ok
    doc = {
        "solution": sol.name,
        "solves_system": solves,
        "ms_residuals": [sections.text(sol.field, r) for r in sol._residuals()],
        "ew_exact": rep.exact,
        "ew_residual_max": max((c.residual for c in rep.points), default=0.0),
        "lambda": sections.text(rep.scaled, rep.lam_element),
        "lambda_samples": [
            {"point": [str(q) for q in c.point], "value": sections.text(c.scaled, c.lam_element)}
            for c in rep.points
        ],
        "ok": ok,
    }
    return doc, ok


def _cmd_transform(args):
    from . import syntax

    _read_solution(args)
    trees = {
        name: syntax.parse_expr(getattr(args, flag))
        for flag, name in zip(_ELEMENT_FLAGS, ("d", "a", "b", "c", "ee"))
        if getattr(args, flag) is not None
    }
    sol = _solution(args)
    if args.reflect:
        moved = sol.reflect(args.reflect)
    else:
        moved = sol.transform(_element(trees))
    # the moved Solution checked its residuals when it was built
    return {
        "input": str(sol),
        "output": str(moved),
        "still_solution": moved.checked,
    }, True


def _cmd_signature(args):
    sol = _solution(args)
    from . import sections
    from .clouds import cloud_to_json

    cfg = sections.SamplerConfig(seed=args.seed, n=args.n)
    cloud = sections.signature(sol, cfg)
    text = cloud_to_json(cloud)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return None, True


def _cmd_compare(args):
    from .clouds import cloud_from_json, compare

    rep = compare(cloud_from_json(args.a), cloud_from_json(args.b), tol=args.tol)
    return {
        "verdict": rep.verdict,
        "hausdorff": rep.hausdorff,
        "scale": rep.scale,
        "tol": rep.tol,
        "notes": list(rep.notes),
    }, rep.verdict != "distinct"


# ---------------------------------------------------------------------------
# verify-all


def _cmd_verify_all(args):
    from . import checks

    if args.only and args.only not in checks.REGISTRY:
        raise JetweylError(f"unknown suite {args.only!r}; known: {list(checks.REGISTRY)}")
    names = [args.only] if args.only else list(checks.REGISTRY)
    results = {}
    ok = True
    for name in names:
        good, info = checks.REGISTRY[name].run()
        ok = ok and good
        results[name] = {"ok": good, **_jsonable(info)}
    return {"ok": ok, "suites": results}, ok


# ---------------------------------------------------------------------------
# argument parsing


def _order(text: str) -> int:
    """A jet order or a number of check points: a non-negative integer."""
    try:
        k = int(text)
    except ValueError:
        k = -1
    if k < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return k


def _count(text: str) -> int:
    """A number of signature points: a positive integer."""
    try:
        k = int(text)
    except ValueError:
        k = 0
    if k < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return k


def _file_text(path: str) -> str:
    """The contents of a file, read when the command line is parsed."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path!r}: {exc.strerror}") from None


# the options whose value is DSL text
_DSL_OPTIONS = {"--parameter", "--eval", *(f"--{n}" for n in (*_ELEMENT_FLAGS, "f", "h", "w"))}


class _Parser(argparse.ArgumentParser):
    """Reads a separate value of a DSL-valued option that begins with "-"
    (``--B -1/3``) as its ``=`` form, unless the value is itself an option
    of the command; ``--`` ends the options as usual."""

    def parse_known_args(self, args=None, namespace=None):
        if args is not None:
            args, joined = list(args), []
            while args and args[0] != "--":
                a = args.pop(0)
                if "=" not in a and args and args[0][:1] == "-":
                    if self._named(a) & _DSL_OPTIONS and not self._named(args[0]):
                        a = f"{a}={args.pop(0)}"
                joined.append(a)
            args = joined + args
        return super().parse_known_args(args, namespace)

    def _named(self, text: str) -> set:
        """The option strings that ``text``, up to any "=", names or
        abbreviates."""
        name = text.split("=", 1)[0]
        return {
            s for s in self._option_string_actions
            if s == name or name[:2] == "--" and s.startswith(name)
        }


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="jetweyl",
        description="Exact jet-calculus toolkit for a dispersionless "
        "integrable system and its Weyl geometry.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        return p

    p = add("dims", _cmd_dims, "jet-space and equation dimensions at order k")
    p.add_argument("k", type=_order)

    p = add("reduce", _cmd_reduce, "reduce a jet expression through the equations")
    p.add_argument("expr")
    p.add_argument("--order", type=_order, default=None)

    add("verify-table", _cmd_verify_table, "verify all 25 commutator table cells")

    p = add("check-symmetry", _cmd_check_symmetry, "check a symmetry family on the equations")
    p.add_argument("family", choices=["1", "2", "3", "4", "5", "all"])
    p.add_argument("--parameter", default=None, help="t-function (default: formal f)")

    add("grading", _cmd_grading, "verify the weight grading of the symmetry algebra")

    p = add("orbit-dim", _cmd_orbit_dim, "orbit dimension of the symmetry algebra at order k")
    p.add_argument("k", type=_order)
    p.add_argument("--point", choices=["special", "random"], default="special")
    p.add_argument("--seed", type=int, default=0)

    p = add("invariants", _cmd_invariants, "print the basic invariants and derivations")
    p.add_argument("--eval", default=None, help="jet expression to evaluate")
    p.add_argument("--at", default=None, help="comma list name=rational for the point")

    p = add("verify-invariance", _cmd_verify_invariance, "Lie-derivative residuals of the invariants")
    p.add_argument("--quantity", default="all",
                   choices=["all", "I1", "I2", "I3", "K1", "K2", "K3", "K4"])

    add("verify-commutators", _cmd_verify_commutators, "derivation commutator relations")
    add("verify-identities", _cmd_verify_identities, "invariant identities")
    add("coframe", _cmd_coframe, "invariant coframe rewrite of the metric pair")

    p = add("counts", _cmd_counts, "invariant counting and Poincare series")
    p.add_argument("series", choices=["ms", "weyl", "ew-general"])
    p.add_argument("--upto", type=_order, default=6)

    p = add("check-solution", _cmd_check_solution, "equation residuals and Einstein check")
    p.add_argument("solution", help="catalog id or DSL 'u = ...; v = ...'")
    p.add_argument("--points", type=_order, default=0)
    p.add_argument("--seed", type=int, default=0)
    for name in ("f", "h", "w"):
        p.add_argument(f"--{name}", default=None, help=f"catalog parameter {name}")

    p = add("transform", _cmd_transform, "move a solution by a pseudogroup element")
    p.add_argument("solution")
    p.add_argument("--reflect", choices=["txy", "yu"], default=None)
    for flag, hint in (
        ("D", "affine time map α·t + β, α > 0"),
        ("A", "x-shift A(t)"),
        ("B", "y-shift B(t)"),
        ("C", "shear C(t)"),
        ("E", "scale E(t), nonvanishing"),
    ):
        p.add_argument(f"--{flag}", default=None, help=hint)
    for name in ("f", "h", "w"):
        p.add_argument(f"--{name}", default=None, help=f"catalog parameter {name}")

    p = add("signature", _cmd_signature, "sample the 12-invariant signature cloud")
    p.add_argument("solution")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=_count, default=64)
    p.add_argument("--out", default=None)
    for name in ("f", "h", "w"):
        p.add_argument(f"--{name}", default=None, help=f"catalog parameter {name}")

    p = add("compare", _cmd_compare, "compare two signature cloud JSON files")
    p.add_argument("a", type=_file_text)
    p.add_argument("b", type=_file_text)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="Hausdorff tolerance, relative to 1 + scale; applies only "
                   "to float64 clouds (exact clouds are compared exactly)")

    p = add("verify-all", _cmd_verify_all, "run the named checks of the acceptance registry")
    p.add_argument("--only", default=None, help="run a single suite by name")

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "transform" and args.reflect:
        given = [f"--{flag}" for flag in _ELEMENT_FLAGS if getattr(args, flag) is not None]
        if given:
            parser.error(f"transform: --reflect cannot be combined with {', '.join(given)}")
    if args.command == "invariants" and args.at is not None and args.eval is None:
        # --at names the point of --eval; alone it would be ignored
        parser.error("invariants: --at needs --eval")
    try:
        doc, ok = args.handler(args)
    except ParseError as exc:
        print(json.dumps({"error": "parse", "message": str(exc)}, sort_keys=True))
        return EXIT_PARSE
    except JetweylError as exc:
        print(json.dumps({"error": "domain", "message": str(exc)}, sort_keys=True))
        return EXIT_DOMAIN
    except Exception as exc:  # pragma: no cover
        print(
            json.dumps(
                {"error": "internal", "message": f"{type(exc).__name__}: {exc}"},
                sort_keys=True,
            )
        )
        return EXIT_INTERNAL
    if doc is not None:
        _emit(doc, args)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
