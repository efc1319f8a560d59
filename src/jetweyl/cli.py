"""Command-line front end.

Every subcommand prints a JSON document (deterministic for fixed inputs:
keys sorted, no timestamps); ``--pretty`` indents it.  ``verify-all`` runs
the acceptance registry of :mod:`jetweyl.checks` (table, symmetry, lift,
orbit, invariance, commutators, coframe, counting, geometry, equivalence,
mutation) and exits nonzero when any check fails.

Exit codes: 0 ok; 1 a verification or comparison failed; 2 bad usage
(argparse); 3 DSL parse error; 4 domain or math error (singular locus,
invalid solution, pseudogroup data); 5 unexpected internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import sympy as sp

from . import checks, equivalence, geometry, invariants, symmetry
from .dsl import parse_expr, parse_solution
from .errors import JetweylError, ParseError
from .exprcore import formal, to_text
from .jets import dims, ms_system

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
    if isinstance(x, sp.MatrixBase):
        return [[to_text(e) for e in x.row(i)] for i in range(x.rows)]
    if isinstance(x, sp.Basic):
        return to_text(x)
    return str(x)


def _solution_from_text(text: str, args, deferred: bool = False) -> geometry.Solution:
    if text in geometry.CATALOG_IDS:
        kw = {}
        for name in ("f", "h", "w"):
            val = getattr(args, name, None)
            if val is not None:
                kw[name] = parse_expr(val, allow_exp=True)
        return geometry.catalog(text, **kw)
    bindings = parse_solution(text)
    return geometry.Solution(
        bindings["u"], bindings["v"], name="user", deferred=deferred
    )


def _element_from_args(args) -> symmetry.PseudogroupElement:
    kw = {}
    for flag, name in (("D", "d"), ("A", "a"), ("B", "b"), ("C", "c"), ("E", "ee")):
        val = getattr(args, flag, None)
        if val is not None:
            kw[name] = parse_expr(val, allow_exp=False)
    return symmetry.PseudogroupElement.make(**kw)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (document, ok)


def _cmd_dims(args):
    rec = dims(args.k)
    return {
        "k": rec.k,
        "dim_jet_space": rec.dim_jet_space,
        "dim_equation": rec.dim_equation,
        "internal_per_dependent": rec.internal_per_dependent,
    }, True


def _cmd_reduce(args):
    system = ms_system()
    e = parse_expr(args.expr)
    red = system.reduce(e, k=args.order)
    return {"input": to_text(e), "reduced": to_text(red)}, True


def _cmd_verify_table(args):
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
    system = ms_system()
    families = (1, 2, 3, 4, 5) if args.family == "all" else (int(args.family),)
    out = []
    ok = True
    for i in families:
        param = parse_expr(args.parameter) if args.parameter else formal("f")
        field = symmetry.generator(i, param)
        res = symmetry.check_symmetry(field, system)
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
    ok = symmetry.grading_check()
    return {"ok": ok, "weights": symmetry.GRADES}, ok


def _cmd_orbit_dim(args):
    system = ms_system()
    if args.point == "special":
        assign = {"u_x": Fraction(1)}
        if args.k >= 2:
            assign["u_xx"] = Fraction(1)
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


def _cmd_invariants(args):
    doc = {
        "I": {i: to_text(invariants.invariant(i)) for i in (1, 2, 3)},
        "K": {i: to_text(invariants.structure_K(i)) for i in (1, 2, 3, 4)},
        "derivations": {
            i: {
                "t": to_text(invariants.derivation(i).ct),
                "x": to_text(invariants.derivation(i).cx),
                "y": to_text(invariants.derivation(i).cy),
            }
            for i in (1, 2, 3)
        },
    }
    if args.eval:
        system = ms_system()
        e = system.reduce(parse_expr(args.eval))
        assign = {}
        for piece in (args.at or "").split(","):
            piece = piece.strip()
            if piece:
                name, _, val = piece.partition("=")
                assign[name.strip()] = Fraction(val.strip())
        base = {c: assign.pop(c, Fraction(0)) for c in ("t", "x", "y")}
        theta = system.point(3, base=base, internal=assign)
        doc["eval"] = {"expr": args.eval, "value": str(theta.eval(e))}
    return doc, True


def _cmd_verify_invariance(args):
    quantities = {
        "I1": invariants.invariant(1),
        "I2": invariants.invariant(2),
        "I3": invariants.invariant(3),
        "K1": invariants.structure_K(1),
        "K2": invariants.structure_K(2),
        "K3": invariants.structure_K(3),
        "K4": invariants.structure_K(4),
    }
    if args.quantity != "all":
        quantities = {args.quantity: quantities[args.quantity]}
    out = {}
    ok = True
    for name, e in quantities.items():
        res = invariants.verify_invariance(e)
        good = res is True
        ok = ok and good
        out[name] = good
    return {"ok": ok, "invariant": out}, ok


def _cmd_verify_commutators(args):
    reports = invariants.verify_derivation_commutators()
    ok = all(r.ok for r in reports)
    return {
        "ok": ok,
        "relations": [{"pair": r.pair, "expected": r.expected, "ok": r.ok} for r in reports],
    }, ok


def _cmd_verify_identities(args):
    reports = invariants.verify_identities()
    ok = all(r.ok for r in reports)
    return {"ok": ok, "identities": [{"name": r.name, "ok": r.ok} for r in reports]}, ok


def _cmd_coframe(args):
    rep = invariants.coframe_rewrite()
    return {
        "ok": rep.matches,
        "metric": _jsonable(rep.gprime),
        "covector": [to_text(e) for e in rep.omega_prime],
        "conformal_adjustment": rep.adjusted,
        "notes": list(rep.notes),
    }, rep.matches


def _cmd_counts(args):
    out = []
    for k in range(2, args.upto + 1):
        rec = invariants.counting(args.series, k)
        out.append({"k": rec.k, "s": rec.s, "h": rec.h})
    return {
        "series": args.series,
        "poincare": to_text(invariants.poincare_function(args.series)),
        "values": out,
    }, True


def _cmd_check_solution(args):
    sol = _solution_from_text(args.solution, args, deferred=True)
    r1, r2 = sol.residuals()
    solves = sol.solves()
    pts = None
    if args.points:
        cfg = equivalence.SamplerConfig(seed=args.seed, n=args.points)
        stream = cfg.stream()
        pts = []
        for _ in range(100 * args.points):
            if len(pts) >= args.points:
                break
            p = next(stream)
            if sol.in_domain(p):
                pts.append(p)
    rep = geometry.check_EW(sol, pts=pts, tol=args.tol)
    ok = solves and rep.ok
    doc = {
        "solution": sol.name,
        "solves_system": solves,
        "ms_residuals": [to_text(r1), to_text(r2)],
        "ew_exact": rep.exact,
        "ew_residual_max": max((c.residual for c in rep.points), default=0.0),
        "lambda": to_text(rep.lam),
        "lambda_samples": [
            {"point": [str(q) for q in c.point], "value": to_text(c.lam)}
            for c in rep.points
        ],
        "ok": ok,
    }
    return doc, ok


def _cmd_transform(args):
    sol = _solution_from_text(args.solution, args)
    if args.reflect:
        moved = sol.reflect(args.reflect)
    else:
        moved = sol.transform(_element_from_args(args))
    # the moved Solution checked its residuals when it was built
    return {
        "input": str(sol),
        "output": str(moved),
        "still_solution": moved.checked,
    }, True


def _cmd_signature(args):
    sol = _solution_from_text(args.solution, args)
    cfg = equivalence.SamplerConfig(seed=args.seed, n=args.n)
    cloud = equivalence.signature(sol, cfg)
    text = equivalence.cloud_to_json(cloud)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return None, True


def _cmd_compare(args):
    with open(args.a) as fh:
        c1 = equivalence.cloud_from_json(fh.read())
    with open(args.b) as fh:
        c2 = equivalence.cloud_from_json(fh.read())
    rep = equivalence.compare(c1, c2, tol=args.tol)
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


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
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
    p.add_argument("k", type=int)

    p = add("reduce", _cmd_reduce, "reduce a jet expression through the equations")
    p.add_argument("expr")
    p.add_argument("--order", type=int, default=None)

    add("verify-table", _cmd_verify_table, "verify all 25 commutator table cells")

    p = add("check-symmetry", _cmd_check_symmetry, "check a symmetry family on the equations")
    p.add_argument("family", choices=["1", "2", "3", "4", "5", "all"])
    p.add_argument("--parameter", default=None, help="t-function (default: formal f)")

    add("grading", _cmd_grading, "verify the weight grading of the symmetry algebra")

    p = add("orbit-dim", _cmd_orbit_dim, "orbit dimension of the symmetry algebra at order k")
    p.add_argument("k", type=int)
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
    p.add_argument("--upto", type=int, default=6)

    p = add("check-solution", _cmd_check_solution, "equation residuals and Einstein check")
    p.add_argument("solution", help="catalog id or DSL 'u = ...; v = ...'")
    p.add_argument("--points", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
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
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--out", default=None)
    for name in ("f", "h", "w"):
        p.add_argument(f"--{name}", default=None, help=f"catalog parameter {name}")

    p = add("compare", _cmd_compare, "compare two signature cloud JSON files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("verify-all", _cmd_verify_all, "run the named checks of the acceptance registry")
    p.add_argument("--only", default=None, help="run a single suite by name")

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
