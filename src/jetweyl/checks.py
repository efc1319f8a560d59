"""The named checks that certify the package's results.

:data:`REGISTRY` maps each check's name to a :class:`Check`, in the order
of the acceptance criteria: the check at position NN (from 01) is
criterion NN.  A check takes no arguments and returns ``(ok, info)``: the
verdict and a small dict of what it found.  Every input is fixed or
seeded, so verdicts and info are the same on every run.  ``jetweyl
verify-all`` runs the registry, and ``tests/test_acceptance.py`` runs each
check as its criterion.  Nothing runs at import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import sympy as sp

from . import clouds, counts, equivalence, geometry, invariants, symmetry
from .errors import SingularLocusError
from .exprcore import T, equal, formal, jet, to_text
from .jets import internal_indices, ms_system

__all__ = ["Check", "REGISTRY"]


@dataclass(frozen=True)
class Check:
    name: str
    label: str
    run: Callable[[], tuple[bool, dict]]


def _table():
    reports = symmetry.verify_commutation_table()
    return len(reports) == 25 and all(r.ok for r in reports), {"cells": len(reports)}


def _symmetry():
    families = all(
        symmetry.check_symmetry(symmetry.generator(i, formal("f"))) is True
        for i in range(1, 6)
    )
    grading = symmetry.grading_check()
    return families and grading, {"families": 5, "grading": grading}


def _lift():
    ok = True
    for family, name in enumerate("abcde", start=1):
        lifted = symmetry.lift_shape_field(symmetry.ShapeField(**{name: formal(name)}))
        ok = ok and lifted.field == symmetry.generator(family, formal(name))
    # the conformal factor is 2*(e + d') for a = b = c = 0 and in general
    expected = 2 * (formal("e") + formal("d", 1))
    for shape in (
        symmetry.ShapeField(d=2 * formal("d"), e=formal("e")),
        symmetry.ShapeField(
            a=formal("a"), b=formal("b"), c=formal("c"), d=2 * formal("d"), e=formal("e")
        ),
    ):
        chi = symmetry.lift_shape_field(shape).conformal
        ok = ok and equal(chi, expected)
    return ok, {"chi": to_text(chi)}


_GENERIC_K1 = {
    "u": Fraction(1, 2),
    "v": Fraction(-2, 3),
    "u_t": Fraction(1, 4),
    "u_x": Fraction(3, 2),
    "u_y": Fraction(-1, 3),
    "v_t": Fraction(-1, 5),
    "v_x": Fraction(2, 5),
    "v_y": Fraction(1, 7),
}
_SPECIAL = {"u_x": Fraction(1), "u_xx": Fraction(1)}


def _orbit():
    """11 at a generic 1-jet, then 5k + 8 for k = 2..4 at u_x = u_xx = 1."""
    system = ms_system()
    ok = True
    dims = {}
    for k in range(1, 5):
        theta = system.point(k, internal=_GENERIC_K1 if k == 1 else _SPECIAL)
        dims[k] = symmetry.orbit_dimension(k, theta)
        expected = 11 if k == 1 else 5 * k + 8
        ok = ok and dims[k] == expected == symmetry.orbit_expected_dimension(k)
    return ok, {"dimensions": dims}


def _invariance():
    """The sixteen basic quantities of the order-3 table (I1-I3, K1-K4
    and the nine nabla_j I_i) are invariant, and the twelve signature
    invariants have rank 12 at a seeded order-3 point."""
    system = ms_system()
    table = invariants._order3()
    quantities = (*table.I, *table.K, *table.twelve[3:])
    ok = all(invariants._table_invariance(q) is True for q in quantities)
    rng = random.Random(20260822)
    internal = {
        jet(dep, ix): Fraction(rng.randint(1, 9), rng.randint(1, 7))
        for dep in ("u", "v")
        for ix in internal_indices(3)
    }
    r = invariants.independence_rank(system.point(3, internal=internal))
    return ok and r == 12, {"independence_rank": r}


def _commutators():
    relations = invariants.verify_derivation_commutators()
    identities = invariants.verify_identities()
    ok = len(relations) == 3 and all(r.ok for r in relations)
    ok = ok and len(identities) == 2 and all(r.ok for r in identities)
    return ok, {"relations": len(relations), "identities": len(identities)}


def _coframe():
    """Every G' entry, the covector and the determinant -u_x^3, decided
    in the jet ring by ``coframe_rewrite``."""
    rep = invariants.coframe_rewrite()
    return rep.matches, {"conformal_adjustment": rep.adjusted}


_SERIES = ("ms", "weyl", "ew-general")


def _counting():
    """Closed forms of s_k and h_k, and the Poincare coefficients against
    the counts through order 8."""
    ok = True
    for k in range(2, 7):
        rec = counts.counting("ms", k)
        ok = ok and rec.s == 2 * k**2 - k - 3
        ok = ok and rec.h == (3 if k == 2 else 4 * k - 3)
    ok = ok and counts.counting("weyl", 2).h == 13
    ok = ok and counts.counting("ew-general", 2).h == 8
    for k in range(3, 7):
        ok = ok and counts.counting("weyl", k).h == (5 * k**2 + 7 * k - 6) // 2
        ok = ok and counts.counting("ew-general", k).h == 3 * (2 * k - 1)
    for series in _SERIES:
        coeffs = counts.poincare_coefficients(series, 8)
        ok = ok and all(coeffs[k] == counts.counting(series, k).h for k in range(2, 9))
    return ok, {"series": list(_SERIES)}


def _residual_witness(cid: str, conn) -> dict | None:
    """The first nonzero entry of the anchor, then the Einstein residual of
    the connection, with where it is.  Entries are tested in the field; only
    the one reported is converted, to text."""
    sf = conn.pair.field
    _, einstein = conn.einstein_elements()
    for quantity, rows in (("anchor", conn.anchor_elements()), ("einstein", einstein)):
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if not sf.vanishes(e):
                    return {
                        "family": cid,
                        "quantity": quantity,
                        "entry": [i, j],
                        "residual": to_text(sf.expr(e)),
                    }
    return None


def _geometry():
    """Every catalog entry with formal parameters, and exp-family with
    f = h = 1: metric compatibility (checked by ``weyl_connection``), the
    curvature anchor and the exact Einstein property; then the sl2
    invariants and structure constants, and the dKP and hierarchy
    reductions of the system.  The first nonzero residual component stops
    the check, as ``info["witness"]``; a failed reduction is named in
    ``info["reductions_failed"]``."""
    ok = True
    lams = {}
    cases = [(cid, {}) for cid in geometry.CATALOG_IDS] + [("exp-family", {"f": 1, "h": 1})]
    for cid, kwargs in cases:
        sol = geometry.catalog(cid, **kwargs)
        witness = _residual_witness(cid, geometry.weyl_connection(geometry.build_pair(sol)))
        if witness:
            return False, {"lambda": lams, "witness": witness}
        rep = geometry.check_EW(sol)
        ok = ok and rep.exact and rep.ok
        if not kwargs:
            lams[cid] = to_text(rep.lam)
    constants = geometry.invariants_on_solution(geometry.catalog("sl2-family"))
    ok = ok and constants == (
        sp.Rational(-3, 25),
        sp.Rational(21, 100),
        sp.Rational(-147, 500),
    )
    # the four structure constants live on the u_xx = 0 stratum where their
    # defining quotients degenerate; record consistency of the cleared forms
    srep = geometry.sl2_structure_report(geometry.catalog("sl2-family"))
    ok = ok and all(e["numerator_vanishes"] for e in srep["entries"])
    info = {"lambda": lams, "k_indeterminate": srep["indeterminate"]}
    failed = [
        name
        for name, reduction in (
            ("dkp", geometry.dkp_reduction_check),
            ("hierarchy", geometry.hierarchy_reduction_check),
        )
        if not reduction()
    ]
    if failed:
        info["reductions_failed"] = failed
    return ok and not failed, info


def _poly(rng):
    return rng.randint(-2, 2) * T + Fraction(rng.randint(-2, 2))


def _random_elements(rng, kind: str, count: int = 10) -> list:
    """Pseudogroup elements that keep a family's signature computable:
    ``cube`` rescales by a cube, ``noshift`` has no y-shift, ``free`` is
    unrestricted."""
    out = []
    while len(out) < count:
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if kind == "cube":
            lam = rng.choice((1, 8, 27))
            el = symmetry.PseudogroupElement.make(
                d=T + q, a=_poly(rng), b=0, c=_poly(rng), ee=lam
            )
        elif kind == "noshift":
            m = rng.choice((1, 2, 3))
            el = symmetry.PseudogroupElement.make(
                d=m * m * T + q, a=_poly(rng), b=0, c=_poly(rng), ee=Fraction(rng.randint(1, 4))
            )
        else:
            m = rng.choice((1, 2, 3))
            el = symmetry.PseudogroupElement.make(
                d=m * m * T + q,
                a=_poly(rng),
                b=_poly(rng),
                c=_poly(rng),
                ee=Fraction(rng.randint(1, 4)),
            )
        out.append(el)
    return out


def _equivalence():
    """Signatures survive ten seeded pseudogroup moves per catalog entry
    (a singular branch stays singular); sl2 and exp are distinct, sl2 is
    equivalent to itself, and trivial reports its singular branch."""
    rng = random.Random(31415)
    ok = True
    setups = {
        "trivial": ({}, "free"),
        "dkp-partial": ({"h": 0}, "free"),
        "hierarchy": ({}, "free"),
        "exp-family": ({"f": 1, "h": 1}, "noshift"),
        "sl2-family": ({"f": 0, "h": 0}, "cube"),
        "sl2-degenerate": ({"f": 0, "h": 0}, "cube"),
    }
    for cid, (kwargs, kind) in setups.items():
        sol = geometry.catalog(cid, **kwargs)
        try:
            base = equivalence.signature(sol)
        except SingularLocusError:
            base = None
        for el in _random_elements(rng, kind):
            moved = sol.transform(el)
            if base is None:
                try:
                    equivalence.signature(moved)
                    ok = False  # the singular branch must survive the action
                except SingularLocusError:
                    pass
                continue
            ok = ok and equivalence.signature(moved).values == base.values
    c_sl2 = equivalence.signature(geometry.catalog("sl2-family", f=0, h=0))
    c_exp = equivalence.signature(geometry.catalog("exp-family", f=1, h=1))
    verdict = clouds.compare(c_sl2, c_exp).verdict
    ok = ok and verdict == "distinct"
    ok = ok and clouds.compare(c_sl2, c_sl2).verdict == "equivalent-evidence"
    try:
        equivalence.signature(geometry.catalog("trivial"))
        ok, branch = False, "missed"
    except SingularLocusError as err:
        ok = ok and "u_x = 0 identically" in str(err)
        branch = "singular-branch-reported"
    return ok, {"sl2_vs_exp": verdict, "trivial": branch}


def _mutation():
    """Under the flipped connection sign both the Einstein check and the
    curvature anchor must fail: the geometry checks can say no."""
    rejected = []
    for cid, kwargs in (
        ("exp-family", {"f": 1, "h": 1}),
        ("hierarchy", {}),
        ("sl2-family", {"f": 0, "h": 0}),
    ):
        sol = geometry.catalog(cid, **kwargs)
        ew = geometry.check_EW(sol, correction_sign=+1).ok
        conn = geometry.weyl_connection(geometry.build_pair(sol), correction_sign=+1)
        anchor = all(conn.pair.field.vanishes(e) for row in conn.anchor_elements() for e in row)
        if not ew and not anchor:
            rejected.append(cid)
    return len(rejected) == 3, {"rejected": rejected}


REGISTRY: dict[str, Check] = {
    c.name: c
    for c in (
        Check("table", "commutator table", _table),
        Check("symmetry", "symmetry families and grading", _symmetry),
        Check("lift", "shape-preserving lift", _lift),
        Check("orbit", "orbit dimensions", _orbit),
        Check("invariance", "invariance and rank 12", _invariance),
        Check("commutators", "derivation commutators and identities", _commutators),
        Check("coframe", "invariant coframe", _coframe),
        Check("counting", "invariant counting", _counting),
        Check("geometry", "catalog geometry", _geometry),
        Check("equivalence", "signature equivalence", _equivalence),
        Check("mutation", "mutation sanity", _mutation),
    )
}
