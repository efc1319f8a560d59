"""The four batches of verdicts, built from a workload seed.

A verdict is one public call into the program that returns a decision.
Each ``Verdict`` carries the call (``run``) and the benchmark's own check
of its outcome (``check``), which uses ``oracles`` or a property the
mathematics guarantees.  The seed picks values (rational points, element
coefficients, parameters), never the structure of a batch: every seed
gives the same calls in the same order, so the work per pass is the same
and only the numbers differ.

The seed is turned into plain data (``Fraction``s, coefficient tuples,
command-line strings) when a batch is built; the program sees only that
data.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracles

# modules each workload imports while it sets up, besides building the
# shared equation system
SETUP_MODULES = {
    "proofs": ("jetweyl.jets", "jetweyl.symmetry", "jetweyl.invariants"),
    "orbits": ("jetweyl.jets", "jetweyl.symmetry", "jetweyl.invariants",
               "jetweyl.equivalence"),
    "sections": ("jetweyl.jets", "jetweyl.symmetry", "jetweyl.geometry",
                 "jetweyl.equivalence"),
}


@dataclass
class Verdict:
    name: str
    run: Callable[[], Any]
    # check(result, error) -> True when the outcome is right
    check: Callable[[Any, BaseException | None], bool]
    # a known program fault: an outcome that fails this check counts as a
    # failed verdict, not as a wrong answer
    known_fault: str = ""


def _nonzero_rational(rng: random.Random, top: int = 9, den: int = 7) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, den))


def _positive_rational(rng: random.Random, top: int = 9, den: int = 7) -> Fraction:
    return Fraction(rng.randint(1, top), rng.randint(1, den))


def _expect_true(result, error) -> bool:
    return error is None and result is True


def _raises(error_class):
    def check(result, error) -> bool:
        return isinstance(error, error_class)

    return check


# ---------------------------------------------------------------------------
# proofs: symbolic verdicts of the invariant theory


def proofs(seed: int) -> list[Verdict]:
    from jetweyl import exprcore as ec
    from jetweyl import invariants as inv
    from jetweyl import symmetry as sym
    from jetweyl.jets import ms_system

    rng = random.Random(seed)
    q1, q2, q3 = (_nonzero_rational(rng) for _ in range(3))
    witness_rng = random.Random(seed + 1)
    system = ms_system()
    out: list[Verdict] = []

    def invariance(name, make):
        out.append(Verdict(
            f"invariance:{name}",
            lambda: inv.verify_invariance(make(), system=system),
            _expect_true,
        ))

    for i in (1, 2, 3):
        invariance(f"I{i}", lambda i=i: inv.invariant(i))
    for i in (1, 2, 3, 4):
        invariance(f"K{i}", lambda i=i: inv.structure_K(i))
    # one row of the nine nabla_j I_i: every derivation, nabla_3 included
    for j in (1, 2, 3):
        invariance(
            f"nabla{j}I1",
            lambda j=j: inv.apply_derivation(j, inv.invariant(1), system),
        )
    # any rational function of invariants is invariant
    invariance("q1*I1+q2*I2", lambda: q1 * inv.invariant(1) + q2 * inv.invariant(2))

    def rejected_with_witness(result, error) -> bool:
        if error is not None or result is True:
            return False
        family, residual = result
        return family in (1, 2, 3, 4, 5) and oracles.nonzero_somewhere(residual, witness_rng)

    for name, make in (
        ("u_x", lambda: ec.jet("u", "x")),
        ("I2+q3*u_xx", lambda: inv.invariant(2) + q3 * ec.jet("u", "xx")),
    ):
        out.append(Verdict(
            f"non-invariance:{name}",
            lambda make=make: inv.verify_invariance(make(), system=system),
            rejected_with_witness,
        ))

    def all_ok(count):
        def check(result, error) -> bool:
            return error is None and len(result) == count and all(r.ok for r in result)

        return check

    out.append(Verdict("derivation-commutators", inv.verify_derivation_commutators, all_ok(3)))
    out.append(Verdict("identities", inv.verify_identities, all_ok(2)))
    out.append(Verdict(
        "coframe", inv.coframe_rewrite,
        lambda r, e: e is None and r.matches and r.adjusted,
    ))
    # grading_check verifies all 25 cells of the commutator table before it
    # checks the weights, so it stands for the table verdict as well
    for fam in (1, 2, 3, 4, 5):
        out.append(Verdict(
            f"symmetry:X{fam}",
            lambda fam=fam: sym.check_symmetry(sym.generator(fam, ec.formal("f")), system),
            _expect_true,
        ))
    out.append(Verdict("grading", sym.grading_check, _expect_true))

    def shape_lift():
        names = {1: "a", 2: "b", 3: "c", 4: "d", 5: "e"}
        ok = all(
            sym.lift_shape_field(sym.ShapeField(**{n: ec.formal(n)})).field
            == sym.generator(fam, ec.formal(n))
            for fam, n in names.items()
        )
        chi = sym.lift_shape_field(sym.ShapeField(d=2 * ec.formal("d"), e=ec.formal("e"))).conformal
        return ok and ec.equal(chi, 2 * (ec.formal("e") + ec.formal("d", 1)))

    out.append(Verdict("shape-lift", shape_lift, _expect_true))
    return out


# ---------------------------------------------------------------------------
# orbits: exact rank verdicts at seeded on-equation points


def _internal_word_values(rng: random.Random, k: int) -> dict[str, Fraction]:
    """Seeded nonzero rationals for every internal coordinate of order <= k
    of u and v (internal: no t together with x).  Nonzero u_x and u_xx keep
    the point off the singular strata."""
    words = []
    for m in range(k + 1):
        for a in range(m + 1):
            for b in range(m + 1 - a):
                c = m - a - b
                if a and b:
                    continue
                words.append("t" * a + "x" * b + "y" * c)
    words.sort(key=lambda w: (len(w), w.count("t"), w.count("x")))
    out = {}
    for dep in ("u", "v"):
        for w in words:
            out[f"{dep}_{w}" if w else dep] = _nonzero_rational(rng)
    return out


def _base(rng: random.Random) -> dict[str, Fraction]:
    return {c: _nonzero_rational(rng, 3, 3) for c in ("t", "x", "y")}


def _jet_values(internal: dict[str, Fraction]) -> dict[str, Fraction]:
    return {
        "ux": internal["u_x"], "uxx": internal["u_xx"], "uxy": internal["u_xy"],
        "uyy": internal["u_yy"], "vx": internal["v_x"], "vxx": internal["v_xx"],
        "vxy": internal["v_xy"],
    }


# k = 3 (the k = 4 computation at a smaller size) and the Jacobian rank of
# the twelve invariants are left out to keep a run short
ORBIT_ORDERS = (1, 2, 4)
# points of each of the two jet clouds
CLOUD_POINTS = 2


def orbits(seed: int) -> list[Verdict]:
    from jetweyl import equivalence as eq
    from jetweyl import symmetry as sym
    from jetweyl.jets import ms_system

    rng = random.Random(seed)
    system = ms_system()
    out: list[Verdict] = []
    for k in ORBIT_ORDERS:
        data = (_base(rng), _internal_word_values(rng, k))
        out.append(Verdict(
            f"orbit-dimension:k={k}",
            lambda k=k, data=data: sym.orbit_dimension(
                k, system.point(k, base=data[0], internal=data[1])
            ),
            lambda r, e, k=k: e is None and r == oracles.ORBIT_DIMENSIONS[k],
        ))

    clouds, expected = {}, {}
    for label in ("A", "B"):
        data = [(_base(rng), _internal_word_values(rng, 3)) for _ in range(CLOUD_POINTS)]
        expect = [oracles.invariants_at(_jet_values(internal)) for _, internal in data]

        def make(data=data, label=label):
            cloud = eq.jet_cloud(
                [system.point(3, base=b, internal=i) for b, i in data]
            )
            clouds[label] = cloud
            return cloud

        def check(cloud, error, expect=expect, data=data) -> bool:
            return (
                error is None
                and cloud.precision == "exact"
                and len(cloud.values) == len(expect)
                and all(tuple(row[:3]) == want for row, want in zip(cloud.values, expect))
                and all(
                    tuple(p) == (b["t"], b["x"], b["y"])
                    for p, (b, _) in zip(cloud.points, data)
                )
            )

        out.append(Verdict(f"jet-cloud:{label}", make, check))
        expected[label] = expect

    def permuted():
        a = clouds["A"]
        turned = dataclasses.replace(
            a, points=tuple(reversed(a.points)), values=tuple(reversed(a.values))
        )
        return eq.compare(a, turned)

    out.append(Verdict(
        "compare:A~reversed(A)", permuted,
        lambda r, e: e is None and r.verdict == "equivalent-evidence" and r.hausdorff == 0.0,
    ))

    def distinct_check(r, e) -> bool:
        if e is not None:
            return False
        h3 = oracles.hausdorff(expected["A"], expected["B"])
        # the 12-slot max-norm distance is at least the distance in I1..I3
        return r.verdict == "distinct" and h3 > 0 and r.hausdorff >= float(h3) * (1 - 1e-12)

    out.append(Verdict(
        "compare:A-vs-B", lambda: eq.compare(clouds["A"], clouds["B"]), distinct_check,
    ))
    return out


# ---------------------------------------------------------------------------
# sections: catalog geometry, the pseudogroup action and equivalence


# catalog parameters and the element kind of each family, as in the
# acceptance battery, except that hierarchy gets no y-shift (a shifted
# hierarchy section is a large polynomial; the shift is exercised on the
# trivial and dkp-partial families)
SECTION_SETUPS = (
    ("trivial", {}, "free"),
    ("dkp-partial", {"h": 0}, "free"),
    ("hierarchy", {}, "noshift"),
    ("exp-family", {"f": 1, "h": 1}, "noshift"),
    ("sl2-family", {"f": 0, "h": 0}, "cube"),
    ("sl2-degenerate", {"f": 0, "h": 0}, "cube"),
)
# exact check_EW on four catalog sections; exp-family and sl2-degenerate
# are left out to keep a run short (both still pass through the moved
# section, reflection and signature verdicts)
EINSTEIN_IDS = ("trivial", "dkp-partial", "hierarchy", "sl2-family")
# the skew anchor is left out where it costs as much again as check_EW
NO_ANCHOR = ("sl2-family",)
MUTATION_IDS = ("hierarchy", "sl2-degenerate")
SL2_POINTS = 20


def _element_data(rng: random.Random, kind: str) -> dict:
    """Coefficients of one pseudogroup element.  The time dilation and the
    scaling are fixed per kind and the seeded coefficients are nonzero, so
    each seed gives elements of the same shape."""

    # slope > 0 > intercept and shift q > 0: a coefficient taken at the
    # source time, slope*(t - q)/m^2 + intercept, keeps a nonzero constant
    # term, so no seed makes terms of the moved section cancel
    def linear():
        return (_positive_rational(rng, 2, 1), -_positive_rational(rng, 2, 2))

    q = _positive_rational(rng, 3, 3)
    if kind == "cube":
        return {"d": (1, q), "a": linear(), "b": None, "c": linear(), "ee": 8}
    return {"d": (4, q), "a": linear(), "b": linear() if kind == "free" else None,
            "c": linear(), "ee": 2}


def sections(seed: int) -> list[Verdict]:
    import sympy as sp

    from jetweyl import equivalence as eq
    from jetweyl import geometry as geo
    from jetweyl import symmetry as sym
    from jetweyl.errors import PseudogroupError, SingularLocusError, SolutionError
    from jetweyl.exprcore import T, is_zero

    rng = random.Random(seed)
    out: list[Verdict] = []
    sl2_points = [
        (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)),
         Fraction(rng.randint(1, 9), rng.randint(1, 3)))
        for _ in range(SL2_POINTS)
    ]
    # points where the benchmark re-checks F1 = F2 = 0 on moved sections
    probe_points = [(_nonzero_rational(rng, 3, 3), _nonzero_rational(rng, 3, 3),
                     _positive_rational(rng, 5, 3)) for _ in range(2)]

    def anchor_zero(sol, sign=None) -> bool:
        conn = geo.weyl_connection(geo.build_pair(sol), correction_sign=sign)
        anchor = geo.skew_anchor_residual(conn)
        return all(is_zero(anchor[i, j]) for i in range(3) for j in range(3))

    for cid in EINSTEIN_IDS:
        pts = sl2_points if cid.startswith("sl2") else None

        def einstein(cid=cid, pts=pts):
            sol = geo.catalog(cid)
            return geo.check_EW(sol, pts=pts), cid in NO_ANCHOR or anchor_zero(sol)

        def einstein_ok(r, e, pts=pts) -> bool:
            if e is not None:
                return False
            rep, anchor = r
            ok = rep.exact and rep.ok and anchor
            if pts:
                ok = ok and len(rep.points) == len(pts) and all(
                    c.residual <= 1e-9 for c in rep.points
                )
            return ok

        out.append(Verdict(f"einstein-weyl:{cid}", einstein, einstein_ok))

    for cid in MUTATION_IDS:
        # formal parameters bound, so the failing check can fall back to
        # its sampled residual
        def mutated(cid=cid):
            sol = geo.catalog(cid, **({"f": 0, "h": 0} if cid.startswith("sl2") else {}))
            return geo.check_EW(sol, correction_sign=+1).ok, anchor_zero(sol, +1)

        out.append(Verdict(
            f"mutation-rejected:{cid}", mutated,
            lambda r, e: e is None and r == (False, False),
        ))

    bases = {}

    def signature_or_singular(sol):
        try:
            return eq.signature(sol)
        except SingularLocusError:  # the singular branch is a verdict too
            return "singular"

    def same_signature(cid):
        def check(r, e) -> bool:
            if e is not None:
                return False
            moved, cloud = r
            u, v = oracles.parse_section_text(str(moved))
            solves = oracles.section_solves(u, v, probe_points)
            base = bases[cid]
            if base == "singular":
                return solves and cloud == "singular"
            return solves and cloud != "singular" and cloud.values == base.values

        return check

    def poly(c):
        return 0 if c is None else c[0] * T + c[1]

    for cid, kwargs, kind in SECTION_SETUPS:
        def base_signature(cid=cid, kwargs=kwargs):
            bases[cid] = signature_or_singular(geo.catalog(cid, **kwargs))
            return bases[cid]

        singular = cid in ("trivial", "dkp-partial")
        out.append(Verdict(
            f"signature:{cid}", base_signature,
            (lambda r, e: e is None and r == "singular") if singular
            else (lambda r, e: e is None and r != "singular" and len(r.values) == 1),
        ))
        data = _element_data(rng, kind)

        def move(cid=cid, kwargs=kwargs, data=data):
            el = sym.PseudogroupElement.make(
                d=data["d"][0] * T + data["d"][1], a=poly(data["a"]),
                b=poly(data["b"]), c=poly(data["c"]), ee=data["ee"],
            )
            moved = geo.catalog(cid, **kwargs).transform(el)
            return moved, signature_or_singular(moved)

        out.append(Verdict(f"moved:{cid}", move, same_signature(cid)))
        for which in ("txy", "yu"):
            def reflect(cid=cid, kwargs=kwargs, which=which):
                moved = geo.catalog(cid, **kwargs).reflect(which)
                return moved, signature_or_singular(moved)

            if cid == "sl2-family":
                # y -> -y sends the domain y > 0 out of itself, where the
                # fractional powers of y are not real: a refusal is right
                check = _raises(SolutionError)
            else:
                check = same_signature(cid)
            out.append(Verdict(f"reflect-{which}:{cid}", reflect, check))

    def sl2_invariants_check(r, e) -> bool:
        if e is not None:
            return False
        got = tuple(Fraction(int(q.p), int(q.q)) for q in r)
        sol = geo.catalog("sl2-family")
        u, v = oracles.parse_section_text(str(sol))
        written_out = oracles.section_invariants_at(u, v, probe_points[0])
        return got == oracles.SL2_INVARIANTS and all(
            oracles.close(a, sp.Rational(b)) for a, b in zip(written_out, got)
        )

    out.append(Verdict(
        "sl2-invariants",
        lambda: geo.invariants_on_solution(geo.catalog("sl2-family")),
        sl2_invariants_check,
    ))
    out.append(Verdict(
        "compare:sl2-vs-exp",
        lambda: eq.compare(
            eq.signature(geo.catalog("sl2-family", f=0, h=0)),
            eq.signature(geo.catalog("exp-family", f=1, h=1)),
        ).verdict,
        lambda r, e: e is None and r == "distinct",
    ))
    # invalid elements: the scaling ee must stay positive for every t, and
    # both of these have real roots (t = -1/2; t = 1/6 -+ sqrt(2/15)/2)
    half = sp.Rational(1, 2)
    for label, ee in (("t+1/2", T + half), ("3t^2-t+1/20", 3 * T**2 - T + sp.Rational(1, 20))):
        out.append(Verdict(
            f"invalid-element:ee={label}",
            lambda ee=ee: sym.PseudogroupElement.make(ee=ee),
            _raises(PseudogroupError),
            known_fault="positivity is probed at four points of t only",
        ))
    return out


BATCHES = {"proofs": proofs, "orbits": orbits, "sections": sections}


# ---------------------------------------------------------------------------
# cli_cold: one fresh command process per verdict


@dataclass
class Command:
    name: str
    argv: list[str]
    exit_code: int
    # check(document) -> True; document is the parsed JSON printed last
    check: Callable[[dict], bool]


def cli_commands(seed: int) -> list[Command]:
    import sympy as sp

    rng = random.Random(seed)
    out: list[Command] = []

    k = rng.randint(2, 7)
    jet_dim, eq_dim = oracles.dims(k)
    out.append(Command(
        "dims", ["dims", str(k)], 0,
        lambda d: (d["dim_jet_space"], d["dim_equation"]) == (jet_dim, eq_dim)
        and d["internal_per_dependent"] == (k + 1) ** 2,
    ))

    want = oracles.reduced_u_tx()
    out.append(Command(
        "reduce", ["reduce", "u_tx"], 0,
        lambda d: sp.expand(oracles.parse_program_text(d["reduced"]) - want) == 0,
    ))

    jets = {name: _nonzero_rational(rng) for name in
            ("u_x", "u_xx", "u_xy", "u_yy", "v_x", "v_xx", "v_xy")}
    i2 = oracles.invariants_at({n.replace("_", ""): q for n, q in jets.items()})[1]
    at = ",".join(f"{n}={q}" for n, q in jets.items())
    i2_text = "(u_x^2*u_xy + u_x*u_xx*v_x + u_xx*u_yy - u_xy^2)/u_x^4"
    out.append(Command(
        "invariants-eval", ["invariants", "--eval", i2_text, "--at", at], 0,
        lambda d: Fraction(d["eval"]["value"]) == i2,
    ))

    x, y = oracles.x, oracles.y
    f1, f2 = oracles.ms_residuals(x * y, sp.Integer(0))
    non_solution = sp.expand(f1) != 0 or sp.expand(f2) != 0
    out.append(Command(
        "check-solution:non-solution", ["check-solution", "u = x*y ; v = 0"], 1,
        lambda d: non_solution and d["solves_system"] is False and d["ok"] is False,
    ))

    data = _element_data(rng, "cube")
    probe = [(_nonzero_rational(rng, 3, 3), _nonzero_rational(rng, 3, 3),
              _positive_rational(rng, 5, 3)) for _ in range(2)]

    def lin(c):
        return f"({c[0]})*t + ({c[1]})"

    def moved_solves(d) -> bool:
        u, v = oracles.parse_section_text(d["output"])
        return d["still_solution"] is True and oracles.section_solves(u, v, probe)

    out.append(Command(
        "transform",
        ["transform", "sl2-family", "--f", "0", "--h", "0", "--D", f"t + ({data['d'][1]})",
         "--A", lin(data["a"]), "--C", lin(data["c"]), "--E", str(data["ee"])],
        0, moved_solves,
    ))

    upto = 6
    want_counts = [{"k": j, "s": oracles.ms_counts(j)[0], "h": oracles.ms_counts(j)[1]}
                   for j in range(2, upto + 1)]
    out.append(Command(
        "counts", ["counts", "ms", "--upto", str(upto)], 0,
        lambda d: d["values"] == want_counts,
    ))

    sample_seed = str(rng.randint(0, 999))
    out.append(Command(
        "signature:sl2", ["signature", "sl2-family", "--f", "0", "--h", "0", "--n", "8",
                          "--seed", sample_seed, "--out", "sl2.json"], 0,
        lambda d: tuple(Fraction(v) for v in d["values"][0][:3]) == oracles.SL2_INVARIANTS,
    ))
    # the other cloud is written by the benchmark: exp-family lies on
    # u_xx = 0, where I1 = I2 = I3 = 0 (``oracles.EXP_FAMILY_CLOUD``)
    out.append(Command(
        "compare", ["compare", "sl2.json", oracles.EXP_CLOUD_FILE], 1,
        lambda d: d["verdict"] == "distinct",
    ))
    out.append(Command(
        "parse-error", ["reduce", "u_tx +* 2"], 3,
        lambda d: d["error"] == "parse",
    ))
    return out
