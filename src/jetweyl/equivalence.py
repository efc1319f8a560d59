"""Signature clouds: sampling the twelve basic invariants on a solution
and comparing two solutions by their sampled signatures.

Finite sampling can only ever give evidence for equality of signature
images, so the positive verdict is labeled accordingly.  Solutions whose
first three invariants are constant (every closed-form family here) get
a one-point constant cloud and a note that the regularity hypothesis of
the equivalence criterion fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import sympy as sp

from .errors import ComparisonError, SingularLocusError, SolutionError
from .exprcore import T, X, Y, is_formal_symbol, is_zero, jet
from .invariants import invariant, twelve_invariants
from .jets import JetPoint
from .linalg import as_fraction, float_rank
from .geometry import SectionField, Solution, _cofactors

__all__ = [
    "SamplerConfig",
    "halton",
    "SignatureCloud",
    "signature",
    "i_regular",
    "CompareReport",
    "compare",
    "cloud_rank",
    "jet_cloud",
    "cloud_to_json",
    "cloud_from_json",
]

_COORDS = (T, X, Y)


# ---------------------------------------------------------------------------
# sampling


def halton(index: int, base: int) -> Fraction:
    """Radical-inverse of the index in the given base: a low-discrepancy
    rational in [0, 1)."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    out = Fraction(0)
    f = Fraction(1, base)
    while index:
        out += f * (index % base)
        index //= base
        f /= base
    return out


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic low-discrepancy rational points in a box.

    The seed offsets the Halton index, so distinct seeds give distinct
    (still deterministic) streams.
    """

    seed: int = 0
    n: int = 64
    box: tuple = ((-2, 2), (-2, 2), (-2, 2))
    max_rejections: int = 5000

    def stream(self):
        bases = (2, 3, 5)
        lo_hi = [(Fraction(a), Fraction(b)) for a, b in self.box]
        i = 1 + 997 * self.seed
        while True:
            pt = tuple(
                lo + (hi - lo) * halton(i, b) for (lo, hi), b in zip(lo_hi, bases)
            )
            yield pt
            i += 1


# ---------------------------------------------------------------------------
# clouds


@dataclass(frozen=True)
class SignatureCloud:
    points: tuple  # (t, x, y) triples
    values: tuple  # 12-vectors, Fractions when exact
    precision: str  # "exact" | "float50"
    provenance: str = "user"
    notes: tuple = ()
    regular: bool | None = None  # None: not determined

    def __len__(self) -> int:
        return len(self.values)


def _section_base_invariants(sol: Solution) -> list[sp.Expr]:
    """I1, I2, I3 along the section, without deriving the other nine."""
    return [sol.jet_subs(invariant(i)) for i in (1, 2, 3)]


def _eval_at(e, subs):
    """Exact rational value when possible, else a 50-digit float."""
    val = sp.sympify(e).xreplace(subs)
    if val.free_symbols:
        raise SolutionError(f"value is not a number: {val}")
    if val.is_Rational:
        return as_fraction(val)
    return float(sp.N(val, 50))


def signature(sol: Solution, sampler: SamplerConfig | None = None) -> SignatureCloud:
    """Sample the twelve invariants along the solution.

    Branches: a section with u_x = 0 identically lies in the order-1
    relative-invariant stratum and has no signature (error); a section
    with constant (I1, I2, I3) gets a single constant 12-vector with the
    gradient slots set to zero and a non-regularity note; otherwise the
    sampler draws points off the singular locus and the cloud is exact
    where the section evaluates rationally.
    """
    sampler = sampler or SamplerConfig()
    for e in (sol.u, sol.v):
        free = {s for s in sp.sympify(e).free_symbols if is_formal_symbol(s)}
        if free:
            raise SolutionError(
                f"bind formal parameters before sampling: {sorted(map(str, free))}"
            )
    if not sol.checked:
        sol.require_solution()
    sf = sol.field
    ux, uxx = sf.jet("u", "x"), sf.jet("u", "xx")
    if sf.vanishes(ux):
        raise SingularLocusError(
            "every sample is singular: u_x = 0 identically on the section "
            "(the order-1 relative-invariant branch)"
        )
    base3 = [sf.rational(sf.subs(invariant(i))) for i in (1, 2, 3)]
    if None not in base3:
        notes = [
            "constant invariants: gradient slots set to zero",
            "not I-regular; the signature-equivalence hypothesis fails",
        ]
        if sf.vanishes(uxx):
            notes.append("section lies in the u_xx = 0 stratum")
        vals = tuple(base3) + (Fraction(0),) * 9
        pt = next(p for p in sampler.stream() if sol.in_domain(p))
        return SignatureCloud(
            (tuple(pt),),
            (vals,),
            "exact",
            sol.name,
            tuple(notes),
            False,
        )
    ux, uxx = sf.expr(ux), sf.expr(uxx)
    funcs = [sol.jet_subs(e) for e in twelve_invariants()]
    points, values = [], []
    rejected = 0
    exact = True
    for p in sampler.stream():
        if len(points) >= sampler.n:
            break
        if rejected >= sampler.max_rejections:
            break
        subs = {c: sp.Rational(q) for c, q in zip(_COORDS, p)}
        if not sol.in_domain(p):
            rejected += 1
            continue
        uxv, uxxv = _eval_at(ux, subs), _eval_at(uxx, subs)
        if uxv == 0 or uxxv == 0:
            rejected += 1
            continue
        row = tuple(_eval_at(e, subs) for e in funcs)
        exact = exact and all(isinstance(v, Fraction) for v in row)
        points.append(tuple(p))
        values.append(row)
    if not points:
        raise SingularLocusError(
            "no admissible sample point found off the singular locus"
        )
    notes = []
    if len(points) < sampler.n:
        notes.append(
            f"accepted {len(points)} of the requested {sampler.n} points"
        )
    if not exact:
        values = [
            tuple(float(v) if isinstance(v, Fraction) else v for v in row)
            for row in values
        ]
    return SignatureCloud(
        tuple(points),
        tuple(values),
        "exact" if exact else "float50",
        sol.name,
        tuple(notes),
        None,
    )


def jet_cloud(points: list[JetPoint], provenance: str = "equation-points") -> SignatureCloud:
    """Exact signature vectors at on-equation jet points (the evaluation
    machinery independent of any section)."""
    exprs = twelve_invariants()  # already in canonical form
    ux, uxx = jet("u", "x"), jet("u", "xx")
    pts, vals = [], []
    skipped = 0
    for jp in points:
        if jp.value(ux) == 0 or jp.value(uxx) == 0:
            skipped += 1
            continue
        row = tuple(jp.eval(e) for e in exprs)
        pts.append((jp.base["t"], jp.base["x"], jp.base["y"]))
        vals.append(row)
    if not vals:
        raise SingularLocusError("every supplied jet point is singular")
    notes = (f"skipped {skipped} singular points",) if skipped else ()
    return SignatureCloud(tuple(pts), tuple(vals), "exact", provenance, notes, None)


# ---------------------------------------------------------------------------
# regularity


def i_regular(sol: Solution, pt) -> bool:
    """Whether the three base invariants have independent differentials
    along the section at the point (exact determinant)."""
    if not sol.checked:
        sol.require_solution()
    subs = {c: sp.Rational(q) for c, q in zip(_COORDS, pt)}
    if not sol.in_domain(pt):
        raise SolutionError(f"point {pt} violates the domain ({sol.domain})")
    uxv = sol.jet_expr("u", "x").xreplace(subs)
    if uxv == 0:
        raise SingularLocusError("u_x vanishes on the section at this point")
    sf = SectionField(_section_base_invariants(sol))
    M = [[sf.partial(e, d) for d in "txy"] for e in sf.values]
    det = sf.sum(M[0][j] * c for j, c in enumerate(_cofactors(M)[0]))
    return not is_zero(sf.expr(det).xreplace(subs))


# ---------------------------------------------------------------------------
# comparison


@dataclass(frozen=True)
class CompareReport:
    verdict: str  # equivalent-evidence | distinct | inconclusive
    hausdorff: float
    scale: float
    tol: float
    notes: tuple = ()


def _dist(a, b) -> float:
    return max(abs(float(x) - float(y)) for x, y in zip(a, b))


def compare(
    c1: SignatureCloud,
    c2: SignatureCloud,
    tol: float = 1e-9,
    min_points: int = 1,
) -> CompareReport:
    """Two-sided tolerance matching of the clouds.

    distinct when the symmetric Hausdorff distance exceeds tol*(1+scale);
    equivalent-evidence when every value of each cloud has a close
    counterpart in the other; inconclusive when either cloud is too
    sparse.  Symmetric in its arguments and monotone in tol: raising tol
    only ever moves the verdict toward equivalent-evidence.
    """
    if c1.precision != c2.precision:
        raise ComparisonError(
            f"precision mismatch: {c1.precision} vs {c2.precision}"
        )
    notes = []
    for c in (c1, c2):
        if c.regular is False:
            notes.append(
                f"{c.provenance}: not I-regular, constant-signature comparison only"
            )
    if len(c1) < min_points or len(c2) < min_points:
        return CompareReport(
            "inconclusive", float("nan"), 0.0, tol, tuple(notes + ["sparse cloud"])
        )
    scale = max(
        (abs(float(x)) for c in (c1, c2) for row in c.values for x in row),
        default=0.0,
    )
    d12 = max(min(_dist(p, q) for q in c2.values) for p in c1.values)
    d21 = max(min(_dist(p, q) for q in c1.values) for p in c2.values)
    h = max(d12, d21)
    verdict = "distinct" if h > tol * (1.0 + scale) else "equivalent-evidence"
    return CompareReport(verdict, h, scale, tol, tuple(notes))


def cloud_rank(cloud: SignatureCloud, rtol: float = 1e-6) -> int:
    """Numeric rank of the cloud around its centroid (the local dimension
    of the signature image for well-sampled data)."""
    if len(cloud) < 2:
        return 0
    n = len(cloud)
    cent = [sum(float(row[k]) for row in cloud.values) / n for k in range(12)]
    rows = [[float(row[k]) - cent[k] for k in range(12)] for row in cloud.values]
    return float_rank(rows, rtol)


# ---------------------------------------------------------------------------
# serialization


def cloud_to_json(cloud: SignatureCloud) -> str:
    def enc(v):
        return str(v) if isinstance(v, Fraction) else float(v)

    return json.dumps(
        {
            "points": [[str(c) for c in p] for p in cloud.points],
            "values": [[enc(v) for v in row] for row in cloud.values],
            "precision": cloud.precision,
            "solution_provenance": cloud.provenance,
            "notes": list(cloud.notes),
            "regular": cloud.regular,
        },
        sort_keys=True,
    )


def cloud_from_json(text: str) -> SignatureCloud:
    try:
        data = json.loads(text)
        dec = (
            (lambda v: Fraction(v))
            if data["precision"] == "exact"
            else (lambda v: float(v))
        )
        return SignatureCloud(
            tuple(tuple(Fraction(c) for c in p) for p in data["points"]),
            tuple(tuple(dec(v) for v in row) for row in data["values"]),
            data["precision"],
            data.get("solution_provenance", "user"),
            tuple(data.get("notes", ())),
            data.get("regular"),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ComparisonError(f"malformed signature cloud: {exc}") from exc
