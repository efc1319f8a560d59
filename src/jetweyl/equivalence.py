"""Signature clouds: sampling the twelve basic invariants on a solution.

Comparison and the JSON form of a cloud live in :mod:`jetweyl.clouds`.
Solutions whose first three invariants are constant (every closed-form
family here) get a one-point constant cloud and a note that the
regularity hypothesis of the equivalence criterion fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import sympy as sp

from .clouds import SignatureCloud, compare  # noqa: F401  (compare is re-exported)
from .errors import DivisionByZeroExpression, SingularLocusError, SolutionError
from .exprcore import jet
from .invariants import _order3, _twelve_at
from .jets import JetPoint
from .geometry import Solution
from .linalg import _cofactors

__all__ = [
    "SamplerConfig",
    "halton",
    "signature",
    "i_regular",
    "jet_cloud",
]


# ---------------------------------------------------------------------------
# sampling

# a draw gives up after this many points outside the domain or measure
_MAX_REJECTIONS = 5000


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

    def admissible(self, sol, measure=lambda p: True):
        """Up to n pairs (point, measure(point)) of the stream's points in
        the section's domain (:meth:`Solution.in_domain`) whose measure is
        not None.  The draw ends after _MAX_REJECTIONS rejected points."""
        taken = rejected = 0
        stream = self.stream()
        while taken < self.n and rejected < _MAX_REJECTIONS:
            p = next(stream)
            value = measure(p) if sol.in_domain(p) else None
            if value is None:
                rejected += 1
            else:
                taken += 1
                yield p, value


# ---------------------------------------------------------------------------
# clouds


def _number(C, f):
    """A constant of C as a ``Fraction`` when it is rational, else the
    double nearest it (evaluated to 50 digits, then rounded)."""
    q = C.rational(f)
    return q if q is not None else float(sp.N(C.expr(f), 50))


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
    sf = sol.field
    free = sorted(map(str, sf.occurring()[0]))
    if free:
        raise SolutionError(f"bind formal parameters before sampling: {free}")
    if not sol.checked:
        sol.require_solution()
    ux, uxx = sf.jet("u", "x"), sf.jet("u", "xx")
    if sf.vanishes(ux):
        raise SingularLocusError(
            "every sample is singular: u_x = 0 identically on the section "
            "(the order-1 relative-invariant branch)"
        )
    table = _order3()
    base3 = [sf.rational(sf.subs(f)) for f in table.I]
    if None not in base3:
        notes = [
            "constant invariants: gradient slots set to zero",
            "not I-regular; the signature-equivalence hypothesis fails",
        ]
        if sf.vanishes(uxx):
            notes.append("section lies in the u_xx = 0 stratum")
        vals = tuple(base3) + (Fraction(0),) * 9
        drawn = next(sampler.admissible(sol), None)
        if drawn is None:
            raise SingularLocusError("no sample point found in the section's domain")
        return SignatureCloud(
            (tuple(drawn[0]),),
            (vals,),
            "exact",
            sol.name,
            tuple(notes),
            False,
        )
    funcs = [sf.subs(f) for f in table.twelve]

    def twelve_at(p):
        """The twelve values at p; None on the singular locus, where u_x or
        u_xx vanishes or an invariant has a pole."""
        try:
            C, (uxv, uxxv, *values) = sf.at(p, (ux, uxx, *funcs))
        except DivisionByZeroExpression:
            return None
        if C.vanishes(uxv) or C.vanishes(uxxv):
            return None
        return tuple(_number(C, v) for v in values)

    drawn = list(sampler.admissible(sol, twelve_at))
    points, values = [tuple(p) for p, _ in drawn], [row for _, row in drawn]
    if not points:
        raise SingularLocusError(
            "no admissible sample point found off the singular locus"
        )
    exact = all(isinstance(v, Fraction) for row in values for v in row)
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
        "exact" if exact else "float64",
        sol.name,
        tuple(notes),
        None,
    )


def jet_cloud(points: list[JetPoint]) -> SignatureCloud:
    """Exact signature vectors at on-equation jet points (the evaluation
    machinery independent of any section): the twelve invariants as
    elements of the order-3 jet ring, evaluated at each point off the
    singular locus."""
    ux, uxx = jet("u", "x"), jet("u", "xx")
    pts, vals = [], []
    skipped = 0
    for jp in points:
        if jp.value(ux) == 0 or jp.value(uxx) == 0:
            skipped += 1
            continue
        pts.append((jp.base["t"], jp.base["x"], jp.base["y"]))
        vals.append(_twelve_at(jp))
    if not vals:
        raise SingularLocusError("every supplied jet point is singular")
    notes = (f"skipped {skipped} singular points",) if skipped else ()
    return SignatureCloud(tuple(pts), tuple(vals), "exact", "equation-points", notes, None)


# ---------------------------------------------------------------------------
# regularity


def i_regular(sol: Solution, pt) -> bool:
    """Whether the three base invariants have independent differentials
    along the section at the point (exact determinant)."""
    if not sol.checked:
        sol.require_solution()
    if not sol.in_domain(pt):
        raise sol.domain_error(pt)
    sf = sol.field
    C, (uxv,) = sf.at(pt, (sf.jet("u", "x"),))
    if C.vanishes(uxv):
        raise SingularLocusError("u_x vanishes on the section at this point")
    M = [[sf.partial(sf.subs(f), d) for d in "txy"] for f in _order3().I]
    det = sf.sum(M[0][j] * c for j, c in enumerate(_cofactors(M)[0]))
    C, (detv,) = sf.at(pt, (det,))
    return not C.vanishes(detv)
