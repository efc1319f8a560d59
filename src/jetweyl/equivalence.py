"""Signature clouds: sampling the twelve basic invariants on a solution.

The sampler and the signature of a section live in :mod:`jetweyl.sections`
(they need no sympy) and are re-exported here; comparison and the JSON
form of a cloud live in :mod:`jetweyl.clouds`.  Solutions whose first three
invariants are constant (every closed-form family here) get a one-point
constant cloud and a note that the regularity hypothesis of the
equivalence criterion fails.  This module adds the cloud of jet points and
the regularity test.
"""

from __future__ import annotations

from .clouds import SignatureCloud, compare  # noqa: F401  (compare is re-exported)
from .errors import SingularLocusError
from .exprcore import jet
from .invariants import _order3, _twelve_at
from .jets import JetPoint
from .linalg import _cofactors
from .sections import SamplerConfig, Solution, halton, signature  # noqa: F401  (re-exported)

__all__ = [
    "SamplerConfig",
    "halton",
    "signature",
    "i_regular",
    "jet_cloud",
]


# ---------------------------------------------------------------------------
# clouds


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
