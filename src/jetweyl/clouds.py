"""Signature clouds: their comparison and JSON form.

A cloud is a finite sample of the twelve-invariant signature of a
solution (``equivalence`` draws it).  Everything here is float or
``Fraction`` arithmetic on the stored values, so ``jetweyl compare``
starts without the symbolic layers.  Exact clouds are compared exactly
and float clouds within a tolerance.  Finite sampling can only ever give
evidence for equality of signature images, so the positive verdict is
labeled accordingly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ComparisonError

__all__ = [
    "SignatureCloud",
    "CompareReport",
    "compare",
    "cloud_to_json",
    "cloud_from_json",
]


@dataclass(frozen=True)
class SignatureCloud:
    points: tuple  # (t, x, y) triples
    values: tuple  # 12-vectors, Fractions when exact
    precision: str  # "exact" | "float64"
    provenance: str = "user"
    notes: tuple = ()
    regular: bool | None = None  # None: not determined

    def __len__(self) -> int:
        return len(self.values)


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
) -> CompareReport:
    """Exact comparison of exact clouds, tolerance matching of float ones.

    Two ``exact`` clouds are distinct exactly when their sets of value
    rows differ.  Two ``float64`` clouds are distinct when the symmetric
    Hausdorff distance exceeds tol*(1+scale), and equivalent-evidence when
    every value of each cloud has a close counterpart in the other; there
    the verdict is monotone in tol: raising tol only ever moves it toward
    equivalent-evidence.  ``tol`` decides nothing for exact clouds, though
    the report carries the distance, scale and tol for both.  An empty
    cloud gives inconclusive.  Symmetric in its arguments.
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
    if not (c1 and c2):
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
    if c1.precision == "exact":
        differ = set(c1.values) != set(c2.values)
    else:
        differ = h > tol * (1.0 + scale)
    verdict = "distinct" if differ else "equivalent-evidence"
    return CompareReport(verdict, h, scale, tol, tuple(notes))


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
