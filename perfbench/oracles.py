"""Reference computations the benchmark checks the program against.

Everything here is written out from the mathematics with plain
``fractions.Fraction`` and plain ``sympy`` calls (``diff``, ``solve``,
50-digit ``N``).  Nothing is imported from ``jetweyl``, so a fault in the
program cannot hide in its own oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import sympy as sp

t, x, y = sp.symbols("t x y", real=True)

DIGITS = 50
# a residual below this, relative to the size of the terms, counts as zero
# in 50-digit arithmetic
RESIDUAL_TOL = sp.Float("1e-35", DIGITS)

SL2_INVARIANTS = (Fraction(-3, 25), Fraction(21, 100), Fraction(-147, 500))
# exp-family (f = h = 1): u = x + exp(y) has u_xx = 0 and v_xx = 0, so
# I1 = I2 = I3 = 0; its constant signature has zero gradient slots too
EXP_CLOUD_FILE = "exp-family.json"
EXP_FAMILY_CLOUD = {
    "points": [["0", "0", "1"]],
    "values": [["0"] * 12],
    "precision": "exact",
    "solution_provenance": "exp-family",
    "notes": [],
    "regular": False,
}
ORBIT_DIMENSIONS = {1: 11, 2: 18, 3: 23, 4: 28}


def dims(k: int) -> tuple[int, int]:
    """(dim J^k, dim of the equation submanifold) for k >= 2."""
    return 3 + 2 * comb(k + 3, 3), 3 + 2 * (k + 1) ** 2


def ms_counts(k: int) -> tuple[int, int]:
    """(s_k, h_k) of the ms series: invariants of order k and those that are
    new at order k (closed forms of the counting table, k >= 2)."""
    return 2 * k * k - k - 3, (3 if k == 2 else 4 * k - 3)


def invariants_at(j: dict[str, Fraction]) -> tuple[Fraction, Fraction, Fraction]:
    """I1, I2, I3 from the jet values u_x, u_xx, u_xy, u_yy, v_x, v_xx, v_xy
    (keys without the underscore: ``ux``, ``uxx``, ...)."""
    ux, uxx, uxy, uyy = j["ux"], j["uxx"], j["uxy"], j["uyy"]
    vx, vxx, vxy = j["vx"], j["vxx"], j["vxy"]
    i1 = (uxy + vxx) / ux**2
    i2 = (ux**2 * uxy + ux * uxx * vx + uxx * uyy - uxy**2) / ux**4
    i3 = (ux**2 * vxx - ux * uxx * vx + uxx * vxy - uxy * vxx) / ux**4
    return i1, i2, i3


def hausdorff(a: list[tuple], b: list[tuple]) -> Fraction:
    """Symmetric Hausdorff distance of two finite sets in the max norm."""

    def dist(p, q):
        return max(abs(pi - qi) for pi, qi in zip(p, q))

    d_ab = max(min(dist(p, q) for q in b) for p in a)
    d_ba = max(min(dist(p, q) for q in a) for p in b)
    return max(d_ab, d_ba)


def ms_residuals(u: sp.Expr, v: sp.Expr) -> tuple[sp.Expr, sp.Expr]:
    """F1, F2 of the system written out on a section u(t,x,y), v(t,x,y):

    F1 = D_x(u_t + u u_y + v u_x) - D_y(u_y)
    F2 = D_x(v_t + v v_x - u v_y) - D_y(v_y - 2 u v_x)
    """
    d = sp.diff
    f1 = d(d(u, t) + u * d(u, y) + v * d(u, x), x) - d(u, y, 2)
    f2 = d(d(v, t) + v * d(v, x) - u * d(v, y), x) - d(d(v, y) - 2 * u * d(v, x), y)
    return f1, f2


def vanishes_at(e: sp.Expr, points) -> bool:
    """True when e is numerically zero at every point in 50 digits."""
    for p in points:
        subs = {t: sp.Rational(p[0]), x: sp.Rational(p[1]), y: sp.Rational(p[2])}
        val = sp.N(e.xreplace(subs), DIGITS)
        if not val.is_number or abs(val) > RESIDUAL_TOL:
            return False
    return True


def section_solves(u: sp.Expr, v: sp.Expr, points) -> bool:
    """F1 = F2 = 0 for the section at every sampled point."""
    return all(vanishes_at(f, points) for f in ms_residuals(u, v))


def section_invariants_at(u: sp.Expr, v: sp.Expr, point) -> tuple:
    """I1, I2, I3 of a section at a point, in 50 digits."""
    d = sp.diff
    j = {
        "ux": d(u, x), "uxx": d(u, x, 2), "uxy": d(u, x, y), "uyy": d(u, y, 2),
        "vx": d(v, x), "vxx": d(v, x, 2), "vxy": d(v, x, y),
    }
    subs = {t: sp.Rational(point[0]), x: sp.Rational(point[1]), y: sp.Rational(point[2])}
    num = {k: sp.N(e.xreplace(subs), DIGITS) for k, e in j.items()}
    ux, uxx, uxy, uyy = num["ux"], num["uxx"], num["uxy"], num["uyy"]
    vx, vxx, vxy = num["vx"], num["vxx"], num["vxy"]
    i1 = (uxy + vxx) / ux**2
    i2 = (ux**2 * uxy + ux * uxx * vx + uxx * uyy - uxy**2) / ux**4
    i3 = (ux**2 * vxx - ux * uxx * vx + uxx * vxy - uxy * vxx) / ux**4
    return i1, i2, i3


def close(a, b) -> bool:
    """50-digit agreement of two numbers (exact or float)."""
    return abs(sp.N(a, DIGITS) - sp.N(b, DIGITS)) <= RESIDUAL_TOL * (1 + abs(sp.N(b, DIGITS)))


# ---------------------------------------------------------------------------
# jet-space form of the first equation, for ``reduce u_tx``

JET_NAMES = ("u", "u_t", "u_x", "u_y", "u_tx", "u_xx", "u_xy", "u_yy", "v", "v_x")


def reduced_u_tx() -> sp.Expr:
    """u_tx solved from F1 = 0, with F1 written in jet coordinates:
    D_x(u_t + u u_y + v u_x) - u_yy
      = u_tx + u_x u_y + u u_xy + v_x u_x + v u_xx - u_yy."""
    s = {name: sp.Symbol(name) for name in JET_NAMES}
    f1 = (
        s["u_tx"] + s["u_x"] * s["u_y"] + s["u"] * s["u_xy"]
        + s["v_x"] * s["u_x"] + s["v"] * s["u_xx"] - s["u_yy"]
    )
    (sol,) = sp.solve(f1, s["u_tx"])
    return sp.expand(sol)


def parse_program_text(text: str) -> sp.Expr:
    """Read the program's printed form (``^`` for powers, jets as
    ``u_xy``, ``exp(...)``) back into sympy with the symbols above."""
    names = {name: sp.Symbol(name) for name in JET_NAMES}
    names.update({"t": t, "x": x, "y": y, "exp": sp.exp})
    return sp.sympify(text.replace("^", "**"), locals=names)


def parse_section_text(text: str) -> tuple[sp.Expr, sp.Expr]:
    """``u = ...; v = ...`` as printed by the program."""
    parts = {}
    for chunk in text.split(";"):
        name, _, rhs = chunk.partition("=")
        parts[name.strip()] = parse_program_text(rhs.strip())
    return parts["u"], parts["v"]


def nonzero_somewhere(e: sp.Expr, rng) -> bool:
    """Witness check: substitute seeded rationals for every free symbol and
    find a nonzero value (a nonzero value proves e is not identically 0)."""
    syms = sorted(e.free_symbols, key=str)
    for _ in range(4):
        subs = {s: sp.Rational(rng.randint(1, 19), rng.randint(1, 7)) for s in syms}
        val = e.xreplace(subs)
        if val.is_number and val != 0:
            return True
    return False
