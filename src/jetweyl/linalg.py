"""Small exact linear algebra over the rationals, plus a tolerant float rank.

Every rank decision in this package feeds a theorem-level assertion, so the
exact paths run on Fraction arithmetic end to end; pivot choice then only
affects speed, never the answer.  The float rank exists for sampled data
where entries are already inexact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = [
    "as_fraction",
    "rank",
    "nullspace",
    "det",
    "inertia",
    "float_rank",
]


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    # sympy Rational and friends expose p/q
    p = getattr(x, "p", None)
    q = getattr(x, "q", None)
    if p is not None and q is not None:
        return Fraction(int(p), int(q))
    return Fraction(x)


def _copy(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    mat = [[as_fraction(x) for x in row] for row in rows]
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("ragged matrix")
    return mat


def _forward(mat: list[list[Fraction]]) -> tuple[list[int], int]:
    """In-place forward elimination to row echelon form: pivot rows are
    neither normalized nor cleared above.  Returns the pivot columns and
    the sign of the row permutation."""
    pivots = []
    sign = 1
    row = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            mat[row], mat[piv] = mat[piv], mat[row]
            sign = -sign
        top = mat[row]
        inv = 1 / top[col]
        for r in range(row + 1, len(mat)):
            f = mat[r][col]
            if f != 0:
                f *= inv
                # entries left of col vanish in both rows
                mat[r][col:] = [a - f * b for a, b in zip(mat[r][col:], top[col:])]
        pivots.append(col)
        row += 1
        if row == len(mat):
            break
    return pivots, sign


def _eliminate(mat: list[list[Fraction]]) -> list[int]:
    """In-place reduction to reduced row echelon form; returns the pivot
    column list."""
    pivots, _ = _forward(mat)
    for r in reversed(range(len(pivots))):
        col = pivots[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for above in range(r):
            f = mat[above][col]
            if f != 0:
                mat[above] = [a - f * b for a, b in zip(mat[above], mat[r])]
    return pivots


def rank(rows: Sequence[Sequence]) -> int:
    mat = _copy(rows)
    if not mat:
        return 0
    return len(_forward(mat)[0])


def nullspace(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Basis of the right kernel (vectors v with A v = 0)."""
    mat = _copy(rows)
    if not mat:
        return []
    ncols = len(mat[0])
    pivots = _eliminate(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def det(rows: Sequence[Sequence]) -> Fraction:
    mat = _copy(rows)
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return Fraction(1)
    pivots, sign = _forward(mat)
    if len(pivots) < n:
        return Fraction(0)
    out = Fraction(sign)
    for i in range(n):
        out *= mat[i][i]
    return out


def inertia(rows: Sequence[Sequence]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    Exact congruence diagonalization.  When every remaining diagonal entry
    vanishes but the block does not, a row/column addition brings a nonzero
    entry onto the diagonal first (the standard congruence trick).
    """
    mat = _copy(rows)
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("inertia needs a square matrix")
    for i in range(n):
        for j in range(i + 1, n):
            if mat[i][j] != mat[j][i]:
                raise ValueError("inertia needs a symmetric matrix")
    pos = neg = zero = 0
    idx = list(range(n))  # active block, as index view

    def add_row_col(i, j):
        # congruence: row_i += row_j, then col_i += col_j
        for c in idx:
            mat[i][c] += mat[j][c]
        for r in idx:
            mat[r][i] += mat[r][j]

    while idx:
        k = next((i for i in idx if mat[i][i] != 0), None)
        if k is None:
            pair = next(
                ((i, j) for i in idx for j in idx if mat[i][j] != 0), None
            )
            if pair is None:
                zero += len(idx)
                break
            add_row_col(*pair)
            k = pair[0]
        d = mat[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        idx.remove(k)
        # snapshot before clearing: every remaining row reads the pivot row
        pivot_row = {c: mat[k][c] for c in idx}
        for r in idx:
            if mat[r][k] != 0:
                f = mat[r][k] / d
                for c in idx:
                    mat[r][c] -= f * pivot_row[c]
            mat[r][k] = Fraction(0)
            mat[k][r] = Fraction(0)
    return pos, neg, zero


def float_rank(rows: Sequence[Sequence[float]], rtol: float = 1e-9) -> int:
    """Numerical rank by full-pivot elimination.

    A pivot counts while its magnitude exceeds ``rtol`` times the largest
    magnitude seen in the original matrix.  Full pivoting keeps the estimate
    stable without the weight of an SVD.
    """
    mat = [[float(x) for x in row] for row in rows]
    if not mat or not mat[0]:
        return 0
    scale = max(abs(x) for row in mat for x in row)
    if scale == 0.0:
        return 0
    thresh = rtol * scale
    nrows, ncols = len(mat), len(mat[0])
    r = 0
    cols = list(range(ncols))
    while r < nrows and cols:
        br, bc = max(
            ((i, c) for i in range(r, nrows) for c in cols),
            key=lambda rc: abs(mat[rc[0]][rc[1]]),
        )
        if abs(mat[br][bc]) <= thresh:
            break
        mat[r], mat[br] = mat[br], mat[r]
        cols.remove(bc)
        for i in range(r + 1, nrows):
            if mat[i][bc] != 0.0:
                f = mat[i][bc] / mat[r][bc]
                for c in range(ncols):
                    mat[i][c] -= f * mat[r][c]
        r += 1
    return r
