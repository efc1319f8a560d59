"""Exact row elimination and rank.

Every rank decision in this package feeds a theorem-level assertion, so the
exact paths never round: the rank runs on integers (rows cleared of
denominators, fraction-free elimination), and the shape lift uses
Gauss-Jordan elimination over the jet ring's fraction field; pivot choice
then only affects speed, never the answer.

``rank`` first reduces its integer matrix mod the prime p = 2^61 - 1.  A
minor that is nonzero mod p is nonzero over the integers, so the rank mod p
is a lower bound; when it already equals the number of rows or columns, it
is the rank, a certificate that costs one elimination on machine-sized
residues.  A lower rank mod p decides nothing (p may divide every maximal
minor, or the matrix is rank-deficient), so Bareiss's elimination, whose
entries are the minors themselves, decides those matrices over the
integers.  The orbit and independence matrices of ``verify-all`` and
``orbit-dim`` have full rank and take the first path; a rank-deficient
one, such as the orbit at the zero jet, takes the second.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "rank",
]


def _eliminate(mat: list[list]) -> list[int]:
    """In-place Gauss-Jordan reduction to reduced row echelon form over a
    field; returns the pivot columns."""
    pivots: list[int] = []
    for col in range(len(mat[0]) if mat else 0):
        row = len(pivots)
        piv = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = top = [x * inv for x in mat[row]]
        for r in range(len(mat)):
            f = mat[r][col]
            if r != row and f != 0:
                mat[r] = [a - f * b for a, b in zip(mat[r], top)]
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    return pivots


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank of a matrix of rationals with ``numerator`` and
    ``denominator`` (``int``, ``Fraction``, sympy ``Rational``).

    Each row is scaled by the LCM of its denominators and divided by its
    content, which does not change the rank.  If the integer matrix has
    full rank mod p (:func:`_rank_mod_p`), that is its rank; otherwise it
    is reduced by Bareiss's fraction-free elimination: every division is
    exact, so the entries stay integers (minors of the matrix)."""
    mat = []
    for row in rows:
        dens = [x.denominator for x in row]
        scale = math.lcm(*dens)
        ints = [x.numerator * (scale // d) for x, d in zip(row, dens)]
        content = math.gcd(*ints) or 1
        mat.append([n // content for n in ints])
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("ragged matrix")
    full = min(len(mat), len(mat[0])) if mat else 0
    if _rank_mod_p(mat) == full:
        return full
    return _bareiss_rank(mat)


#: the Mersenne prime 2^61 - 1, the modulus of the full-rank certificate
_P = (1 << 61) - 1


def _rank_mod_p(mat: list[list[int]]) -> int:
    """The rank of an integer matrix reduced mod ``_P``, by forward
    elimination over the field of residues (``mat`` is left as it is).  It
    is at most the rank over the rationals."""
    m = [[x % _P for x in row] for row in mat]
    row = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(row, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], -1, _P)
        top = [x * inv % _P for x in m[row][col:]]
        for r in range(row + 1, len(m)):
            f = m[r][col]
            if f:
                # entries left of col vanish in both rows
                m[r][col:] = [(a - f * b) % _P for a, b in zip(m[r][col:], top)]
        row += 1
        if row == len(m):
            break
    return row


def _bareiss_rank(mat: list[list[int]]) -> int:
    """In-place fraction-free forward elimination of an integer matrix;
    returns the number of pivots.  Columns without a pivot are skipped:
    after each step an entry below the pivot rows is the minor on the
    pivot rows and columns so far plus its own row and column, and the
    division by the previous pivot is exact (Sylvester's identity)."""
    ncols = len(mat[0]) if mat else 0
    row, prev = 0, 1
    for col in range(ncols):
        piv = next((r for r in range(row, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        top = mat[row]
        p = top[col]
        for r in range(row + 1, len(mat)):
            f = mat[r][col]
            # entries left of col vanish in both rows
            mat[r][col:] = [(p * a - f * b) // prev for a, b in zip(mat[r][col:], top[col:])]
        prev = p
        row += 1
        if row == len(mat):
            break
    return row


def _cofactors(m) -> list:
    """The cofactor matrix of a 3x3 matrix over a commutative ring."""
    return [
        [
            m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)
        ]
        for i in range(3)
    ]
