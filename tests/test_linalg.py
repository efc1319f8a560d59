"""Exact linear algebra over Fractions, checked against sympy on random input."""

from fractions import Fraction

import sympy as sp
from hypothesis import given, settings, strategies as st

from jetweyl.linalg import as_fraction, det, float_rank, inertia, nullspace, rank


def test_as_fraction():
    assert as_fraction(sp.Rational(3, 4)) == Fraction(3, 4)
    assert as_fraction(2) == Fraction(2)


def test_det_and_rank_small():
    m = [[2, 1, 0], [1, 1, 1], [0, 1, 3]]
    assert det(m) == Fraction(1)
    assert rank(m) == 3
    assert rank([[1, 2], [2, 4]]) == 1


def test_inertia_hollow_tridiagonal():
    # eigenvalues are 0 and +-sqrt(2); a past elimination bug reported (2, 1, 0)
    assert inertia([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) == (1, 1, 1)


def test_nullspace_vectors_annihilate():
    m = [[1, 2, 3], [2, 4, 6]]
    basis = nullspace(m)
    assert len(basis) == 2
    for vec in basis:
        for row in m:
            assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0


def test_inertia_diagonal():
    assert inertia([[2, 0, 0], [0, -3, 0], [0, 0, 0]]) == (1, 1, 1)


def test_inertia_lorentzian():
    # the pair metric at u=v=0 in (t,x,y) order
    g = [[0, 2, 0], [2, 0, 0], [0, 0, -1]]
    assert inertia(g) == (1, 2, 0)


def test_float_rank_tolerates_noise():
    rows = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0 + 1e-13], [0.0, 1.0, 0.0]]
    assert float_rank(rows, rtol=1e-9) == 2
    assert float_rank(rows, rtol=1e-15) == 3


_entry = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(st.lists(st.lists(_entry, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
def test_rank_det_match_sympy(rows):
    m = sp.Matrix([[sp.Rational(x) for x in row] for row in rows])
    assert rank(rows) == m.rank()
    assert det(rows) == Fraction(sp.Rational(m.det()))


@st.composite
def _low_rank(draw):
    """Rectangular matrices built as products (rows x r)(r x cols), so that
    rank deficiency is common."""
    nrows, ncols, r = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    left = draw(st.lists(st.lists(_entry, min_size=r, max_size=r), min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(_entry, min_size=ncols, max_size=ncols), min_size=r, max_size=r))
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


@given(_low_rank())
@settings(max_examples=120, deadline=None)
def test_rank_matches_sympy_on_rectangular_matrices(rows):
    m = sp.Matrix([[sp.Rational(x) for x in row] for row in rows])
    assert rank(rows) == m.rank()
    basis = nullspace(rows)
    assert len(basis) == len(rows[0]) - m.rank()
    for vec in basis:
        assert all(sum(Fraction(a) * b for a, b in zip(row, vec)) == 0 for row in rows)


@given(st.lists(st.lists(_entry, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_inertia_matches_eigenvalue_signs(rows):
    sym = [[Fraction(rows[i][j]) + Fraction(rows[j][i]) for j in range(3)] for i in range(3)]
    m = sp.Matrix([[sp.Rational(x) for x in row] for row in sym])
    eigs = []
    for val, mult in m.eigenvals().items():
        eigs.extend([sp.re(val.evalf(30))] * mult)
    expected = (
        sum(1 for e in eigs if e > 1e-20),
        sum(1 for e in eigs if e < -1e-20),
        sum(1 for e in eigs if abs(e) <= 1e-20),
    )
    assert inertia(sym) == expected
