"""Exact rank over the rationals, checked against sympy on random input."""

import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from jetweyl.linalg import as_fraction, rank


def test_as_fraction():
    assert as_fraction(sp.Rational(3, 4)) == Fraction(3, 4)
    assert as_fraction(2) == Fraction(2)


def test_det_and_rank_small():
    # determinant 1, so full rank
    assert rank([[2, 1, 0], [1, 1, 1], [0, 1, 3]]) == 3
    assert rank([[1, 2], [2, 4]]) == 1


def test_rank_edge_cases():
    assert rank([]) == 0
    assert rank([[], []]) == 0
    assert rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert rank([[0, 0], [Fraction(1, 3), 0], [0, 0]]) == 1
    assert rank([[Fraction(2, 7)], [0], [-5]]) == 1
    assert rank([[0], [0]]) == 0
    assert rank([[1, 2, 3]]) == 1
    with pytest.raises(ValueError):
        rank([[1, 2], [3]])


def test_rank_of_large_denominator_rank_deficient_rows():
    # rows of a product (8 x 3)(3 x 7) with 30-digit denominators, plus a
    # zero row and a copy of a row scaled by a large rational
    rng = random.Random(13)

    def big():
        return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))

    left = [[big() for _ in range(3)] for _ in range(8)]
    right = [[big() for _ in range(7)] for _ in range(3)]
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    rows.append([Fraction(0)] * 7)
    rows.append([Fraction(10**40 + 1, 3**50) * x for x in rows[2]])
    m = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in rows])
    assert rank(rows) == m.rank() == 3
    assert rank([row[:2] for row in rows]) == 2
    # the same rows cleared of denominators, each times a large common factor
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    common = 7**60 * (10**45 + 9)
    ints = [[int(x * scale) * common * (n + 1) for x in row] for n, row in enumerate(rows)]
    assert rank(ints) == 3
    assert rank([row[:2] for row in ints]) == 2


_entry = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(st.lists(st.lists(_entry, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
def test_rank_det_match_sympy(rows):
    m = sp.Matrix([[sp.Rational(x) for x in row] for row in rows])
    assert rank(rows) == m.rank()
    assert (rank(rows) == 3) == (m.det() != 0)


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
