"""Exact rank over the rationals, checked against sympy on random input, and
the full-rank certificate mod p against Bareiss's elimination."""

import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from jetweyl import linalg
from jetweyl.linalg import _P, _bareiss_rank, _rank_mod_p, rank


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


# ---------------------------------------------------------------------------
# the certificate mod p and the Bareiss fallback


@pytest.fixture
def bareiss_calls(monkeypatch):
    """The number of matrices ``rank`` has handed to Bareiss's elimination."""
    calls = []

    def counting(mat):
        calls.append(len(mat))
        return _bareiss_rank(mat)

    monkeypatch.setattr(linalg, "_bareiss_rank", counting)
    return calls


def _integer_rows(rows):
    """Rows cleared of denominators: the input of ``_bareiss_rank``."""
    out = []
    for row in rows:
        scale = math.lcm(*(Fraction(x).denominator for x in row))
        out.append([int(Fraction(x) * scale) for x in row])
    return out


def _seeded(rng, nrows, ncols, r, entry):
    """A seeded (nrows x r)(r x ncols) product: rank min(nrows, ncols, r)
    for almost every draw."""
    left = [[entry() for _ in range(r)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(r)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


@pytest.mark.parametrize("kind", ["int", "Fraction"])
def test_certificate_and_fallback_agree_with_bareiss(kind, bareiss_calls):
    rng = random.Random(28)
    if kind == "int":
        entry = lambda: rng.randint(-10**9, 10**9)  # noqa: E731
    else:
        entry = lambda: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))  # noqa: E731
    shapes = {  # (rows, cols, inner dimension)
        "square": (6, 6, 6),
        "wide": (5, 9, 5),
        "tall": (9, 4, 4),
        "deficient square": (6, 6, 4),
        "deficient wide": (5, 9, 3),
        "deficient tall": (9, 4, 2),
    }
    for name, (nrows, ncols, r) in shapes.items():
        rows = _seeded(rng, nrows, ncols, r, entry)
        want = _bareiss_rank(_integer_rows(rows))
        assert want == r, name
        before = len(bareiss_calls)
        assert rank(rows) == want, name
        # full rank is certified mod p; a deficient rank goes to Bareiss
        assert len(bareiss_calls) - before == (r < min(nrows, ncols)), name


def test_full_rank_matrices_singular_mod_p_go_through_the_fallback(bareiss_calls):
    q = 2**31 - 1
    # diag(p, 1): dividing the first row by its content p leaves (1, 0),
    # which the certificate already sees
    assert rank([[_P, 0], [0, 1]]) == 2
    assert rank([[Fraction(_P, 3), 0], [0, Fraction(1, 5)]]) == 2
    assert bareiss_calls == []
    # primitive rows with determinants p and p*q: singular mod p, of full
    # rank over QQ
    two = [[_P, 1], [0, 1]]
    three = [[_P, 1, 0], [0, q, 1], [0, 0, 1]]
    # the same 3x3 times a unimodular matrix, so no entry is 0 or p
    mixed = [[sum(a * b for a, b in zip(row, col)) for col in zip(*[[1, 2, 3], [0, 1, 4], [0, 0, 1]])]
             for row in three]
    for rows in (two, three, mixed, [[Fraction(x, 7) for x in row] for row in mixed]):
        n = len(rows)
        assert _rank_mod_p(_integer_rows(rows)) < n
        before = len(bareiss_calls)
        assert rank(rows) == n
        assert len(bareiss_calls) == before + 1
    assert sp.Matrix(mixed).det() == _P * q


def test_rank_of_rows_near_2_to_the_200(bareiss_calls):
    rng = random.Random(200)
    near = lambda: 2**200 + rng.randint(-2**20, 2**20)  # noqa: E731
    full = [[near() for _ in range(6)] for _ in range(4)]
    assert rank(full) == _bareiss_rank([row[:] for row in full]) == 4
    assert bareiss_calls == []
    # four rows in the span of two rows of such entries
    a, b = ([near() for _ in range(6)] for _ in range(2))
    weights = [(rng.randint(1, 9), rng.randint(-9, -1)) for _ in range(4)]
    deficient = [[x * c + y * d for x, y in zip(a, b)] for c, d in weights]
    assert rank(deficient) == sp.Matrix(deficient).rank() == 2
    assert bareiss_calls == [4]


def test_empty_and_zero_matrices(bareiss_calls):
    # no rows or no columns: rank 0 is already full
    assert rank([]) == rank([[], [], []]) == 0
    assert bareiss_calls == []
    assert rank([[0, 0, 0], [0, 0, 0]]) == rank([[Fraction(0)] * 4]) == 0
    assert bareiss_calls == [2, 1]
