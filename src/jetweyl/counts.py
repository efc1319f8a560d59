"""Closed-form counts: jet-space and equation dimensions, and the numbers
of independent differential invariants with their Poincare series.

Integer arithmetic only, so the commands that print these numbers start
without the symbolic layers; :func:`poincare_text` prints a Poincare
function as ``exprcore.to_text`` prints its sympy form.

Counting internal multi-indices (a, b, c) with a*b = 0 and a+b+c <= k gives
(k+1)^2 per dependent variable, whence

    dim (k-jet space)            = 3 + 2*C(k+3, 3),
    dim (equation submanifold_k) = 3 + 2*(k+1)^2   for k >= 2,

with the low orders 5 (k=0) and 11 (k=1) where no equation constrains yet.
"""

from __future__ import annotations

from math import comb

from .errors import read_only

__all__ = [
    "DimRecord",
    "dims",
    "CountRecord",
    "counting",
    "poincare_coefficients",
    "poincare_text",
]


class DimRecord:
    def __init__(
        self, k: int, dim_jet_space: int, dim_equation: int, internal_per_dependent: int
    ):
        self.__dict__.update(
            k=k,
            dim_jet_space=dim_jet_space,
            dim_equation=dim_equation,
            internal_per_dependent=internal_per_dependent,
        )

    __setattr__ = __delattr__ = read_only


def dims(k: int) -> DimRecord:
    """Dimension count at jet order k.

    dim J^k = 3 + 2*C(k+3,3); the equation submanifold has dimension
    3 + 2*(k+1)^2 for k >= 2 (5 and 11 at orders 0 and 1, where the
    second-order equations impose nothing); each dependent variable
    contributes (k+1)^2 internal coordinates.
    """
    if k < 0:
        raise ValueError("jet order must be non-negative")
    dim_jet = 3 + 2 * comb(k + 3, 3)
    if k >= 2:
        dim_eq = 3 + 2 * (k + 1) ** 2
    else:
        dim_eq = dim_jet  # 5 at k=0, 11 at k=1
    return DimRecord(k, dim_jet, dim_eq, (k + 1) ** 2)


#: each Poincare function as N(z) / (1 - z)^n: (coefficients of N, n)
_POINCARE = {
    "ms": ((0, 0, 3, 3, -2), 2),
    "weyl": ((0, 0, 13, -9, 0, 1), 3),
    "ew-general": ((0, 0, 8, -1, -1), 2),
}


def _pure_count(series: str, k: int) -> int:
    if k < 2:
        return 0
    if series == "ms":
        return 3 if k == 2 else 4 * k - 3
    if series == "weyl":
        return 13 if k == 2 else (5 * k**2 + 7 * k - 6) // 2
    if series == "ew-general":
        return 8 if k == 2 else 3 * (2 * k - 1)
    raise ValueError(f"unknown series {series!r}")


class CountRecord:
    def __init__(self, k: int, s: int, h: int, series: str):
        self.__dict__.update(k=k, s=s, h=h, series=series)

    __setattr__ = __delattr__ = read_only


def _poincare(series: str) -> tuple[tuple[int, ...], int]:
    if series not in _POINCARE:
        raise ValueError(f"unknown series {series!r}")
    return _POINCARE[series]


def _poincare_coefficient(series: str, m: int) -> int:
    """The coefficient of z^m: N(z) times the binomial series
    (1 - z)^-n = sum_i C(i + n - 1, n - 1) z^i."""
    numerator, n = _poincare(series)
    return sum(
        c * comb(m - j + n - 1, n - 1) for j, c in enumerate(numerator) if j <= m
    )


def poincare_coefficients(series: str, upto: int) -> list[int]:
    """Taylor coefficients h_0..h_upto of the closed-form counting series."""
    return [_poincare_coefficient(series, m) for m in range(upto + 1)]


def _polynomial_text(coeffs) -> str:
    """A polynomial in z by ascending powers, as ``exprcore.to_text`` prints
    it: ``-13*z^2 + 9*z^3 - z^5``."""
    terms = []
    for j, c in enumerate(coeffs):
        power = "z" if j == 1 else f"z^{j}"
        if c:
            terms.append(str(c) if j == 0 else {1: power, -1: "-" + power}.get(c, f"{c}*{power}"))
    return " + ".join(terms).replace(" + -", " - ")


def poincare_text(series: str) -> str:
    """The Poincare function N(z)/(1 - z)^n of a series as ``exprcore.to_text``
    prints it: both sides expanded, with the signs that make the leading
    coefficient of the denominator positive.  N(1) is not 0 for any series,
    so nothing cancels."""
    numerator, n = _poincare(series)
    sign = (-1) ** n
    num = _polynomial_text([sign * c for c in numerator])
    den = _polynomial_text([sign * (-1) ** j * comb(n, j) for j in range(n + 1)])
    return f"({num})/({den})"


def counting(series: str, k: int) -> CountRecord:
    """Number of independent invariants: cumulative s_k and pure-order h_k.

    The closed-form h_k is cross-checked against the z^k coefficient of
    the Poincare function, in exact integer arithmetic, on every call.
    """
    if k < 0:
        raise ValueError("order must be non-negative")
    h = _pure_count(series, k)
    coeff = _poincare_coefficient(series, k)
    if coeff != h:
        raise AssertionError(
            f"series {series}: closed form h_{k}={h} but Poincare "
            f"coefficient is {coeff}"
        )
    s = sum(_pure_count(series, m) for m in range(k + 1))
    if series == "ms" and k >= 2:
        assert s == 2 * k**2 - k - 3
    return CountRecord(k, s, h, series)
