"""Signature clouds: sampling, branch handling, comparison, serialization."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jetweyl.clouds import (
    SignatureCloud,
    cloud_from_json,
    cloud_to_json,
    compare,
)
from jetweyl.equivalence import (
    SamplerConfig,
    halton,
    i_regular,
    jet_cloud,
    signature,
)
from jetweyl.errors import ComparisonError, SingularLocusError, SolutionError
from jetweyl.exprcore import T, X, Y, jet
from jetweyl.invariants import _order3
from jetweyl.dsl import parse_solution
from jetweyl.geometry import Solution, catalog
from jetweyl.jets import internal_indices, ms_system
from jetweyl.symmetry import PseudogroupElement


def test_halton_radical_inverse():
    assert [halton(i, 2) for i in (1, 2, 3, 4)] == [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(3, 4),
        Fraction(1, 8),
    ]
    assert halton(1, 3) == Fraction(1, 3)


@given(st.integers(1, 10_000), st.sampled_from((2, 3, 5)))
def test_halton_stays_in_unit_interval(i, base):
    assert 0 < halton(i, base) < 1


def test_sampler_is_deterministic():
    # stream() is endless; consumers slice what they need
    from itertools import islice

    a = SamplerConfig(seed=3, n=4)
    b = SamplerConfig(seed=3, n=4)
    assert list(islice(a.stream(), 4)) == list(islice(b.stream(), 4))
    c = SamplerConfig(seed=4, n=4)
    assert list(islice(a.stream(), 4)) != list(islice(c.stream(), 4))


# -- branch behavior -------------------------------------------------------


def test_singular_branch():
    with pytest.raises(SingularLocusError) as err:
        signature(catalog("trivial"))
    assert "u_x = 0 identically" in str(err.value)


def test_unbound_parameters_rejected():
    with pytest.raises(SolutionError):
        signature(catalog("sl2-family"))  # f, h still formal


def test_constant_cloud_sl2():
    cloud = signature(catalog("sl2-family", f=0, h=0))
    assert len(cloud) == 1
    assert cloud.precision == "exact"
    assert cloud.regular is False
    assert cloud.values[0][:3] == (
        Fraction(-3, 25),
        Fraction(21, 100),
        Fraction(-147, 500),
    )
    assert all(z == 0 for z in cloud.values[0][3:])
    assert any("u_xx = 0 stratum" in note for note in cloud.notes)


def test_constant_cloud_exp():
    cloud = signature(catalog("exp-family", f=1, h=1))
    assert cloud.values[0][:3] == (Fraction(0), Fraction(0), Fraction(0))


def test_signature_is_reproducible():
    sol = catalog("sl2-family", f=0, h=0)
    assert signature(sol).values == signature(sol).values


# -- comparison ------------------------------------------------------------


def test_compare_separates_the_two_constant_families():
    c_sl2 = signature(catalog("sl2-family", f=0, h=0))
    c_exp = signature(catalog("exp-family", f=1, h=1))
    rep = compare(c_sl2, c_exp)
    assert rep.verdict == "distinct"
    assert rep.hausdorff > 0.2


def test_compare_is_reflexive_and_symmetric():
    c_sl2 = signature(catalog("sl2-family", f=0, h=0))
    c_exp = signature(catalog("exp-family", f=1, h=1))
    assert compare(c_sl2, c_sl2).verdict == "equivalent-evidence"
    assert compare(c_sl2, c_exp).hausdorff == compare(c_exp, c_sl2).hausdorff


def _constant(value, precision="exact", n=1) -> SignatureCloud:
    """A cloud of n points that all carry the 12-vector (value, 0, ..., 0)."""
    row = (value,) + (type(value)(0),) * 11
    point = (Fraction(0), Fraction(0), Fraction(0))
    return SignatureCloud(points=(point,) * n, values=(row,) * n, precision=precision)


def test_compare_verdict_is_monotone_in_tol():
    # the tolerance decides float64 clouds only
    c_sl2 = signature(catalog("sl2-family", f=0, h=0))
    c_exp = signature(catalog("exp-family", f=1, h=1))
    f_sl2, f_exp = (
        SignatureCloud(c.points, tuple(tuple(map(float, r)) for r in c.values), "float64")
        for c in (c_sl2, c_exp)
    )
    assert compare(f_sl2, f_exp, tol=1e-12).verdict == "distinct"
    assert compare(f_sl2, f_exp, tol=10.0).verdict == "equivalent-evidence"
    verdicts = [compare(f_sl2, f_exp, tol=t).verdict for t in (1e-12, 1e-3, 0.1, 1.0, 10.0)]
    assert verdicts == sorted(verdicts)  # "distinct" < "equivalent-evidence"


@pytest.mark.parametrize(
    "a, b",
    [
        # hausdorff 1/3, below the tolerance 1e-9 * (1 + 10^9)
        (Fraction(10**9), Fraction(10**9) + Fraction(1, 3)),
        # hausdorff 1e-12, below the tolerance 1e-9 * 2
        (Fraction(1), 1 + Fraction(1, 10**12)),
    ],
)
def test_exact_clouds_are_decided_exactly(a, b):
    rep = compare(_constant(a), _constant(b))
    assert rep.verdict == "distinct"
    assert 0 < rep.hausdorff < rep.tol * (1 + rep.scale)
    assert compare(_constant(b), _constant(a)).verdict == "distinct"
    assert compare(_constant(a), _constant(a, n=3)).verdict == "equivalent-evidence"
    for tol in (0.0, 1e-9, 10.0):
        assert compare(_constant(a), _constant(b), tol=tol).verdict == "distinct"
    # the same values as doubles fall within the tolerance
    floats = compare(_constant(float(a), "float64"), _constant(float(b), "float64"))
    assert floats.verdict == "equivalent-evidence"


def test_compare_requires_matching_precision():
    c = signature(catalog("sl2-family", f=0, h=0))
    other = SignatureCloud(points=c.points, values=c.values, precision="float64")
    with pytest.raises(ComparisonError):
        compare(c, other)


def test_a_sampled_float_cloud_is_labelled_float64():
    # u = v = x^(1/2) solves the system (v*u_x and v*v_x are constant) with
    # I1 = -x^(-1/2), irrational at x = 2.  Every catalog section has
    # constant invariants and gets the one-point exact cloud instead.
    text = parse_solution("u = x^(1/2) ; v = x^(1/2)")
    sol = Solution(text["u"], text["v"])
    at_2 = signature(sol, SamplerConfig(n=3, box=((-2, 2), (2, 2), (-2, 2))))
    assert at_2.precision == "float64"
    assert all(type(v) is float for row in at_2.values for v in row)
    assert at_2.values[0][0] == -(2 ** -0.5)
    assert cloud_from_json(cloud_to_json(at_2)) == at_2
    at_1 = signature(sol, SamplerConfig(n=3, box=((-2, 2), (1, 1), (-2, 2))))
    assert at_1.precision == "exact"
    with pytest.raises(ComparisonError, match="float64 vs exact"):
        compare(at_2, at_1)


def test_compare_sparse_clouds_inconclusive():
    c = signature(catalog("sl2-family", f=0, h=0))
    empty = SignatureCloud((), (), "exact", "empty")
    assert compare(c, empty).verdict == compare(empty, c).verdict == "inconclusive"


# -- group invariance ------------------------------------------------------

# E*sqrt(D') kept a perfect cube so the fractional powers of the transformed
# section stay rational; radical coefficients make the residual check crawl
_ELEMENTS = (
    PseudogroupElement.make(d=T + 1),
    PseudogroupElement.make(d=4 * T, ee=4),
    PseudogroupElement.make(d=T, a=T**2),
    PseudogroupElement.make(d=T, c=T),
    PseudogroupElement.make(d=9 * T, a=1, c=2 * T, ee=9),
)


@pytest.mark.parametrize("idx", range(len(_ELEMENTS)))
def test_cloud_invariant_under_group_action(idx):
    sol = catalog("sl2-family", f=0, h=0)
    base = signature(sol)
    moved = signature(sol.transform(_ELEMENTS[idx]))
    assert moved.values == base.values
    assert compare(base, moved).verdict == "equivalent-evidence"


def test_i_regular_fails_on_the_constant_families():
    assert i_regular(catalog("exp-family", f=1, h=1), (0, 0, 0)) is False
    with pytest.raises(SingularLocusError):
        i_regular(catalog("trivial"), (0, 0, 0))


def test_i_regular_accepts_independent_differentials(monkeypatch):
    # every catalog family has constant invariants, so hand-build the
    # three functions the Jacobian is taken of, on a section with u_x != 0,
    # as the invariants of the order-3 table
    from types import SimpleNamespace

    from jetweyl import equivalence
    from jetweyl.jets import _jet_ring

    sol = catalog("exp-family", f=1, h=1)
    functions = [T + X * Y, Y**2, T * X + Y**3]
    ring = _jet_ring(0)
    monkeypatch.setattr(
        equivalence, "_order3", lambda: SimpleNamespace(I=tuple(map(ring.convert, functions)))
    )
    assert i_regular(sol, (1, 2, 3)) is True
    # (T + X)^2 * Y is a function of the first two: the determinant vanishes
    functions = [T + X, Y, (T + X) ** 2 * Y]
    assert i_regular(sol, (1, 2, 3)) is False


# -- generic stratum, probed at the jet level ------------------------------

_RICH_INTERNAL = {
    "u_x": Fraction(3, 2),
    "u_xx": Fraction(-2, 3),
    "v_x": Fraction(2, 5),
    "u_y": Fraction(1, 3),
    "u_xy": Fraction(-1, 2),
    "u_yy": Fraction(2, 5),
    "v_xx": Fraction(1, 7),
}


def test_jet_cloud_evaluates_and_skips_singular_points():
    sys_ = ms_system()
    good = sys_.point(4, internal=_RICH_INTERNAL)
    bad = sys_.point(4, internal={"u_xx": Fraction(1)})  # u_x = 0 there
    cloud = jet_cloud([good, bad])
    assert len(cloud) == 1
    assert cloud.provenance == "equation-points"
    assert any("skipped 1" in n for n in cloud.notes)
    from jetweyl.invariants import invariant

    assert cloud.values[0][0] == good.eval(invariant(1))


def test_jet_cloud_all_singular_raises():
    sys_ = ms_system()
    with pytest.raises(SingularLocusError):
        jet_cloud([sys_.point(2, internal={"u_xx": Fraction(1)})])


def _order3_point(rng, *zero):
    internal = {
        jet(dep, idx): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
        for dep in "uv"
        for idx in internal_indices(3)
    }
    internal.update({jet(*name.split("_")): Fraction(0) for name in zero})
    base = {c: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for c in "txy"}
    return ms_system().point(3, base=base, internal=internal)


def test_jet_cloud_matches_the_tree_invariants_entry_for_entry():
    # the ring evaluation against the tree path it replaced: the twelve
    # invariants as expressions, evaluated by JetPoint.eval
    rng = random.Random(2024)
    points = [_order3_point(rng) for _ in range(22)]
    points.insert(5, _order3_point(rng, "u_xx"))  # u_xx = 0: skipped
    points.append(_order3_point(rng, "u_xy", "u_yy", "v_x"))  # I2 = 0
    cloud = jet_cloud(points)
    kept = [p for i, p in enumerate(points) if i != 5]
    assert cloud.notes == ("skipped 1 singular points",)
    assert cloud.points == tuple((p.base["t"], p.base["x"], p.base["y"]) for p in kept)
    twelve = [_order3().ring.to_expr(f) for f in _order3().twelve]
    want = tuple(tuple(p.eval(e) for e in twelve) for p in kept)
    assert cloud.values == want
    assert all(isinstance(v, Fraction) for row in cloud.values for v in row)
    # integer values stay Fractions, written to an exact cloud file as strings
    assert cloud.values[-1][1] == 0
    written = json.loads(cloud_to_json(cloud))["values"]
    integral = [
        (r, c)
        for r, row in enumerate(cloud.values)
        for c, v in enumerate(row)
        if v.denominator == 1
    ]
    for r, c in integral:
        assert type(cloud.values[r][c]) is Fraction
        assert written[r][c] == str(cloud.values[r][c])


def test_jet_cloud_of_singular_points_only_raises():
    rng = random.Random(5)
    singular = [_order3_point(rng, "u_x"), _order3_point(rng, "u_xx")]
    with pytest.raises(SingularLocusError):
        jet_cloud(singular)


def test_three_parameter_slice_has_tangent_rank_three():
    # a curved 3-parameter image spans more than 3 linear directions, so the
    # honest exact statement is about the differential, not the affine span
    from jetweyl.exprcore import jet
    from tree_oracle import partial
    from jetweyl.linalg import rank

    sys_ = ms_system()
    reduced = [sys_.reduce(_order3().ring.to_expr(f)) for f in _order3().twelve]
    jp = sys_.point(4, internal=_RICH_INTERNAL)
    cols = [jet("u", "x"), jet("u", "xx"), jet("v", "x")]
    rows = [[jp.eval(partial(e, s)) for s in cols] for e in reduced]
    assert rank(rows) == 3


# -- serialization ---------------------------------------------------------


def test_json_round_trip():
    cloud = signature(catalog("sl2-family", f=0, h=0))
    text = cloud_to_json(cloud)
    again = cloud_from_json(text)
    assert again.points == cloud.points
    assert again.values == cloud.values
    assert again.precision == cloud.precision
    assert again.regular == cloud.regular
    assert compare(cloud, again).verdict == "equivalent-evidence"


def test_json_rejects_malformed_payloads():
    with pytest.raises(ComparisonError):
        cloud_from_json("{\"points\": 3}")
    with pytest.raises(ComparisonError):
        cloud_from_json("not json at all")
