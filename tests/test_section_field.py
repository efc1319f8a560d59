"""Section geometry in the differential field against the expression-tree
code it replaced.

The tree versions of the section's derivatives, the equation residuals,
the ansatz pair, the inverse metric, the Weyl Christoffel symbols, the
Ricci tensor, d omega, the curvature anchor, Lambda and the Einstein
residual tensor are the oracle (the section's tree derivatives and pair
are ``tree_oracle.TreeSection``).  Every field result must equal the tree
result as a rational function, entry for entry, on the catalog (formal and
bound parameters) and on seeded pseudogroup moves of it.  The tree results are compared in
the section's field, after substituting its generators; on the catalog the
canonical expressions are compared on trees as well, in the sympy
canonical form of ``tree_oracle`` (``tree_normalize(a - b) == 0``).
"""

import random
import time

import pytest
import sympy as sp

from jetweyl import checks, exprcore, geometry, jets, sections, trees
from jetweyl.errors import (
    DivisionByZeroExpression,
    ExpAtomError,
    ExponentPolicyError,
    ExprError,
    SolutionError,
)
from jetweyl.exprcore import T, X, Y, MultiIndex, is_zero
from jetweyl.geometry import (
    Solution,
    WeylPair,
    build_pair,
    canonical_frame,
    catalog,
    check_EW,
    weyl_connection,
)
from jetweyl.jets import _jet_ring
import tree_oracle
from tree_oracle import (
    TreeSection,
    jet_poly,
    partial,
    sympy_poly,
    tree_at,
    tree_d_omega,
    tree_normalize,
)

_COORDS = (T, X, Y)

# ---------------------------------------------------------------------------
# the tree oracle


def tree_connection(g: sp.Matrix, w: sp.Matrix, sign: int):
    """The Weyl symbols [k][i][j] (Levi-Civita plus the covector
    correction) as unnormalized trees: the comparison normalizes each
    difference once."""
    ginv = g.inv()
    wup = [sum(ginv[k, m] * w[m] for m in range(3)) for k in range(3)]
    gamma = [
        [
            [
                sum(
                    ginv[k, m]
                    * (
                        partial(g[m, j], _COORDS[i])
                        + partial(g[m, i], _COORDS[j])
                        - partial(g[i, j], _COORDS[m])
                    )
                    for m in range(3)
                )
                / 2
                for j in range(3)
            ]
            for i in range(3)
        ]
        for k in range(3)
    ]
    chris = [
        [
            [
                gamma[k][i][j]
                + sign
                * (w[i] * (1 if j == k else 0) + w[j] * (1 if i == k else 0) - g[i, j] * wup[k])
                / 2
                for j in range(3)
            ]
            for i in range(3)
        ]
        for k in range(3)
    ]
    return chris


def tree_ricci(G) -> sp.Matrix:
    out = sp.zeros(3, 3)
    for i in range(3):
        for j in range(3):
            s = sp.Integer(0)
            for k in range(3):
                s += partial(G[k][i][j], _COORDS[k]) - partial(G[k][k][j], _COORDS[i])
                for m in range(3):
                    s += G[m][i][j] * G[k][k][m] - G[m][k][j] * G[k][i][m]
            out[i, j] = s
    return out


def tree_einstein(g: sp.Matrix, ric: sp.Matrix):
    rsym = (ric + ric.T) / 2
    ginv = g.inv()
    lam = sum(ginv[j, i] * rsym[i, j] for i in range(3) for j in range(3)) / 3
    return lam, sp.Matrix(3, 3, lambda i, j: rsym[i, j] - lam * g[i, j])


# ---------------------------------------------------------------------------
# the cases


def _flat(nested):
    if isinstance(nested, (tuple, list)):
        return [e for part in nested for e in _flat(part)]
    if isinstance(nested, sp.MatrixBase):
        return list(nested)
    return [nested]


def _in_field(sol: Solution, exprs) -> list:
    """Tree expressions as elements of the section's field: b -> B^m and
    exp(c*b) -> E^(c/s) for the field's generators B = b^(1/m) and
    E = exp(s*b).  Differentiates nothing."""
    sf = sol.field
    powers, exps = {}, {}
    for gen, value in sf.back.items():
        if isinstance(value, sp.exp):
            (b,) = value.args[0].free_symbols
            exps[b] = (gen, value.args[0].coeff(b))
        else:
            powers[value.base] = gen**value.exp.q

    def power_of(atom):
        (b,) = atom.args[0].free_symbols
        gen, scale = exps[b]
        return gen ** int(atom.args[0].coeff(b) / scale)

    return [
        sf.ring.convert(e.xreplace({a: power_of(a) for a in e.atoms(sp.exp)}).xreplace(powers))
        for e in map(sp.sympify, exprs)
    ]


def _same(sol: Solution, elements, tree) -> bool:
    """Field elements equal tree expressions, entry for entry."""
    fe, ft = _flat(elements), _flat(tree)
    assert len(fe) == len(ft)
    return all(sol.field.vanishes(a - b) for a, b in zip(fe, _in_field(sol, ft)))


def _exprs(sf, nested) -> list:
    """The canonical expressions of nested tuples of field elements, flat."""
    return [sf.expr(e) for e in _flat(nested)]


def _same_exprs(a, b) -> bool:
    """Canonical expressions equal tree expressions, on trees."""
    fa, fb = _flat(a), _flat(b)
    return len(fa) == len(fb) and all(tree_normalize(x - y) == 0 for x, y in zip(fa, fb))


# the bound parameters of the acceptance checks (geometry, equivalence,
# mutation) and the element kinds of the equivalence check, except that
# hierarchy gets no y-shift: a shifted hierarchy section is a large
# polynomial, and the tree oracle takes seconds on each one (the shift is
# exercised on trivial and dkp-partial)
_BOUND = {
    "dkp-partial": {"h": 0},
    "exp-family": {"f": 1, "h": 1},
    "sl2-family": {"f": 0, "h": 0},
    "sl2-degenerate": {"f": 0, "h": 0},
}
_KINDS = {
    "trivial": "free",
    "dkp-partial": "free",
    "hierarchy": "noshift",
    "exp-family": "noshift",
    "sl2-family": "cube",
    "sl2-degenerate": "cube",
}
_MOVES = 5


def _catalog_cases():
    for cid in geometry.CATALOG_IDS:
        yield pytest.param(cid, {}, id=f"{cid}-formal")
        if cid in _BOUND:
            yield pytest.param(cid, _BOUND[cid], id=f"{cid}-bound")


def _element(cid: str, n: int):
    rng = random.Random(1000 + geometry.CATALOG_IDS.index(cid))
    return checks._random_elements(rng, _KINDS[cid], count=_MOVES)[n]


def _moved(cid: str, n: int) -> Solution:
    return catalog(cid, **_BOUND.get(cid, {})).transform(_element(cid, n))


def _check_against_the_tree(sol: Solution, sign: int = -1, exprs: bool = False):
    """Every quantity of the section in the field against the tree; with
    ``exprs`` also the canonical expressions the public functions return."""
    tree = TreeSection(sol)
    sf = sol.field
    assert _same(sol, sol._residuals(), tree.residuals())
    g, w = tree.pair()
    pair = build_pair(sol)
    assert pair.field is sf
    assert _same(sol, pair.g, g)
    assert _same(sol, pair.omega, w)
    chris = tree_connection(g, w, sign)
    conn = weyl_connection(pair, correction_sign=sign)
    assert _same(sol, conn.ginv_f, g.inv())
    assert _same(sol, conn.christoffel_f, chris)
    # the tree Ricci tensor of the symbols just matched
    christoffel = [[_exprs(sf, row) for row in cell] for cell in conn.christoffel_f]
    ric = tree_ricci(christoffel)
    assert _same(sol, conn.ricci_elements(), ric)
    dw = tree_d_omega(w)
    dw_f = geometry._d_omega_of(sf, pair.omega)
    assert _same(sol, dw_f, dw)
    assert _same(sol, conn.anchor_elements(), (ric - ric.T) / 2 - dw * 3 / 2)
    lam, resid = tree_einstein(g, ric)
    field_lam, field_resid = conn.einstein_elements()
    assert _same(sol, field_lam, lam)
    assert _same(sol, field_resid, resid)
    if exprs:
        assert _same_exprs(tuple(map(sf.expr, sol._residuals())), tree.residuals())
        assert _same_exprs(_exprs(sf, pair.omega), w)
        assert _same_exprs(christoffel, chris)
        assert _same_exprs(_exprs(sf, conn.ricci_elements()), ric)
        assert _same_exprs(_exprs(sf, dw_f), dw)
        assert _same_exprs(_exprs(sf, field_resid), resid)
        if sign == -1:
            assert tree_normalize(check_EW(sol).lam - lam) == 0


@pytest.mark.parametrize("cid, kwargs", list(_catalog_cases()))
def test_catalog_geometry_matches_the_tree(cid, kwargs):
    _check_against_the_tree(catalog(cid, **kwargs), exprs=True)


@pytest.mark.parametrize("cid", geometry.CATALOG_IDS)
def test_moved_sections_match_the_tree(cid):
    for n in range(_MOVES):
        _check_against_the_tree(_moved(cid, n))


def test_flipped_sign_matches_the_tree():
    for cid in ("exp-family", "hierarchy", "sl2-family"):
        _check_against_the_tree(catalog(cid, **_BOUND.get(cid, {})), sign=+1, exprs=True)


def test_non_solution_residuals_match_the_tree():
    for u, v in (
        (X * Y, sp.Integer(0)),
        (Y ** sp.Rational(1, 2), X),
        (sp.exp(2 * Y - T / 3) * X, Y ** sp.Rational(3, 2) + T**2),
    ):
        sol = Solution(u, v, deferred=True)
        residuals = tuple(map(sol.field.expr, sol._residuals()))
        assert _same_exprs(residuals, TreeSection(sol).residuals())
        assert not all(tree_normalize(r) == 0 for r in residuals)


def test_jets_and_invariants_match_the_tree():
    from jetweyl.invariants import _order3, invariant

    sol = _moved("sl2-family", 0)
    sf, tree = sol.field, TreeSection(sol)
    for word in ("", "t", "x", "y", "xy", "ty", "yyy", "txy"):
        idx = MultiIndex.from_word(word)
        for dep in ("u", "v"):
            assert tree_normalize(sf.expr(sf.jet(dep, idx)) - tree.jet(dep, idx)) == 0
    assert geometry.invariants_on_solution(sol) == tuple(
        tree.subs(invariant(i)) for i in (1, 2, 3)
    )
    gen = _moved("hierarchy", 1)
    sf, tree = gen.field, TreeSection(gen)
    table = _order3()
    for f in table.twelve[:4]:
        assert tree_normalize(sf.expr(sf.subs(f)) - tree.subs(table.ring.to_expr(f))) == 0


def test_moves_and_signatures_build_no_trees(monkeypatch):
    """A moved section is its field: moving every catalog section and taking
    the signature of each non-singular result validates no input
    (``validate_kernel``) and converts neither moved value to a tree."""
    from jetweyl.equivalence import signature

    cases = [
        (catalog(cid, **_BOUND.get(cid, {})), _element(cid, 0)) for cid in geometry.CATALOG_IDS
    ]
    validated, converted = [], []
    validate, to_expr = geometry.validate_kernel, geometry.SectionField.expr

    def counted(e, **kw):
        validated.append(e)
        return validate(e, **kw)

    def watched(sf, f):
        converted.append(f)
        return to_expr(sf, f)

    monkeypatch.setattr(geometry, "validate_kernel", counted)
    monkeypatch.setattr(geometry.SectionField, "expr", watched)
    signed = 0
    for sol, el in cases:
        moved = sol.transform(el)
        if not moved.field.vanishes(moved.field.jet("u", "x")):
            signature(moved)
            signed += 1
        assert not [f for f in converted for value in moved.field.values if f is value]
    assert signed == 4 and validated == []


def test_a_field_built_solution_reads_its_trees_once():
    catalog.cache_clear()  # a shared entry may have printed its trees
    sol = catalog("hierarchy", w=X ** sp.Rational(3, 2))
    assert "u" not in vars(sol) and "v" not in vars(sol)
    assert str(sol) == "u = 3*x^(1/2)/2; v = 0"
    assert vars(sol)["u"] is sol.u and vars(sol)["v"] is sol.v


def test_hierarchy_residual_matches_the_tree():
    for w in (X**3, X**2 * Y + T, X * Y**2 + T**2 * X - Y**3 / 3):
        wx, wy = partial(w, "x"), partial(w, "y")
        tree = tree_normalize(
            partial(wx, "t") + wx * partial(wx, "y") - wy * partial(wx, "x") - partial(wy, "y")
        )
        sf, r, _, _ = geometry._hierarchy(w)
        assert sf.expr(r) == tree


# ---------------------------------------------------------------------------
# values at a point: SectionField.at against the tree at the point


def _point_cases():
    for cid in geometry.CATALOG_IDS:
        yield pytest.param(lambda cid=cid: catalog(cid, **_BOUND.get(cid, {})), id=f"{cid}-bound")
    yield pytest.param(lambda: catalog("exp-family"), id="exp-family-formal")
    # a move by E = 8 with D = 4t keeps the constant 2^(1/3)
    yield pytest.param(_radical_move, id="sl2-family-radical-move")
    yield pytest.param(
        lambda: Solution(
            X + sp.exp(2 * Y / 3), sp.exp(-T / 2) * Y + X ** sp.Rational(3, 2), deferred=True
        ),
        id="exp-atoms",
    )


def _radical_move() -> Solution:
    from jetweyl.symmetry import PseudogroupElement

    return catalog("sl2-family", f=0, h=0).transform(PseudogroupElement.make(d=4 * T, ee=8))


def _sampled_elements(sol: Solution) -> list:
    """The values, some jets, the pair, Lambda and the Einstein residual."""
    sf = sol.field
    conn = weyl_connection(build_pair(sol))
    lam, resid = conn.einstein_elements()
    jets = [sf.jet(dep, word) for dep in ("u", "v") for word in ("x", "xx", "ty")]
    return [*sf.values, *jets, *_flat(conn.pair.g), *conn.pair.omega, lam, *_flat(resid)]


@pytest.mark.parametrize("make", list(_point_cases()))
def test_values_at_a_point_match_the_tree(make):
    sol = make()
    sf, elements = sol.field, _sampled_elements(sol)
    rng = random.Random(77)
    points = []
    while len(points) < 3:
        p = tuple(sp.Rational(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
        if sol.in_domain(p):
            points.append(p)
    for p in points:
        C, values = sf.at(p, elements)
        assert len(values) == len(elements)
        subs = dict(zip(_COORDS, p))
        for f, value in zip(elements, values):
            assert is_zero(sf.expr(f).xreplace(subs) - C.expr(value))


def test_a_pole_at_the_point_raises():
    sol = catalog("sl2-degenerate", f=0, h=0)
    with pytest.raises(DivisionByZeroExpression, match=r"section at \(1, 1, 0\) has a pole"):
        sol.field.at((1, 1, 0), sol.field.values)
    # a fractional power has no real value where its base is not positive
    sol = catalog("sl2-family", f=0, h=0)
    with pytest.raises(SolutionError, match="fractional power of -1"):
        sol.field.at((0, 1, -1), sol.field.values)


# ---------------------------------------------------------------------------
# values at a point in integers: SectionField.at against tree_oracle.tree_at


def _outcome(at, sf, point, elements):
    """The canonical expressions (``srepr``) of the elements at the point,
    or the class and message of the refusal."""
    try:
        C, values = at(sf, point, elements)
    except (DivisionByZeroExpression, SolutionError) as exc:
        return type(exc), str(exc)
    return [sp.srepr(C.expr(v)) for v in values]


_YS = ("9/4", "8", "1/2", "12/5", "27")


def _joint_radicals() -> Solution:
    """2^(1/3) in the section; y^(1/2) at y = 2 or 1/2 brings 2^(1/2)."""
    two = sp.Integer(2) ** sp.Rational(1, 3)
    return Solution(two * Y ** sp.Rational(1, 2) + X, two * T + Y, deferred=True)


@pytest.mark.parametrize("make", [*_point_cases(), pytest.param(_joint_radicals, id="joint")])
def test_at_matches_the_two_field_tree_path(make):
    sol = make()
    sf, elements = sol.field, _sampled_elements(sol)
    compared = 0
    for y in (*_YS, "2"):
        for t, x in (("1/3", "3/2"), ("-1", "5/7"), ("2", "-2")):
            point = (t, x, y)
            got = _outcome(geometry.SectionField.at, sf, point, elements)
            assert got == _outcome(tree_at, sf, point, elements), point
            compared += isinstance(got, list)
    assert compared >= 12


def test_a_radical_of_the_section_joins_the_points_radical():
    sf = _joint_radicals().field
    for y in ("2", "1/2"):
        C, values = sf.at((1, 1, y), sf.values)
        assert list(C._readings) == [("radical", 2, 6)]
        assert [sp.srepr(C.expr(v)) for v in values] == [
            sp.srepr(C.expr(v)) for v in tree_at(sf, (1, 1, y), sf.values)[1]
        ]
    C, (u, _) = sf.at((1, 1, 2), sf.values)
    assert C.expr(u) == sp.Integer(2) ** sp.Rational(5, 6) + 1


def test_a_coordinate_with_a_large_prime_factor():
    q = sp.Rational(2**61 - 1, 3)
    sol = Solution(X * Y ** sp.Rational(1, 2), Y ** sp.Rational(1, 3), deferred=True)
    start = time.process_time()
    C, (u, v) = sol.field.at((1, 1, q), sol.field.values)
    assert time.process_time() - start < 0.5
    assert is_zero(C.expr(u) - sp.sqrt(q)) and is_zero(C.expr(v) - q ** sp.Rational(1, 3))
    assert _outcome(geometry.SectionField.at, sol.field, (1, 1, q), sol.field.values) == (
        _outcome(tree_at, sol.field, (1, 1, q), sol.field.values)
    )


@pytest.mark.parametrize(
    "cid, point, error, message",
    [
        (
            "sl2-degenerate",
            (1, 1, 0),
            DivisionByZeroExpression,
            "the section at (1, 1, 0) has a pole",
        ),
        (
            "sl2-family",
            (0, 1, -1),
            SolutionError,
            "the section at (0, 1, -1) leaves the representable domain: "
            "y**(1/3) moves to a fractional power of -1",
        ),
        (
            "sl2-family",
            (0, 1, sp.Rational(-1, 2)),
            SolutionError,
            "the section at (0, 1, -1/2) leaves the representable domain: "
            "y**(1/3) moves to a fractional power of -1/2",
        ),
    ],
)
def test_at_refuses_as_the_tree_path_does(cid, point, error, message):
    sf = catalog(cid, f=0, h=0).field
    for at in (geometry.SectionField.at, tree_at):
        assert _outcome(at, sf, point, sf.values) == (error, message)


def test_at_builds_no_field_and_no_tree(monkeypatch):
    """SectionField.at builds no SectionField and calls neither the
    rescaling nor the tree image of an auxiliary generator; the tree path,
    wrapped the same way, builds fields and rescales, and the two-field
    reflection of the tree oracle builds the tree images."""
    calls = {"field": 0, "rescaled": 0, "image": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        geometry.SectionField, "__init__", counted("field", geometry.SectionField.__init__)
    )
    rescaled = counted("rescaled", exprcore._rescaled)
    for module in (exprcore, trees):
        monkeypatch.setattr(module, "_rescaled", rescaled)
    image = counted("image", tree_oracle.tree_image_atom)
    monkeypatch.setattr(tree_oracle, "tree_image_atom", image)
    sections = [make().field for make in (_radical_move, _joint_radicals)]
    sections.append(catalog("exp-family", f=1, h=1).field)
    for name in ("field", "rescaled", "image"):
        calls[name] = 0
    for sf in sections:
        for y in _YS:
            sf.at((1, 2, y), sf.values)
    assert calls == {"field": 0, "rescaled": 0, "image": 0}
    for sf in sections:
        tree_at(sf, (1, 2, "9/4"), sf.values)
    assert calls["field"] == calls["rescaled"] == 2 * len(sections)
    # the exponential atoms of exp-family
    tree_oracle.two_field_reflected(sections[-1], "txy")
    assert calls["image"] > 0


def test_sampling_converts_no_element_of_the_section_field(monkeypatch):
    """signature, check_EW with points, i_regular and canonical_frame read
    their values at a point through SectionField.at: none converts an
    element of the section's own field to an expression.  The exact
    Lambda that check_EW reports, with or without points, is converted
    on first use of its ``lam``, once."""
    from jetweyl.equivalence import SamplerConfig, i_regular, signature

    fields, expr = [], geometry.SectionField.expr

    def watched(sf, f):
        fields.append(sf)
        return expr(sf, f)

    def conversions(sol, run) -> int:
        fields.clear()
        run(sol)
        return sum(sf is sol.field for sf in fields)

    monkeypatch.setattr(geometry.SectionField, "expr", watched)
    root = Solution(X ** sp.Rational(1, 2), X ** sp.Rational(1, 2))
    assert conversions(root, lambda s: signature(s, SamplerConfig(n=3))) == 0
    assert conversions(root, lambda s: i_regular(s, (1, 2, 3))) == 0
    pair = build_pair(catalog("hierarchy"))
    assert conversions(pair.solution, lambda s: canonical_frame(pair, (1, 2, 3))) == 0
    for make in (lambda: Solution(X * Y ** sp.Rational(1, 3), 0, deferred=True), lambda: root):
        # a non-Einstein section has a sampled residual, an Einstein one not
        sampled = conversions(make(), lambda s: check_EW(s, pts=[(0, 1, 1), (1, 2, 3)]))
        assert sampled == conversions(make(), check_EW) == 0
        assert conversions(make(), lambda s: (lambda rep: (rep.lam, rep.lam))(check_EW(s))) == 1


# ---------------------------------------------------------------------------
# inputs the field admits, and error classes


def test_radical_constants_are_reduced_exactly():
    # a move by E = 8 with D = 4t leaves 2^(1/3) in the coefficients
    from jetweyl.symmetry import PseudogroupElement

    el = PseudogroupElement.make(d=4 * T, ee=8)
    moved = catalog("sl2-family", f=0, h=0).transform(el)
    assert moved.checked
    assert geometry.invariants_on_solution(moved) == (
        sp.Rational(-3, 25),
        sp.Rational(21, 100),
        sp.Rational(-147, 500),
    )
    sf = moved.field
    r = sf.values[0] - sf.values[0]
    assert sf.vanishes(r)
    # 6^(1/2) and 2^(1/2)*3^(1/2) are one number
    both = Solution(sp.sqrt(6) * X, sp.sqrt(2) * sp.sqrt(3) * X, deferred=True)
    u, v = both.field.values
    assert both.field.vanishes(u - v)
    assert not both.field.vanishes(u - 2 * v)


def test_degenerate_metric_raises_solution_error():
    sol = catalog("trivial")
    sf = sol.field
    c = _jet_ring(0).convert
    g = [[sf.subs(c(e)) for e in row] for row in ((0, 2, 0), (2, 0, 0), (0, 0, 0))]
    pair = WeylPair(sol, sf, g, (sf.subs(c(0)),) * 3)
    with pytest.raises(SolutionError, match="degenerate"):
        weyl_connection(pair)


@pytest.mark.parametrize(
    "u, err",
    [
        (sp.sin(X), ExprError),
        ((X + 1) ** sp.Rational(1, 2), ExponentPolicyError),
        (sp.exp(X * Y), ExpAtomError),
        (X ** sp.Symbol("q"), ExprError),
    ],
)
def test_input_outside_the_term_language_raises(u, err):
    with pytest.raises(err):
        Solution(u, sp.Integer(0), deferred=True)


def test_formal_parameter_in_the_sampled_pass_raises():
    with pytest.raises(SolutionError, match="bind formal parameters"):
        check_EW(catalog("sl2-family"), pts=[(0, 1, 1)], correction_sign=+1)


def test_geometry_check_reports_a_witness(monkeypatch):
    # the flipped sign keeps trivial Einstein-Weyl and breaks the anchor of
    # dkp-partial first; the check must say where instead of raising
    monkeypatch.setattr(sections, "CORRECTION_SIGN", +1)
    ok, info = checks.REGISTRY["geometry"].run()
    assert ok is False
    assert info["witness"] == {
        "family": "dkp-partial",
        "quantity": "anchor",
        "entry": [0, 2],
        "residual": "6",
    }
    conn = weyl_connection(build_pair(catalog("dkp-partial")), correction_sign=+1)
    anchor = geometry.skew_anchor_residual(conn)
    assert anchor[0, 0] == anchor[0, 1] == 0 and anchor[0, 2] == 6


def test_checks_that_share_catalog_entries_rerun_alike(monkeypatch):
    """geometry, equivalence and mutation read the same catalog entries,
    and with them the connections cached under each sign: a second run
    answers as the first, and a flipped default sign is not answered by a
    connection of the other sign."""
    names = ("geometry", "equivalence", "mutation")
    first = [checks.REGISTRY[name].run() for name in names]
    assert all(ok for ok, _ in first)
    assert [checks.REGISTRY[name].run() for name in names] == first
    monkeypatch.setattr(sections, "CORRECTION_SIGN", +1)
    ok, info = checks.REGISTRY["geometry"].run()
    assert ok is False
    assert info["witness"]["family"] == "dkp-partial"
    assert info["witness"]["quantity"] == "anchor"


def test_the_lcm_of_one_term_polynomials_is_sympys(monkeypatch):
    """SectionField's common denominator takes the lcm of two one-term
    polynomials from their monomials and coefficients; it must be sympy's
    PolyElement.lcm over ZZ, on seeded signed pairs and on every such pair
    of an Einstein check."""
    R = jets._JetPolyRing(sp.symbols("a,b,c"))
    rng = random.Random(20)

    def term():
        monomial = tuple(rng.randint(0, 3) for _ in range(3))
        return R.dtype({monomial: rng.choice((-1, 1)) * rng.randint(1, 12)})

    def sympys(a, b):
        return jet_poly(a.ring, sympy_poly(a).lcm(sympy_poly(b)))

    signs = set()
    for _ in range(400):
        a, b = term(), term()
        assert jets._lcm(a, b) == sympys(a, b), (a, b)
        signs.add((max(a.values()) > 0, max(b.values()) > 0))
    assert len(signs) == 4
    (x, _, _) = R.gens
    assert jets._lcm(R.one, x * 3) == x * 3
    assert jets._lcm(R.one * -4, x * 6) == x * -12

    calls, lcm = [], jets._lcm

    def recorded(a, b):
        got = lcm(a, b)
        calls.append((a, b, got))
        return got

    monkeypatch.setattr(jets, "_lcm", recorded)
    catalog.cache_clear()
    assert check_EW(catalog("sl2-family", f=0, h=0)).ok
    one_term = [(a, b, got) for a, b, got in calls if len(a) == len(b) == 1]
    assert len(one_term) > 10
    for a, b, got in one_term:
        assert got == sympys(a, b), (a, b)


def test_geometry_check_passes_without_a_witness():
    ok, info = checks.REGISTRY["geometry"].run()
    assert ok and "witness" not in info
    assert "reductions_failed" not in info


def test_a_passing_geometry_check_converts_no_residual(monkeypatch):
    # the witness scan tests the entries in the field; when the check
    # passes, none of them is converted to an expression
    inside, calls = [False], {True: 0, False: 0}
    expr, witness = geometry.SectionField.expr, checks._residual_witness

    def counted(self, f):
        calls[inside[0]] += 1
        return expr(self, f)

    def scan(cid, conn):
        inside[0] = True
        try:
            return witness(cid, conn)
        finally:
            inside[0] = False

    monkeypatch.setattr(geometry.SectionField, "expr", counted)
    monkeypatch.setattr(checks, "_residual_witness", scan)
    # cold entries: the scan then also builds the curvature it tests
    geometry.catalog.cache_clear()
    ok, _ = checks.REGISTRY["geometry"].run()
    assert ok
    assert calls[True] == 0 and calls[False] > 0


@pytest.mark.parametrize("reduction", ["dkp", "hierarchy"])
def test_geometry_check_requires_the_reductions(monkeypatch, reduction):
    monkeypatch.setattr(geometry, f"{reduction}_reduction_check", lambda: False)
    ok, info = checks.REGISTRY["geometry"].run()
    assert ok is False
    assert info["reductions_failed"] == [reduction]
