"""Pseudogroup elements in the field of t, and the field's printer of root
generators, against the sympy code they replaced.

``sections.read_element`` reads an element's DSL text, checks it and keeps
its data in the field of t; ``symmetry.PseudogroupElement`` builds the same
``sections.Element`` from sympy trees.  The oracles are the sympy checks of
the old constructor (``tree_oracle.tree_element_checks``: ``sp.Poly``,
``count_roots``) and the old reading of the data at the preimage time
(``tree_oracle.tree_element_data``: the trees at t_s, then
``trees.section_ring``).  The Sturm count, the int factoring and the root
printer each have a sympy oracle of their own: ``Poly.count_roots``,
``factorint`` and ``tree_oracle.tree_text``.
"""

import random
from fractions import Fraction

import pytest
import sympy as sp

from jetweyl import sections, syntax
from jetweyl.dsl import from_tree
from jetweyl.errors import ExprError, PseudogroupError, SolutionError
from jetweyl.exprcore import T, X, Y, formal
from jetweyl.symmetry import PseudogroupElement
from tree_oracle import tree_element_checks, tree_element_data, tree_text

# ---------------------------------------------------------------------------
# the Sturm count and the factoring


def _roots_poly(rng) -> sp.Poly:
    """A product of (t - r)^k over rational r (0 among them), of t^2 + c
    with no real root, and a large constant."""
    p = sp.Integer(rng.choice([1, -1, 10**30 + 7, -(3**40)]))
    for _ in range(rng.randint(0, 4)):
        r = rng.choice([0, 1, -2, sp.Rational(1, 3), sp.Rational(-7, 5), 10**12])
        p *= (T - r) ** rng.randint(1, 3)
    for _ in range(rng.randint(0, 2)):
        p *= T**2 + rng.choice([1, 2, sp.Rational(1, 10**9)])
    return sp.Poly(p, T, domain="QQ")


def test_the_sturm_count_matches_count_roots():
    rng = random.Random(2041)
    polys = [_roots_poly(rng) for _ in range(150)]
    # double roots, a root at 0 and large coefficients are all there
    assert any(sp.Poly(p.as_expr().subs(T, 0), T).is_zero for p in polys)
    assert any(max(map(abs, p.all_coeffs())) > 10**25 for p in polys)
    assert any(sp.degree(sp.gcd(p, p.diff(T))) > 0 for p in polys)
    for p in polys:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
        assert sections._real_roots(coeffs) == p.count_roots(), p


@pytest.mark.parametrize(
    "n",
    [1, 2, 97, 1000, 999983 * 1000003, 10**12 + 39, 2**61 - 1, 3**40, 997 * 991 * 1009**2,
     (10**6 + 3) ** 2, 600851475143, 2**10 * 10**9 + 7],
)
def test_the_factoring_matches_factorint(n):
    assert sections._factor(n) == dict(sp.factorint(n))


def test_the_factoring_matches_factorint_on_seeded_ints():
    rng = random.Random(4141)
    for _ in range(300):
        n = rng.randint(1, 10**15) * rng.choice([1, 1, 999983, 1000003 * 1000033])
        assert sections._factor(n) == dict(sp.factorint(n)), n
    # a semiprime above 10^12 splits into its two primes
    assert sections._factor(1000003 * 1000033) == {1000003: 1, 1000033: 1}


# ---------------------------------------------------------------------------
# the printer of root generators

_F = formal("f")
_ROOT_POOL = [
    T, X, Y, _F,
    T ** sp.Rational(1, 2), X ** sp.Rational(1, 3), Y ** sp.Rational(1, 3),
    Y ** sp.Rational(2, 3), Y ** sp.Rational(5, 3), X ** sp.Rational(3, 2), T ** sp.Rational(1, 6),
]


def _root_poly(rng, terms: int):
    out = sp.Integer(0)
    for _ in range(terms):
        m = sp.Integer(rng.choice([1, -1]) * rng.choice([1, 1, 2, 3, 5]))
        for _ in range(rng.randint(0, 3)):
            m *= rng.choice(_ROOT_POOL) ** rng.randint(1, 3)
        out += m
    return out


def _root_corpus() -> list:
    """Seeded quotients of sums of products of fractional powers, and the
    cases where the sign of a denominator turns on the rank of a root."""
    rng = random.Random(4101)
    out = [
        1 / (T - Y ** sp.Rational(1, 3)), 1 / (T - Y), (X - Y ** sp.Rational(2, 3)) / (T - X**2),
        Y ** sp.Rational(2, 3) + Y, 1 / Y ** sp.Rational(1, 3), -X ** sp.Rational(1, 2) / 3,
    ]
    while len(out) < 300:
        num, den = _root_poly(rng, rng.randint(1, 4)), _root_poly(rng, rng.choice([1, 1, 2, 3]))
        if den != 0:
            out.append(num / den * sp.Rational(rng.choice([1, 1, 2, 3]), rng.choice([1, 2, 3, 5])))
    return out


def _root_features(sf, f, text: str) -> set:
    found = set()
    if "^(" in text:
        found.add("fractional power")
    roots = {sf.ring.index[k] for k in sf._readings}
    below = any(i in roots for m in f.denom for i, _ in sf.ring.ring.pairs(m))
    if below:
        found.add("root below")
    if text.startswith(("-", "(-")):
        found.add("negative leading term")
    if len(f.denom) > 1 and below:
        found.add("root in a multi-term denominator")
    if "f(t)" in text:
        found.add("formal function")
    return found


def test_the_root_printer_matches_the_sympy_path():
    features = set()
    for e in _root_corpus():
        sf = sections.SectionField((e,))
        (f,) = sf.values
        if sf._readings:
            assert sf.rooted(f), e
        got = sections.text(sf, f)
        assert got == tree_text(e), e
        features |= _root_features(sf, f, got)
    assert features >= {
        "fractional power", "root below", "negative leading term",
        "root in a multi-term denominator", "formal function",
    }


def test_a_root_merged_with_its_base_prints_one_power():
    # y^(2/3) + y in the field of y^(1/3): B^2 + B^3, and y^(1/3)*x^3*y
    for e, want in ((Y ** sp.Rational(2, 3) + Y, "y^(2/3) + y"), (Y ** sp.Rational(4, 3) * X**3, "x^3*y^(4/3)")):
        sf = sections.SectionField((e,))
        assert sections.text(sf, sf.values[0]) == want == tree_text(e)


def test_the_denominator_sign_turns_on_the_rank_of_a_root():
    # sympy orders the symbol of y^(1/3) after t, and y before t
    texts = [sections.text(sf, sf.values[0]) for sf in (
        sections.SectionField((1 / (T - Y ** sp.Rational(1, 3)),)),
        sections.SectionField((1 / (T - Y),)),
    )]
    assert texts == ["1/(t - y^(1/3))", "(-1)/(-t + y)"]


# ---------------------------------------------------------------------------
# elements: the reader, the sympy front door and the old checks

_AFFINE = ["t", "2*t", "3*t", "t/2", "2*t + 1", "t/4 - 1/3", "9*t + 2/3", "t + (1)", "(1)*t + (-2)", "(t^2 - 1)/(t - 1)"]
_NOT_AFFINE = ["t^2", "t^3 + t", "1/(t^2 + 1)", "t^(1/2)", "5", "0", "-2*t + 1", "0*t + 3", "t - t"]
_POSITIVE = ["1", "8", "t^2 + 1", "(t^2 + 2)/(t^4 + 1)", "3/(2*t^2 + 3)", "(t - 1)^2 + 1/100"]
_NOT_POSITIVE = [
    "t + 1/2", "3*t^2 - t + 1/20", "1/(t^2 - 1)", "-1 - t^2", "0", "t^2", "(t - 1)^2", "1/t^2",
    "t^(1/2)", "-3", "-1/2",
]
_DATUM = [
    "0", "1", "t", "t^2/2 - 3", "1/(t - 5)", "(t + 1)/(t^2 + 3)", "t^(1/2)", "t^(3/2) + t^(1/3)",
    "2*t^(1/4)/(t^2 + 1)", "1/t^(1/2)",
]
_FOREIGN = ["x", "f(t)", "g'(t)*t", "t*y^(1/2)", "x - x + t"]


def _element_texts() -> list[dict]:
    """Seeded element data as DSL text, with refusals of each kind."""
    rng = random.Random(4177)
    out = [{"ee": "t^(1/2)"}, {"d": "2*t", "ee": "t^(1/3) + 1", "a": "t^(1/3)"}]
    for _ in range(240):
        given = {
            "d": rng.choice(_AFFINE * 3 + _NOT_AFFINE),
            "ee": rng.choice(_POSITIVE * 3 + _NOT_POSITIVE),
        }
        for name in ("a", "b", "c"):
            if rng.random() < 0.6:
                given[name] = rng.choice(_DATUM * 6 + _FOREIGN)
        out.append({name: text for name, text in given.items() if rng.random() < 0.9})
    return out


def _outcome(make):
    try:
        return make()
    except PseudogroupError as exc:
        return PseudogroupError, str(exc)


def _entries(data) -> tuple:
    ring, readings, values = data
    return ring.keys, list(readings.items()), [(dict(f.numer), dict(f.denom)) for f in values]


def _moved_data(make) -> tuple:
    """The (keys, readings, values) of data at the preimage time, or the
    class of the refusal."""
    try:
        return _entries(make())
    except (SolutionError, ExprError):
        return "refused"


def test_elements_are_read_checked_and_moved_as_the_sympy_path_did():
    refusals, radical, kept = set(), 0, 0
    for texts in _element_texts():
        trees = {name: syntax.parse_expr(text) for name, text in texts.items()}
        exprs = {name: from_tree(tree) for name, tree in trees.items()}
        old = _outcome(lambda: tree_element_checks(**exprs))
        door = _outcome(lambda: PseudogroupElement.make(**exprs))
        light = _outcome(lambda: sections.read_element(trees))
        assert light is not None, texts
        if isinstance(old, tuple) and old[0] is PseudogroupError:
            refusals.add(old[1].split(";")[0].split(":")[0].split(",")[0])
            assert door == light == old, texts
            continue
        assert (light.alpha, light.beta) == (door.element.alpha, door.element.beta) == old
        # the same data at t on both doors, entry for entry
        assert _entries(light.data) == _entries(door.element.data), texts
        new, tree = (_moved_data(f) for f in (
            lambda: sections._at_preimage(light), lambda: tree_element_data(door)))
        # pushed by the image rule, the data are what the trees at t_s read
        assert new == tree, texts
        if new != "refused":
            kept += 1
            radical += any(type(k) is tuple and k[0] == "radical" for k in new[0])
    assert refusals == {
        "a must be a closed form in t", "b must be a closed form in t",
        "c must be a closed form in t", "the time map D must be affine",
        "D' (time dilation) must be positive", "ee (scaling) must be a rational function of t",
        "ee (scaling) has a real zero", "ee (scaling) has a real pole",
        "ee (scaling) must be positive",
    }, refusals
    assert kept >= 60 and radical >= 15, (kept, radical)


def test_an_element_outside_the_subset_goes_to_the_sympy_door():
    # a jet coordinate or a radical constant: the reader hands over
    for text in ("u_x", "2^(1/3)", "t*3^(1/2)"):
        assert sections.read_element({"a": syntax.parse_expr(text)}) is None


def test_a_light_element_moves_a_section_as_the_sympy_one_does():
    texts = {"d": "t + 1", "a": "2*t - 1", "c": "t - 1/2", "ee": "8"}
    trees = {name: syntax.parse_expr(text) for name, text in texts.items()}
    light = sections.read_element(trees)
    door = PseudogroupElement.make(**{name: from_tree(tree) for name, tree in trees.items()})
    sol = sections.read_section("sl2-family", {"f": ("int", 0, 0), "h": ("int", 0, 0)})
    assert str(sol.transform(light)) == str(sol.transform(door))
