"""Sections of the system in the jet field, without sympy: the section
field, solutions, the Weyl pair, its connection, the Einstein check and
sampled signatures.

A section (u, v) given by closed forms in t, x, y, formal functions of t
and fractional powers of t, x and y generates one exact differential field
(:class:`SectionField`): the order-0 jet ring of ``jets`` with the formal
functions, their derivatives and one root generator B = b^(1/m) per base
variable b with fractional powers (exponential atoms and non-rational
constants bring generators of their own, see ``exprcore._rescaled``).
Each auxiliary generator is keyed by a plain tuple (``("root", "y")``,
``("exp", "x")``, ``("radical", p, M)``) and described by its *reading*
(``_Rescaled._readings``): ("root", i, m) for b^(1/m), ("exp", i, s) for
exp(s*b), b the i-th base variable, and ("radical", None, (p, 1/M)) for
p^(1/M), or exp(1/M) for p = 0.  The sympy value of each generator
(``back``) is a view built from the readings at the boundary.

A section field is built in one of two ways, into the same ring with the
same values: from sympy trees (``SectionField(exprs)``, through
``trees.section_ring``), or from syntax trees of the algebraic subset by
:func:`read_section`, which reads the text of a command line, bindings or
one of the catalog's closed forms (:data:`CATALOG`, DSL text), with no
sympy at all.  The metric pair, the connection, the curvature, the
Einstein check (:func:`check_EW`), the signature (:func:`signature`),
the values at a point and the moves and reflections are arithmetic in the
field: one rule gives the image of an auxiliary generator under a point
map (:func:`_image`).  A pseudogroup element lives in the field of t too
(:class:`Element`): :func:`read_element` reads and checks its DSL text,
and a move pushes its data to the preimage time by the same rule.
:func:`text` prints an element as ``exprcore.to_text`` prints its
expression, by the field's printer where its generators are named or
roots b^(1/m) (:func:`_root_text`); the primes of a radical come from
:func:`_factor`, in ints.

Whatever gives or takes a sympy tree imports ``trees`` or ``geometry`` on
first use: ``SectionField(exprs)``, ``expr``, ``back``, ``Solution(u,
v)``, its ``u`` and ``v``, the tree values of the reports, the text of an
element with a prime radical or an exponential, a refusal that words an
expression, the sampled residual of a section that is not Einstein and
the 50-digit value of a sample that is not rational.  Those imports name
their modules in full, as ``jets`` explains.
"""

from __future__ import annotations

import copy
import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import DivisionByZeroExpression, ExprError, JetOrderError, read_only
from .errors import PseudogroupError, SingularLocusError, SolutionError
from .jets import (
    BASE_NAMES,
    _ZeroDivisor,
    _ansatz,
    _common_denominator,
    _equations,
    _is_formal_key,
    _merge,
    _order3,
    _print_rank,
    _quotient_text,
    _ring_of,
    _support,
    read,
)
from .linalg import _cofactors
from .syntax import CATALOG_IDS, DEPENDENTS, MultiIndex, jet_parts, parse_solution

__all__ = [
    "SectionField",
    "Solution",
    "WeylPair",
    "Connection",
    "CORRECTION_SIGN",
    "build_pair",
    "weyl_connection",
    "EWReport",
    "check_EW",
    "SamplerConfig",
    "halton",
    "signature",
    "read_section",
    "read_element",
    "Element",
    "text",
]

# The metric-compatibility correction applied to the Levi-Civita symbols
# carries a global sign choice; correction_sign = s means Gamma = gamma +
# (s/2)(w_i d_j^k + w_j d_i^k - g_ij w^k), which makes nabla g equal
# (-s) * omega x g.  Exactly one choice makes the catalog Einstein: s = -1,
# i.e. the compatibility law nabla g = +omega x g.  The curvature anchor
# (skew Ricci = 3/2 d omega) holds for the same choice.
CORRECTION_SIGN = -1

# formal functions of t are carried with this many more derivatives than
# occur: the twelve invariants have order three, and i_regular takes one
# derivative more
_FIELD_DERIVATIVES = 4

# ---------------------------------------------------------------------------
# the catalog's closed forms, as DSL text

#: the entries of the explicit-solution catalog (``geometry.catalog``)
#: written as bindings; f(t) and h(t) are the parameters
CATALOG = {
    "trivial": "u = 0 ; v = 0",
    "dkp-partial": "u = 0 ; v = y^4/12 + x*y + h(t)",
    "sl2-family": (
        "u = y^(2/3) - 10/3*x/y ; "
        "v = 2/5*x*y^(-1/3) - 7/3*x^2/y^2 + 21/25*y^(4/3) + (f(t)*y^(1/3) + h(t))*y^2"
    ),
    "sl2-degenerate": "u = -10/3*x/y ; v = -7/3*x^2/y^2 + (f(t)*y^(1/3) + h(t))*y^2",
}
#: the domain of an entry where its fractional powers are real
DOMAINS = {"sl2-family": "y > 0", "sl2-degenerate": "y > 0"}


@lru_cache(maxsize=None)
def _catalog_trees(cid: str) -> tuple:
    """The syntax trees (u, v) of a closed form of :data:`CATALOG`."""
    trees = {name: tree for name, _, tree in parse_solution(CATALOG[cid])}
    return trees["u"], trees["v"]


def _with_parameters(tree, params: dict):
    """A syntax tree with each formal function f(t) that ``params`` names
    (order 0) replaced by the tree given for it."""
    kind = tree[0]
    if kind == "formal":
        got = params.get(tree[2]) if tree[3] == 0 else None
        return tree if got is None else got
    if kind in ("neg", "^"):
        return (kind, tree[1], _with_parameters(tree[2], params), *tree[3:])
    if kind in ("sum", "product"):
        rest = tuple((op, _with_parameters(operand, params), at) for op, operand, at in tree[3])
        return (kind, tree[1], _with_parameters(tree[2], params), rest)
    return tree


# ---------------------------------------------------------------------------
# the images of auxiliary generators under a point map


# the order of the generators of the base variables: exp(b/M), then b^(1/M)
_RANK = {p: i for i, p in enumerate((kind, b) for kind in ("exp", "root") for b in BASE_NAMES)}


def _joint_constants(parts, readings: dict | None = None) -> dict:
    """The joint generators of values c * prod p^r (pairs (c, [(p, r)]))
    and of generators with ``readings``: one base^(1/M) per base p, M the
    lcm of the denominators of its exponents, as {p: (key, M)} in the
    order of ``exprcore._rescaled``: exp(b/M) and b^(1/M) (:data:`_RANK`,
    keyed p), then p^(1/M) by p (exp(1/M) for p = 0, keyed ("radical", p, M))."""
    M: dict = {}
    for p, r in (*(t for _, terms in parts for t in terms), *map(_term, (readings or {}).values())):
        M[p] = math.lcm(M.get(p, 1), r.denominator)
    ordered = sorted(M.items(), key=lambda pm: (pm[0] not in _RANK, _RANK.get(pm[0], pm[0])))
    return {p: (("radical", p, m) if type(p) is int else p, m) for p, m in ordered}


def _generators(joint: dict) -> dict:
    """{key: reading} of the generators of :func:`_joint_constants`."""
    return {
        key: ("radical", None, (p, Fraction(1, M))) if type(p) is int
        else (p[0], BASE_NAMES.index(p[1]), Fraction(1, M) if p[0] == "exp" else M)
        for p, (key, M) in joint.items()
    }


def _term(reading) -> tuple:
    """(p, r) of a generator, whose value is p^r (:func:`_joint_constants`)."""
    kind, i, k = reading
    if kind == "radical":
        return k
    return (kind, BASE_NAMES[i]), (k if kind == "exp" else Fraction(1, k))


def _monomial(ring, joint: dict, c: Fraction, terms):
    """c * prod p^r in a ring with the generators ``joint``: p^r is the
    power r*M of the generator of p, M = joint[p]."""
    e: dict = {}
    for p, r in terms:
        key, M = joint[p]
        i = ring.index[key]
        e[i] = e.get(i, 0) + int(r * M)
    up, down = (
        ring.ring.monom([(i, n * sign) for i, n in e.items() if n * sign > 0]) for sign in (1, -1)
    )
    dtype = ring.ring.dtype
    return ring.field.raw_new(dtype({up: c.numerator} if c else {}), dtype({down: c.denominator}))


def _scaled_base(F: "_Rescaled", f, b: str) -> tuple | None:
    """(Q, L, 1) where f = Q^(1/L) * b for a positive rational Q and L the
    lcm of the M of F's prime radicals p^(1/M); None where f is not so."""
    L = math.lcm(*(M for _, _, M in F._radicals))
    q = F._reduced_element(f / F._base[b])
    Q = F.rational(q**L)
    return None if Q is None or min(q.numer.values(), default=0) <= 0 else (Q, L, 1)


def _linear(F: "_Rescaled", f) -> dict | None:
    """{b: coefficient, 0: constant} of an element of F linear in t, x, y
    over QQ; None for any other element."""
    if _support(f.denom):
        return None
    bases, out = {F.ring.index[b]: b for b in BASE_NAMES}, {}
    ((_, d),) = f.denom.items()
    for monom, c in f.numer.items():
        pairs = F.ring.ring.pairs(monom)
        if pairs and (len(pairs) > 1 or pairs[0][1] > 1 or pairs[0][0] not in bases):
            return None
        out[bases[pairs[0][0]] if pairs else 0] = Fraction(c, d)
    return out


def _image(reading, point, read, word, what: str) -> tuple:
    """The value (c, [(p, r)]) of the image of an auxiliary generator under
    a point map whose preimage of (t, x, y) is ``point``.  ``read(kind, b,
    f)`` reads the preimage f of the generator's base variable b: for exp
    as {v: coefficient, 0: constant} where f is linear in t, x, y over QQ,
    for a root as (Q, L, n) where f = Q^(1/L) * b^n; None where f is not
    so, and ``word(f)`` prints it.  The one rule: a constant stays;
    exp(s*b) goes to exp(s*f); b^(1/m) to Q^(1/(L*m)) * b^(n/m) for a
    positive rational Q, split by :func:`_prime_radicals`.  Anything else
    is a ``SolutionError``."""
    kind, i, k = reading
    if kind == "radical":
        return Fraction(1), [k]
    b, f = BASE_NAMES[i], point[i]
    got = read(kind, b, f)
    if kind == "exp":
        if got is None:
            atom = f"exp({b})" if k == 1 else f"exp({b}/{k.denominator})"
            raise SolutionError(
                f"{what} leaves the representable domain: {atom} moves to exp of "
                f"{word(f)}, which is not linear in t, x, y over QQ"
            )
        return Fraction(1), [((kind, v) if v else 0, k * c) for v, c in got.items() if c]
    if got is None or got[0] <= 0:
        atom = f"sqrt({b})" if k == 2 else f"{b}**(1/{k})"
        raise SolutionError(
            f"{what} leaves the representable domain: {atom} moves to a "
            f"fractional power of {word(f)}"
        )
    Q, L, n = got
    c, radicals = _prime_radicals(Q, Fraction(1, L * k))
    return c, [*radicals.items(), *([((kind, b), Fraction(n, k))] if n else [])]


def _prime_radicals(q: Fraction, e: Fraction) -> tuple[Fraction, dict[int, Fraction]]:
    """q^e for a positive rational q as (c, {p: r}): q^e = c * prod p^r over
    primes p, with c rational and 0 < r < 1.  Each prime's p^floor(k*e)
    goes into c, so the radicals stay in numerators, as sympy writes a
    power of a rational: (1/2)^(1/2) is 2^(1/2)/2.  The primes come from
    :func:`_factor`."""
    c, radicals = Fraction(1), {}
    for n, sign in ((q.numerator, 1), (q.denominator, -1)):
        for p, k in _factor(n).items():
            s = sign * k * e
            whole = math.floor(s)
            c *= Fraction(p) ** whole
            if s != whole:
                radicals[p] = s - whole
    return c, radicals


# trial division runs up to this bound; Miller-Rabin with the primes below
# 41 as witnesses is exact for every n below 3.3 * 10^24
_TRIAL = 1000
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Whether n (odd, with no prime factor below ``_TRIAL``) is prime, by
    the strong-pseudoprime test to the bases ``_WITNESSES``."""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of an odd composite n: Pollard's rho on x^2 + c,
    with Floyd's cycle finding, c = 1, 2, ... until one splits n."""
    for c in itertools.count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d


def _factor(n: int) -> dict[int, int]:
    """{prime: exponent} of a positive int, primes ascending: trial division
    below ``_TRIAL``, then :func:`_is_prime` and :func:`_rho` on what is
    left."""
    out: dict[int, int] = {}
    d = 2
    while d < _TRIAL and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if m < _TRIAL * _TRIAL or _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho(m)
            rest += [f, m // f]
    return dict(sorted(out.items()))


def _fraction(q) -> Fraction:
    """A coordinate as a ``Fraction``: an int or a ``Fraction`` directly,
    anything else as ``sympy.Rational`` reads it."""
    if type(q) in (int, Fraction):
        return Fraction(q)
    from sympy import Rational

    r = Rational(q)
    return Fraction(int(r.p), int(r.q))


def _formal_orders(keys) -> dict[str, int]:
    """{name: highest derivative order} of formal keys (``f''`` is f, 2)."""
    out: dict[str, int] = {}
    for key in keys:
        name = key.rstrip("'")
        out[name] = max(out.get(name, 0), len(key) - len(name))
    return out


# ---------------------------------------------------------------------------
# a field with auxiliary generators


class _Rescaled:
    """A jet ring with auxiliary generators and their readings (see the
    module docstring), the canonical form of its elements and the
    substitution of its elements for the generators of another ring
    (:meth:`_quotient`).

    Prime radicals R = p^(1/M) among the generators are reduced by R^M = p
    before every zero test and conversion; radicals of distinct primes are
    linearly independent over QQ (Besicovitch) and the other generators are
    algebraically independent, so the zero test of the reduced numerator is
    exact."""

    def __init__(self, ring, readings: dict):
        self.ring = ring
        self._readings = readings
        self._radicals = [
            (ring.index[key], key[1], key[2]) for key in readings if key[0] == "radical" and key[1]
        ]

    @cached_property
    def back(self) -> dict:
        """generator symbol -> its value as a sympy atom, the boundary view
        of the readings (``trees.back_of``)."""
        from jetweyl.trees import back_of

        return back_of(self)

    def _reduced(self, p):
        """A polynomial with every prime radical R = p^(1/M) reduced by
        R^M = p."""
        if not self._radicals or not p:
            return p
        ring = self.ring.ring
        out: dict = {}
        for monom, c in p.items():
            m = dict(ring.pairs(monom))
            for i, prime, M in self._radicals:
                if m.get(i, 0) >= M:
                    q, m[i] = divmod(m[i], M)
                    c = c * prime**q
            _merge(out, {ring.monom(m.items()): c})
        return ring.dtype(out)

    def _reduced_element(self, f):
        if not self._radicals:
            return f
        return self.ring.field.new(self._reduced(f.numer), self._reduced(f.denom))

    def vanishes(self, f) -> bool:
        """Exact zero test of a field element."""
        return not self._reduced(f.numer)

    def sum(self, elements):
        """The sum of field elements."""
        return sum(elements, self.ring.field.zero)

    def rational(self, f) -> Fraction | None:
        """The value of a constant element, None for a non-constant one."""
        f = self._reduced_element(f)
        if _support(f.numer, f.denom):
            return None
        zero = self.ring.ring.zero_monom
        return Fraction(f.numer.get(zero, 0), f.denom[zero])

    def named(self, f) -> bool:
        """Whether every generator of f is named: no auxiliary generator
        and no foreign symbol occurs, so that ``jets.text`` prints it."""
        keys = self.ring.keys
        return all(type(keys[i]) is str for i in self.ring.present(f))

    def rooted(self, f) -> bool:
        """Whether every generator of f is named or a root b^(1/m): no prime
        radical, exponential or foreign symbol occurs (:func:`text`)."""
        keys = self.ring.keys
        return all(
            type(k) is str or type(k) is tuple and k[0] == "root"
            for k in map(keys.__getitem__, self.ring.present(f))
        )

    def expr(self, f):
        """The canonical sympy expression of a field element
        (``trees.rescaled_expr``)."""
        from jetweyl.trees import rescaled_expr

        return rescaled_expr(self, f)

    def _quotient(self, f, value, message):
        """An element of a jet ring with each generator, by its key k,
        replaced by the element ``value(k)`` of this field; ``message()`` is
        the text of the error raised when the denominator vanishes.  Over
        one common denominator L of the values, each side P of f is
        P~ / L^D; a term in a generator whose value is zero is left out."""
        used = _support(f.numer, f.denom)
        keys, pairs = f.field.keys, f.field.ring.pairs
        L, nums = _common_denominator(self.ring.ring, [value(keys[i]) for i in used])
        # generator index -> its place in used, None where its value is zero
        place = {i: j if n else None for j, (i, n) in enumerate(zip(used, nums))}
        dtype = self.ring.ring.dtype
        powers: dict = {}

        def power(j, n):
            got = powers.get((j, n))
            if got is None:
                got = powers[(j, n)] = (L if j < 0 else nums[j]) ** n
            return got

        def side(p):
            terms = []
            for m, c in p.items():
                m = [(place[i], e) for i, e in pairs(m)]
                if all(j is not None for j, _ in m):
                    terms.append((m, c, sum(e for _, e in m)))
            top = max((deg for _, _, deg in terms), default=0)
            acc: dict = {}
            for m, c, deg in terms:
                term = dtype({0: c})
                if deg < top:
                    term = term * power(-1, top - deg)
                for j, e in m:
                    term = term * power(j, e)
                _merge(acc, term)
            return dtype(acc), top

        (n, dn), (d, dd) = side(f.numer), side(f.denom)
        if not self._reduced(d):
            raise DivisionByZeroExpression(message())
        if dd > dn:
            n = n * L ** (dd - dn)
        elif dn > dd:
            d = d * L ** (dn - dd)
        return self.ring.field.new(n, d)


def text(scaled: _Rescaled, f) -> str:
    """The canonical text of an element of a field with auxiliary
    generators, as ``exprcore.to_text`` prints its expression: by the
    field's printer (:func:`_root_text`) where every generator is named or
    a root b^(1/m) once its prime radicals are reduced, else from the
    sympy tree."""
    f = scaled._reduced_element(f)
    if scaled.rooted(f):
        return _root_text(scaled, f)
    from jetweyl.exprcore import to_text

    return to_text(scaled.expr(f))


def _root_text(scaled: _Rescaled, f) -> str:
    """The text of an element whose generators are named or roots
    B = b^(1/m), as ``exprcore.to_text`` prints the sympy tree of
    :meth:`_Rescaled.expr`: in each term the powers of b and of B merge
    into one power b^(k + e/m), a ``Fraction`` where it is not whole, whose
    sort key is ``jets._term_key``'s.  The denominator's leading
    coefficient is made positive in sympy's generator order, where b ranks
    as the symbol of its root once one of its exponents is fractional:
    that is the ring ``to_text`` reads the tree into.  The rest is
    ``jets.text``'s."""
    if not f.numer:
        return "0"
    # generator index -> (the name it prints as, the factor of its exponents)
    names = []
    for key in scaled.ring.keys:
        kind, i, m = scaled._readings.get(key, (None, None, None))
        names.append((BASE_NAMES[i], Fraction(1, m)) if kind == "root" else (key, 1))

    pairs = scaled.ring.ring.pairs

    def terms(p) -> list:
        merged: dict = {}
        for monom, c in p.items():
            powers: dict = {}
            for i, e in pairs(monom):
                name, k = names[i]
                powers[name] = powers.get(name, 0) + e * k
            _merge(merged, {tuple(sorted(powers.items())): c})
        return [(c, list(powers)) for powers, c in merged.items()]

    top, bottom = terms(f.numer), terms(f.denom)
    fractional = {n for _, fs in top + bottom for n, e in fs if e.denominator != 1}

    def rank(name):
        return _print_rank(("root", name) if name in fractional else name)

    order = sorted({n for _, fs in bottom for n, _ in fs}, key=rank)
    _, lead = max((([dict(fs).get(n, 0) for n in order]), c) for c, fs in bottom)
    if lead < 0:
        top, bottom = ([(-c, fs) for c, fs in side] for side in (top, bottom))
    return _quotient_text(top, bottom)


@lru_cache(maxsize=None)
def _jet_of(key) -> tuple | None:
    """(dependent, index) of a jet key, None for any other key."""
    return jet_parts(key) if type(key) is str else None


class SectionField(_Rescaled):
    """The differential field of a tuple of closed forms in t, x, y.

    A base variable b with fractional powers is B^m for its root generator
    B = b^(1/m); exponential atoms exp(c*b) are powers of one generator
    E_b = exp(s*b) and constants that are not rational are prime radicals
    p^(1/M) and exp(1/M).  With the formal functions of t and their
    derivatives these generate the field, held as the order-0 jet ring
    (``jets._JetRing``) with the auxiliary generators as extras; zero tests
    reduce radicals by R^M = p.  d/dt, d/dx and d/dy are ring derivations
    given by the images of the generators: d_b B = B^(1-m)/m, d_b E = c*E
    for E = exp(c*b), d_t a^(k) = a^(k+1), and constants have none.
    ``values`` are the expressions as field elements; for a section they
    are (u, v).

    ``SectionField(exprs)`` reads sympy trees, rescaled jointly
    (``trees.section_ring``); :func:`read_section` builds the same field
    from syntax trees (:meth:`_of`)."""

    def __init__(self, exprs):
        from jetweyl.trees import section_ring

        self._setup(*section_ring(exprs, _FIELD_DERIVATIVES))

    @classmethod
    def _of(cls, ring, readings: dict, values) -> "SectionField":
        """The field of ``values``, elements of ``ring``, whose auxiliary
        generators read as ``readings``."""
        sf = cls.__new__(cls)
        sf._setup(ring, readings, values)
        return sf

    def _setup(self, ring, readings: dict, values) -> None:
        _Rescaled.__init__(self, ring, readings)
        self.values = tuple(values)
        # a base variable as an element: b, or B^m where it has a root
        self._base = {b: ring.gen(b) for b in BASE_NAMES}
        # d -> (images, refused generators) of d/dd, as ``_JetRing.lift`` takes them
        images = {b: ([(ring.index[b], ring.field.one)], {}) for b in BASE_NAMES}
        for key, (kind, i, k) in readings.items():
            if kind == "radical":
                continue
            b, gen = BASE_NAMES[i], ring.gen(key)
            if kind == "exp":
                image = gen * k
            else:
                image = 1 / (k * gen ** (k - 1))
                self._base[b] = gen**k
            images[b][0].append((ring.index[key], image))
        # formal derivatives of the highest order carried have no d/dt
        past = f"d/dt of a formal derivative of order past {_FIELD_DERIVATIVES} beyond those"
        for s in ring.extras:
            if type(s) is str:
                # a formal derivative a^(m), keyed by its name
                if s + "'" in ring.index:
                    images["t"][0].append((ring.index[s], ring.gen(s + "'")))
                else:
                    images["t"][1][ring.index[s]] = (JetOrderError, f"{past} of the section")
        self._images = images
        # d -> d/dd lifted once (``_JetRing.lift``)
        self._lifted: dict = {}
        self._jets: dict = {}

    def partial(self, f, d: str):
        """The partial derivative d/dd of a field element (d = t, x or y)."""
        lifted = self._lifted.get(d)
        if lifted is None:
            lifted = self._lifted[d] = self.ring.lift(*self._images[d])
        return self.ring.apply(f, lifted)

    def jet(self, dep: str, index=MultiIndex()):
        """The section's derivative w_sigma (w = u, v) as a field element."""
        index = index if isinstance(index, MultiIndex) else MultiIndex.from_word(index)
        got = self._jets.get((dep, index))
        if got is None:
            if index.order == 0:
                got = self.values[DEPENDENTS.index(dep)]
            else:
                d = "y" if index.ny else ("x" if index.nx else "t")
                got = self.partial(self.jet(dep, index.drop(d)), d)
            self._jets[(dep, index)] = got
        return got

    def _value(self, key):
        parts = _jet_of(key)
        if parts is not None:
            return self.jet(*parts)
        got = self._base.get(key)
        return self.ring.gen(key) if got is None else got

    def subs(self, f):
        """An element of a jet ring (a rational function of jet coordinates,
        t, x, y and formal functions) with the section's derivatives in
        place of the jets: its numerator and denominator are evaluated at
        them."""
        return self._quotient(
            f, self._value, lambda: f"the denominator of {f.as_expr()} vanishes on the section"
        )

    def _present(self, elements=None) -> tuple:
        """(formal keys, auxiliary keys) of the generators that occur in
        the elements, by default the values.  The field of a potential keeps
        generators that its section's values have lost."""
        elements = self.values if elements is None else elements
        present = set().union(*map(self.ring.present, elements))
        keys = [k for i, k in enumerate(self.ring.keys) if i in present]
        return tuple(filter(_is_formal_key, keys)), tuple(k for k in keys if k in self._readings)

    # -- moving the section -------------------------------------------------------

    def moved(self, element: "Element") -> "SectionField":
        """The field of the section pushed through a pseudogroup element
        (:class:`Element`), with the moved (u, v) as its values: the old
        section at the preimage point (:func:`_preimage`), pushed to the
        field of the element's data (:func:`_pushed`), plus the fibre
        terms.  Solutions map to solutions."""
        what = "transformed section"
        formals, aux = self._present()
        F, pre = _preimage(element, formals)
        target, (u, v), into = _pushed(self, F, pre[:3], what, formals, aux)
        _, xs, ys, s, E, Ep, Epp, Ap, Bp, C, Cp = map(into, pre)
        D = s * s
        u_new = E / s * u - 3 * Ep * ys / s + Bp / D - 2 * C / (E * s)
        v_new = (
            E**2 * v
            + (C + 2 * E * Ep * ys) * u
            + (E * Epp - 3 * Ep**2) * ys**2
            + (Cp - 4 * C * Ep / E) * ys
            + 2 * E * Ep * xs
        ) / D + (E**2 * Ap - C**2) / (D * E**2)
        return target._with_values((u_new, v_new))

    def reflected(self, which: str) -> "SectionField":
        """The field of the section under one of the two discrete
        generators beyond the connected pseudogroup, with the reflected
        (u, v) as its values: ``txy`` flips the signs of t, x and y, ``yu``
        those of y and u."""
        signs = {"txy": (-1, -1, -1, 1), "yu": (1, 1, -1, -1)}.get(which)
        if signs is None:
            raise ValueError(f"reflection must be 'txy' or 'yu', got {which!r}")
        formals, aux = self._present()
        F = _field_of({}, formals)
        point = [F.ring.gen(b) * n for b, n in zip(BASE_NAMES, signs)]
        target, (u, v), _ = _pushed(self, F, point, "reflected section", formals, aux)
        return target._with_values((u * signs[3], v))

    def at(self, point, elements) -> tuple:
        """(C, the elements at the rational point (t, x, y) as elements of
        C), for C a ring of constants (a :class:`_Rescaled`).

        t, x and y go to the point's coordinates and each auxiliary
        generator to its image (:func:`_image`): b^(1/m) to q^(1/m) for the
        coordinate q of b, exp(s*b) to exp(s*q), and a constant p^(1/M)
        stays, as a power of p^(1/M') when the point brings the same prime.
        No expression is read: C holds one generator per prime (and one
        for e).  A denominator that vanishes at the point raises
        ``DivisionByZeroExpression``."""
        point = [_fraction(q) for q in point]
        what = f"the section at ({', '.join(map(str, point))})"
        formals, aux = self._present(elements)

        def read(kind, b, q):
            return {0: q} if kind == "exp" else (q, 1, 0)

        images = {key: _image(self._readings[key], point, read, str, what) for key in aux}
        joint = _joint_constants(images.values())
        readings = _generators(joint)
        C = _Rescaled(_ring_of(0, _formal_orders(formals), aux=tuple(readings)), readings)
        point = [_monomial(C.ring, joint, q, ()) for q in point]
        return C, _push(C, joint, images, point, elements, what)

    def _with_values(self, values) -> "SectionField":
        """This field with other values (and no jets taken yet)."""
        out = copy.copy(self)
        out.values = tuple(values)
        out._jets = {}
        return out


def _field_of(joint: dict, formals) -> SectionField:
    """The section field, with no values, of the formal functions (keys)
    ``formals`` and the auxiliary generators ``joint``."""
    readings = _generators(joint)
    ring = _ring_of(0, _formal_orders(formals), _FIELD_DERIVATIVES, tuple(readings))
    return SectionField._of(ring, readings, ())


def _moves(readings: dict, joint: dict) -> dict:
    """The moves (:func:`_rekeying`) of the generators with ``readings``
    and of the base variables to powers of the generators ``joint`` of
    their bases (b to B^M where joint has B = b^(1/M))."""
    out = {}
    bases = ((b, ("root", i, 1)) for i, b in enumerate(BASE_NAMES))
    for key, reading in (*readings.items(), *bases):
        p, r = _term(reading)
        if p in joint:
            out[key] = (joint[p][0], r * joint[p][1])
    return out


def _rekeying(target, source, moves: dict):
    """The map of elements of the ring ``source`` into ``target`` sending
    a generator k to moves[k] = (key of target, factor of its exponents),
    else to k, with the sign made canonical again."""
    places = [moves.get(k, (k, 1)) for k in source.keys]
    places = [(target.index.get(to), Fraction(n)) for to, n in places]
    pairs = source.ring.pairs

    def moved(p):
        out = {}
        for monom, c in p.items():
            m: dict = {}
            for i, e in pairs(monom):
                j, n = places[i]
                m[j] = m.get(j, 0) + int(e * n)
            out[target.ring.monom(m.items())] = c
        return target.ring.dtype(out)

    def into(f):
        num, den = moved(f.numer), moved(f.denom)
        return target.field.raw_new(*((-num, -den) if den[max(den)] < 0 else (num, den)))

    return into


def _preimage(element: "Element", formals) -> tuple:
    """(F, (t_s, x_s, y_s, sqrt(D'), E, E', E'', A', B', C, C')) of a
    pseudogroup element, D = alpha*t + beta: F is the field of the formal
    functions ``formals`` and of ee, a, b, c at t_s = D^-1(t)
    (:func:`_at_preimage`) joined with the radicals of sqrt(D'); the
    preimage of (t, x, y), then sqrt(D'), ee and its first two
    derivatives, a', b', c and c' at t_s.  D is affine, so f'(t_s) = D' *
    d/dt f(t_s), and the point map is triangular, so the inverse is
    closed-form."""
    ring, readings, values = _at_preimage(element)
    alpha, beta = element.alpha, element.beta
    c, radicals = _prime_radicals(alpha, Fraction(1, 2))
    root = (c, list(radicals.items()))
    joint = _joint_constants([root], readings)
    F = _field_of(joint, formals)
    E, A, B, C = map(_rekeying(F.ring, ring, _moves(readings, joint)), values)
    s = _monomial(F.ring, joint, *root)

    def d(f):
        return s * s * F.partial(f, "t")

    Ep = d(E)
    ys = (F._base["y"] - B) / (s * E)
    xs = (F._base["x"] - E * Ep * ys**2 - C * ys - A) / E**2
    return F, ((F._base["t"] - beta) / alpha, xs, ys, s, E, Ep, d(Ep), d(A), d(B), C, d(C))


def _pushed(sf: SectionField, F: SectionField, point, what: str, formals, aux) -> tuple:
    """(G, sf's values pushed to G, the map of F's elements into G) under
    a point map whose preimage of (t, x, y) is ``point``, elements of F,
    the field of the map's data and sf's ``formals``; G is F with the
    generators of the images of sf's auxiliary generators ``aux`` joined."""
    def read(kind, b, f):
        return _linear(F, f) if kind == "exp" else _scaled_base(F, f, b)

    images = {key: _image(sf._readings[key], point, read, F.expr, what) for key in aux}
    G, into, joint = F, (lambda f: f), {}
    if images:
        joint = _joint_constants(images.values(), F._readings)
        H = _field_of(joint, formals)
        if H._readings != F._readings:
            G, into = H, _rekeying(H.ring, F.ring, _moves(F._readings, joint))
    return G, _push(G, joint, images, map(into, point), sf.values, what), into


def _push(C: _Rescaled, joint: dict, images: dict, point, elements, what: str) -> list:
    """The elements pushed (``_quotient``) to C, whose generators ``joint``
    hold the ``images`` of the auxiliary generators, with t, x, y at
    ``point``; a pole raises ``DivisionByZeroExpression``."""
    values = {key: _monomial(C.ring, joint, *image) for key, image in images.items()}
    values.update(zip(BASE_NAMES, point))

    def value(key):
        got = values.get(key)
        return C.ring.gen(key) if got is None else got

    return [C._quotient(f, value, lambda: f"{what} has a pole") for f in elements]


# ---------------------------------------------------------------------------
# the reader: syntax trees of the algebraic subset into a section field


def _scan(tree, names: frozenset, roots: dict, formals: dict) -> bool:
    """Whether a syntax tree lies in the algebraic subset: integers, the
    base variables ``names``, formal functions of t, sums, products,
    quotients, integer powers and fractional powers of a base variable of
    ``names``.  Fills ``roots`` ({b: lcm of the exponent denominators of
    b}) and ``formals`` ({name: highest derivative order})."""
    kind = tree[0]
    if kind == "int":
        return True
    if kind == "name":
        return tree[2] in names
    if kind == "formal":
        formals[tree[2]] = max(formals.get(tree[2], 0), tree[3])
        return True
    if kind == "exp":
        return False
    if kind == "neg":
        return _scan(tree[2], names, roots, formals)
    if kind == "^":
        q = tree[3].denominator
        if q == 1:
            return _scan(tree[2], names, roots, formals)
        base = tree[2]
        if base[0] != "name" or base[2] not in names:
            return False
        roots[base[2]] = math.lcm(roots.get(base[2], 1), q)
        return True
    return _scan(tree[2], names, roots, formals) and all(
        _scan(operand, names, roots, formals) for _, operand, _ in tree[3]
    )


def _read_values(trees, names: frozenset = frozenset(BASE_NAMES)) -> tuple | None:
    """(ring, readings, values) of syntax trees read jointly, in the ring
    ``SectionField`` builds for their canonical forms, or None where a
    tree leaves the algebraic subset (:func:`_scan`) or holds a zero
    divisor.

    One pass finds the lcm m0 of the exponent denominators of each base
    variable b; the trees are read with b = B^m0 (``jets.read``).  The
    canonical forms of the values are quotients in lowest terms, so the
    fractional powers that remain are those of the exponents of B that
    occur: with g the gcd of m0 and all of them, b has the root b^(1/m),
    m = m0/g, and B^e becomes B'^(e/g) (b^(e/g) for m = 1).  The formal
    functions are those that occur.  That is the ring of jet order 0 that
    ``SectionField`` builds from the canonical trees, with the same keys
    in the same order and the same values."""
    roots: dict = {}
    formals: dict = {}
    if not all(_scan(tree, names, roots, formals) for tree in trees):
        return None
    aux = tuple(("root", b) for b in BASE_NAMES if b in roots)
    ring = _ring_of(0, formals, _FIELD_DERIVATIVES, aux)
    try:
        values = [read(tree, ring, roots) for tree in trees]
    except _ZeroDivisor:
        return None
    present = set().union(*map(ring.present, values))
    keys = ring.keys
    g = {}
    for key in aux:
        j, acc = ring.index[key], roots[key[1]]
        for f in values:
            for p in (f.numer, f.denom):
                for monom in p:
                    acc = math.gcd(acc, dict(ring.ring.pairs(monom)).get(j, 0))
        g[key] = acc
    final = {key[1]: roots[key[1]] // g[key] for key in aux}
    target = _ring_of(
        0,
        _formal_orders(keys[i] for i in present if _is_formal_key(keys[i])),
        _FIELD_DERIVATIVES,
        tuple(key for key in aux if final[key[1]] > 1),
    )
    readings = {
        ("root", b): ("root", BASE_NAMES.index(b), m) for b, m in final.items() if m > 1
    }
    if target is not ring or any(d > 1 for d in g.values()):
        # B^e goes to B'^(e/g) where b keeps a root, to b^(e/g) where it has none
        moves = {key: (key if final[key[1]] > 1 else key[1], Fraction(1, g[key])) for key in aux}
        values = list(map(_rekeying(target, ring, moves), values))
    return target, readings, values


_T_ONLY = frozenset({"t"})


def read_section(argument: str, trees: dict, deferred: bool = False) -> "Solution | None":
    """The solution that a command line's solution argument names, read in
    the jet field without sympy, or None where it leaves the algebraic
    subset; the caller then reads it through sympy, which gives the same
    solution or refusal.

    ``trees`` are the syntax trees of the argument: of its bindings u and
    v, or of the parameters ``f``, ``h`` (and ``w``) of a catalog id.  The
    bindings must name t, x, y and formal functions only (``dsl`` refuses
    a jet coordinate); a parameter t and formal functions only (the
    catalog refuses any other), and each is read once alone, so that a
    zero divisor in a parameter the entry does not use goes to sympy too.
    A catalog entry is one of :data:`CATALOG` with its parameters
    substituted, checked as the catalog checks it; bindings are checked
    unless ``deferred``."""
    if argument in CATALOG:
        if "w" in trees:
            return None
        for tree in trees.values():
            if _read_values((tree,), _T_ONLY) is None:
                return None
        got = _read_values(tuple(_with_parameters(tree, trees) for tree in _catalog_trees(argument)))
        name, domain, deferred = argument, DOMAINS.get(argument, ""), False
    elif argument in CATALOG_IDS:
        # hierarchy and exp-family are built from trees
        return None
    else:
        got = _read_values((trees["u"], trees["v"]))
        name, domain = "user", ""
    return None if got is None else Solution._of(SectionField._of(*got), name, domain, deferred)


# ---------------------------------------------------------------------------
# pseudogroup elements in the field of t

_SCALING = "ee (scaling)"
_NOT_AFFINE = "the time map D must be affine, alpha*t + beta over QQ with alpha > 0; got {}"
_NOT_RATIONAL = _SCALING + " must be a rational function of t, got {}"
# the data of an element in the order they are checked, each with its
# default as a syntax tree
_ELEMENT_DEFAULTS = {
    "d": ("name", 0, "t"),
    "a": ("int", 0, 0),
    "b": ("int", 0, 0),
    "c": ("int", 0, 0),
    "ee": ("int", 0, 1),
}


class Element:
    """A closed-form element of the connected pseudogroup in the field of t:
    the time map D = alpha*t + beta (alpha > 0) and ``data``, the (ring,
    readings, values) of ee, a, b, c as elements of one field of t, or the
    ``ExprError`` met reading them, raised when the element moves a
    section.  :func:`read_element` reads one from syntax trees and
    ``symmetry.PseudogroupElement`` from sympy trees; both check D with
    :func:`_time_map` and ee with :func:`_scaling`."""

    def __init__(self, alpha: Fraction, beta: Fraction, data):
        self.__dict__.update(alpha=alpha, beta=beta, data=data)

    __setattr__ = __delattr__ = read_only


def _t_poly(F: _Rescaled, p) -> list | None:
    """The int coefficients of a polynomial of F in t alone, constant
    first ([] for zero); None where another generator occurs."""
    t = F.ring.index["t"]
    out: list = []
    for monom, c in p.items():
        pairs = F.ring.ring.pairs(monom)
        if pairs and (len(pairs) > 1 or pairs[0][0] != t):
            return None
        e = pairs[0][1] if pairs else 0
        out.extend([0] * (e + 1 - len(out)))
        out[e] = c
    return out


def _time_map(F: _Rescaled, d) -> tuple[Fraction, Fraction]:
    """(alpha, beta) of a time map D = alpha*t + beta, an element of a field
    of t, refused with a ``PseudogroupError`` unless it is a polynomial of
    degree one over QQ with alpha > 0.

    The moves compose sections with D^-1 in the section's field, which
    holds rational functions of t only.  A rational D has a rational
    inverse only when it is a Moebius map (degrees multiply under
    composition), and one without a real pole is affine; every other
    inverse is a radical."""
    f = F._reduced_element(d)
    num, den = _t_poly(F, f.numer), _t_poly(F, f.denom)
    if num is None or den is None or len(den) != 1 or len(num) != 2:
        raise PseudogroupError(_NOT_AFFINE.format(text(F, d)))
    beta, alpha = (Fraction(c, den[0]) for c in num)
    if not alpha > 0:
        raise PseudogroupError(f"D' (time dilation) must be positive; at t=0 it is {alpha}")
    return alpha, beta


def _scaling(F: _Rescaled, ee) -> None:
    """Refuse the scaling ee, an element of a field of t, with a
    ``PseudogroupError`` unless it is a rational function of t without a
    real zero or pole (:func:`_real_roots` of its numerator and
    denominator) and positive at t = 0, hence positive on the whole line."""
    f = F._reduced_element(ee)
    sides = _t_poly(F, f.numer), _t_poly(F, f.denom)
    if any(p is None for p in sides):
        raise PseudogroupError(_NOT_RATIONAL.format(text(F, ee)))
    for p, part in zip(sides, ("zero", "pole")):
        if not p or _real_roots(p):
            raise PseudogroupError(f"{_SCALING} has a real {part}: {text(F, ee)}")
    at_zero = Fraction(sides[0][0], sides[1][0])
    if not at_zero > 0:
        raise PseudogroupError(f"{_SCALING} must be positive; at t=0 it is {at_zero}")


def _real_roots(p: list) -> int:
    """The number of distinct real roots of a nonzero polynomial with
    rational coefficients (constant first, the last one nonzero): the sign changes of its Sturm sequence at -oo less those at
    +oo.  The sequence is kept in ``Fraction``s, each member after the
    first scaled to a leading coefficient of +-1."""
    a = [Fraction(c) for c in p]
    b = [i * c for i, c in enumerate(a)][1:]
    seq = [a]
    while b:
        lead = abs(b[-1])
        b = [c / lead for c in b]
        seq.append(b)
        # the next member is minus the remainder of a by b
        r = list(a)
        while len(r) >= len(b):
            q, shift = r[-1] / b[-1], len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] -= q * c
            r.pop()
            while r and not r[-1]:
                r.pop()
        a, b = b, [-c for c in r]

    def changes(signs) -> int:
        return sum(s != s2 for s, s2 in zip(signs, signs[1:]))

    at_plus = [q[-1] > 0 for q in seq]
    # the sign at -oo is the leading sign times (-1)^degree
    at_minus = [(q[-1] > 0) == (len(q) % 2 == 1) for q in seq]
    return changes(at_minus) - changes(at_plus)


def read_element(trees: dict) -> Element | None:
    """The element whose data are the syntax trees ``trees`` (keyed ``d``,
    ``a``, ``b``, ``c``, ``ee``; one left out is t, 0, 0, 0 or 1), read and
    checked in the field of t without sympy; None where a tree leaves the
    algebraic subset in t, x, y (:func:`_scan`) or holds a zero divisor.
    The caller then builds ``symmetry.PseudogroupElement``, which gives the
    same element or refusal.

    Each tree is read alone, in the order of the constructor's checks:
    every datum is a closed form in t (a formal function, x or y is
    refused by name), D is affine (:func:`_time_map`) and ee positive
    (:func:`_scaling`).  ee, a, b and c are then read jointly, as
    :func:`read_section` reads a section."""
    trees = {name: trees.get(name, default) for name, default in _ELEMENT_DEFAULTS.items()}
    read = {}
    for name, tree in trees.items():
        got = _read_values((tree,))
        if got is None:
            return None
        ring, readings, (value,) = got
        read[name] = _Rescaled(ring, readings), value
    for name, (F, f) in read.items():
        for key in map(F.ring.keys.__getitem__, F.ring.present(f)):
            symbol = key[1] if type(key) is tuple else key
            if symbol != "t":
                raise PseudogroupError(f"{name} must be a closed form in t, found symbol {symbol}")
    alpha, beta = _time_map(*read["d"])
    _scaling(*read["ee"])
    return Element(alpha, beta, _read_values(tuple(trees[name] for name in ("ee", "a", "b", "c"))))


def _at_preimage(element: Element) -> tuple:
    """(ring, readings, values) of ee, a, b, c at t_s = D^-1(t) = (t -
    beta)/alpha: the element's data at t pushed through the time map by
    the one image rule (:func:`_pushed`), each auxiliary generator to its
    image.  Data that were not read, or an image that leaves the field,
    are refused with a ``SolutionError``."""
    what = "transformed section"
    if isinstance(element.data, ExprError):
        raise SolutionError(f"{what} leaves the representable domain: {element.data}")
    source = SectionField._of(*element.data)
    F = _field_of({}, ())
    t, x, y = map(F.ring.gen, BASE_NAMES)
    point = ((t - element.beta) / element.alpha, x, y)
    G, values, _ = _pushed(source, F, point, what, (), source._present()[1])
    return _as_read(G, values)


def _as_read(G: SectionField, values) -> tuple:
    """(ring, readings, values) of elements of G in the form a reading of
    their canonical trees gives (``trees.section_ring``): prime radicals
    reduced and out of a one-term denominator (:func:`_cleared`), and each
    auxiliary generator B of M (b^(1/M), exp(b/M) or p^(1/M)) given way to
    the power B^g that the values need, g the gcd of M and its exponents
    there; b^(1/M) with g = M is b itself, and a generator that no longer
    occurs is left out."""
    ring = G.ring
    values = [_cleared(G, f) for f in values]
    # generator index -> its positive exponents in the values
    exponents: dict = {}
    for f in values:
        for side in (f.numer, f.denom):
            for m in side:
                for i, e in ring.ring.pairs(m):
                    exponents.setdefault(i, []).append(e)
    joint, moves = {}, {}
    for key, reading in G._readings.items():
        j, (p, r) = ring.index[key], _term(reading)
        powers = exponents.get(j)
        if not powers:
            continue
        g = math.gcd(r.denominator, *powers)
        M = r.denominator // g
        if M == 1 and reading[0] == "root":
            moves[key] = (p[1], Fraction(1, g))
            continue
        new = ("radical", p, M) if type(p) is int else key
        joint[p], moves[key] = (new, M), (new, Fraction(1, g))
    target = _field_of(joint, ())
    if target.ring is not ring or any(n != 1 for _, n in moves.values()):
        values = map(_rekeying(target.ring, ring, moves), values)
    return target.ring, target._readings, tuple(values)


def _cleared(G: _Rescaled, f):
    """f with its prime radicals reduced by R^M = p, and each R^k (0 < k <
    M) of a one-term denominator cleared by R^(M-k) above and below: sympy
    writes a negative power of a rational in the numerator (2^(-1/2) is
    2^(1/2)/2), and the canonical tree of a one-term denominator is such a
    product of powers, where a sum keeps its radicals."""
    f = G._reduced_element(f)
    if len(f.denom) != 1:
        return f
    (monom,) = f.denom
    powers = dict(G.ring.ring.pairs(monom))
    gens, clear = G.ring.ring.gens, G.ring.ring.one
    for i, _, M in G._radicals:
        if i in powers:
            clear = clear * gens[i] ** (M - powers[i])
    if clear == 1:
        return f
    # reduced before the field cancels, which would take R^(M-k) out again
    return G.ring.field.new(G._reduced(f.numer * clear), G._reduced(f.denom * clear))


# ---------------------------------------------------------------------------
# solutions


class Solution:
    """A section u = u(t,x,y), v = v(t,x,y) of the equation system.

    Closed forms in the base variables plus formal functions of t; the two
    equation residuals are checked at construction unless deferred.  The
    deferred path is the one ``check-solution`` takes for user input, which
    it reports on rather than refuses, and the one of negative controls.
    Derivatives, residuals and geometry are computed in the section's
    differential field (:class:`SectionField` of (u, v)), built on first
    use.

    ``Solution(u, v)`` takes sympy trees (validated by
    ``geometry._closed_form``).  A solution read from text
    (:func:`read_section`), a move, a reflection and the ``hierarchy``
    entry are built from a field whose values are (u, v) already
    (:meth:`_of`); ``u`` and ``v`` are then the field's canonical
    expressions of its values, made on first use.
    """

    checked = False
    _pair: "WeylPair | None" = None
    _residual_elements: tuple | None = None

    def __init__(self, u, v, name: str = "user", domain: str = "", deferred: bool = False):
        from jetweyl.geometry import _closed_form

        self.u, self.v = (_closed_form(e, "a section is given by closed forms") for e in (u, v))
        self.name = name
        self.domain = domain
        if not deferred:
            self.require_solution()

    @classmethod
    def _of(cls, sf: SectionField, name: str, domain: str = "", deferred: bool = False) -> "Solution":
        """The solution whose field is ``sf`` (values (u, v)); its residuals
        are checked there unless ``deferred``."""
        sol = cls.__new__(cls)
        sol.field, sol.name, sol.domain = sf, name, domain
        return sol if deferred else sol.require_solution()

    @cached_property
    def field(self) -> SectionField:
        return SectionField((self.u, self.v))

    @cached_property
    def u(self):
        return self.field.expr(self.field.values[0])

    @cached_property
    def v(self):
        return self.field.expr(self.field.values[1])

    def _residuals(self) -> tuple:
        """F1, F2 at the section as field elements, computed once."""
        if self._residual_elements is None:
            self._residual_elements = tuple(map(self.field.subs, _equations()))
        return self._residual_elements

    def solves(self) -> bool:
        """True when both residuals vanish (the field's zero test)."""
        return all(map(self.field.vanishes, self._residuals()))

    def require_solution(self) -> "Solution":
        if not self.solves():
            r1, r2 = (text(self.field, r) for r in self._residuals())
            raise SolutionError(
                f"section {self.name!r} does not solve the system: residuals ({r1}, {r2})"
            )
        self.checked = True
        return self

    def _positive(self) -> list[str]:
        """The base variables that must stay positive: y where the domain
        says so, and every base variable with a fractional power in the
        section, which is real only there."""
        sf = self.field
        _, aux = sf._present()
        positive = {BASE_NAMES[sf._readings[k][1]] for k in aux if k[0] == "root"}
        if self.domain == "y > 0":
            positive.add("y")
        return [b for b in BASE_NAMES if b in positive]

    def in_domain(self, pt) -> bool:
        """Whether (t, x, y) lies where the section is real."""
        return all(_fraction(pt[BASE_NAMES.index(b)]) > 0 for b in self._positive())

    def domain_error(self, pt) -> SolutionError:
        """The error for a point outside :meth:`in_domain`."""
        bounds = ", ".join(f"{b} > 0" for b in self._positive())
        return SolutionError(f"point {pt} violates the domain ({bounds})")

    def transform(self, element) -> "Solution":
        """Push the section through a pseudogroup element, an
        :class:`Element` or a ``symmetry.PseudogroupElement``, which holds
        one as ``element`` (:meth:`SectionField.moved`)."""
        moved = self.field.moved(getattr(element, "element", element))
        return self._of(moved, f"{self.name}|moved", self.domain)

    def reflect(self, which: str) -> "Solution":
        """Reflect the section (:meth:`SectionField.reflected`)."""
        return self._of(self.field.reflected(which), f"{self.name}|{which}", self.domain)

    def __str__(self) -> str:
        """u and v printed by :func:`text` where they have no prime radical
        and no exponential, else by ``exprcore.to_text`` from the trees:
        the text of a radical in a denominator depends on the path of the
        computation, and the trees' is the one the command line has
        printed."""
        sf = self.field
        parts = []
        for name, f in zip(DEPENDENTS, map(sf._reduced_element, sf.values)):
            if sf.rooted(f):
                parts.append(_root_text(sf, f))
            else:
                from jetweyl.exprcore import to_text

                parts.append(to_text(getattr(self, name)))
        return "u = {}; v = {}".format(*parts)


# ---------------------------------------------------------------------------
# metric pair and connection


class WeylPair:
    """The ansatz metric and covector of a section, as elements of the
    section's field: ``g`` as rows, ``omega`` as its (dt, dx, dy)
    components."""

    def __init__(self, solution: Solution, field: SectionField, g: tuple, omega: tuple):
        # _connections: correction sign -> the pair's Weyl connection
        self.__dict__.update(solution=solution, field=field, g=g, omega=omega, _connections={})

    __setattr__ = __delattr__ = read_only


def _rows(vals) -> tuple:
    return tuple(tuple(vals[3 * i : 3 * i + 3]) for i in range(3))


def build_pair(sol: Solution) -> WeylPair:
    """The ansatz metric and covector of a section (one pair per section)."""
    if sol._pair is None:
        sf = sol.field
        g, w = _ansatz()
        rows = tuple(tuple(map(sf.subs, row)) for row in g)
        sol._pair = WeylPair(sol, sf, rows, tuple(map(sf.subs, w)))
    return sol._pair


class Connection:
    """Christoffel symbols Gamma[k][i][j] of a Weyl pair, symmetric in
    (i, j), as elements of the pair's field.

    ``ginv_f`` is the inverse metric and ``christoffel_f`` the corrected
    symbols; the curvature built from them is computed once.
    ``compat_sign`` is the verified sign of nabla g = compat_sign *
    omega x g.
    """

    def __init__(self, pair: WeylPair, correction_sign: int, ginv, christoffel):
        self.pair = pair
        self.correction_sign = correction_sign
        self.compat_sign = -correction_sign
        self.ginv_f, self.christoffel_f = ginv, christoffel
        self._ricci = None
        self._einstein = None

    def ricci_elements(self) -> tuple:
        """Rows of the Ricci tensor Ric(X, Y) = trace of Z -> R(Z, X)Y, not
        symmetrized (a Weyl connection has a skew Ricci part):

        Ric_ij = sum_k d_k Gamma^k_ij - d_i Gamma^k_kj
                 + Gamma^m_ij Gamma^k_km - Gamma^m_kj Gamma^k_im.
        """
        if self._ricci is None:
            sf, G = self.pair.field, self.christoffel_f
            trace = [sf.sum(G[k][k][m] for k in range(3)) for m in range(3)]
            self._ricci = _rows(
                [
                    sf.sum(sf.partial(G[k][i][j], _DIRS[k]) for k in range(3))
                    - sf.partial(trace[j], _DIRS[i])
                    + sf.sum(G[m][i][j] * trace[m] for m in range(3))
                    - sf.sum(G[m][k][j] * G[k][i][m] for k in range(3) for m in range(3))
                    for i in range(3)
                    for j in range(3)
                ]
            )
        return self._ricci

    def einstein_elements(self) -> tuple:
        """(Lambda, rows of Ric_sym - Lambda*g) as field elements, with
        Lambda = tr(g^-1 Ric_sym)/3."""
        if self._einstein is None:
            ric, g, ginv = self.ricci_elements(), self.pair.g, self.ginv_f
            cells = [(i, j) for i in range(3) for j in range(3)]
            rsym = {(i, j): (ric[i][j] + ric[j][i]) / 2 for i, j in cells}
            lam = self.pair.field.sum(ginv[j][i] * rsym[i, j] for i, j in cells) / 3
            resid = _rows([rsym[i, j] - lam * g[i][j] for i, j in cells])
            self._einstein = (lam, resid)
        return self._einstein

    def anchor_elements(self) -> tuple:
        """Rows of the curvature anchor residual: the skew part of Ricci
        minus 3/2 times d omega, both alternated tensors."""
        ric = self.ricci_elements()
        dw = _d_omega_of(self.pair.field, self.pair.omega)
        return _rows(
            [(ric[i][j] - ric[j][i]) / 2 - dw[i][j] * 3 / 2 for i in range(3) for j in range(3)]
        )


_DIRS = "txy"


def _cube(entry) -> tuple:
    """Nested tuples [k][i][j] of entry(k, i, j)."""
    return tuple(
        tuple(tuple(entry(k, i, j) for j in range(3)) for i in range(3)) for k in range(3)
    )


def _inverse(sf: _Rescaled, g) -> tuple:
    """Inverse of a 3x3 matrix of field elements by its cofactors."""
    cof = _cofactors(g)
    det = sf.sum(g[0][j] * cof[0][j] for j in range(3))
    if sf.vanishes(det):
        raise SolutionError("metric is degenerate")
    return _rows([cof[j][i] / det for i in range(3) for j in range(3)])


def weyl_connection(pair: WeylPair, correction_sign: int | None = None) -> Connection:
    """Levi-Civita symbols plus the covector correction.

    The compatibility law nabla g = (sign) * omega x g is verified exactly,
    entry by entry; the achieved sign is recorded on the result (it is the
    negative of the correction sign).  A pair computes its connection once
    per sign.
    """
    if correction_sign is None:
        correction_sign = CORRECTION_SIGN
    if correction_sign not in (1, -1):
        raise ValueError("correction_sign must be +1 or -1")
    got = pair._connections.get(correction_sign)
    if got is not None:
        return got
    sf, g, w = pair.field, pair.g, pair.omega
    ginv = _inverse(sf, g)
    wup = tuple(sf.sum(ginv[k][m] * w[m] for m in range(3)) for k in range(3))
    # dg[d][i][j] = d_d g_ij
    dg = [_rows([sf.partial(e, d) for row in g for e in row]) for d in _DIRS]

    def levi_civita(k, i, j):
        return sf.sum(ginv[k][m] * (dg[i][m][j] + dg[j][m][i] - dg[m][i][j]) for m in range(3)) / 2

    def corrected(k, i, j):
        corr = (w[i] if j == k else 0) + (w[j] if i == k else 0) - g[i][j] * wup[k]
        return gamma[k][i][j] + corr * correction_sign / 2

    gamma = _cube(levi_civita)
    chris = _cube(corrected)
    conn = Connection(pair, correction_sign, ginv, chris)
    # verify nabla_k g_ij = compat_sign * w_k g_ij
    for k in range(3):
        for i in range(3):
            for j in range(i, 3):
                nab = dg[k][i][j] - sf.sum(
                    chris[m][k][i] * g[m][j] + chris[m][k][j] * g[i][m] for m in range(3)
                )
                if not sf.vanishes(nab - w[k] * g[i][j] * conn.compat_sign):
                    raise SolutionError("connection fails the metric compatibility law")
    pair._connections[correction_sign] = conn
    return conn


def _d_omega_of(sf: SectionField, w) -> tuple:
    """Rows of the exterior derivative of the covector as an alternated
    tensor: (d omega)_ij = (d_i w_j - d_j w_i) / 2."""
    return _rows(
        [
            (sf.partial(w[j], _DIRS[i]) - sf.partial(w[i], _DIRS[j])) / 2
            for i in range(3)
            for j in range(3)
        ]
    )


# ---------------------------------------------------------------------------
# Einstein check


class EWPointCheck:
    """A sample of the Einstein check: Lambda at the point as an element of
    the field of constants ``scaled`` (``lam`` is its sympy expression,
    made on first use) and the relative residual there."""

    def __init__(self, point: tuple, residual: float, scaled: _Rescaled, lam_element):
        self.__dict__.update(
            point=point, residual=residual, scaled=scaled, lam_element=lam_element
        )

    __setattr__ = __delattr__ = read_only

    @cached_property
    def lam(self):
        return self.scaled.expr(self.lam_element)


class EWReport:
    """The Einstein check of a section: the exact verdict, Lambda as an
    element of the section's field ``scaled`` (``lam`` is its sympy
    expression, made on first use) and the samples."""

    def __init__(
        self, name: str, exact: bool, ok: bool, points: tuple, scaled: _Rescaled, lam_element
    ):
        self.__dict__.update(
            name=name, exact=exact, ok=ok, points=points, scaled=scaled, lam_element=lam_element
        )

    __setattr__ = __delattr__ = read_only

    @cached_property
    def lam(self):
        return self.scaled.expr(self.lam_element)


def check_EW(
    sol: Solution,
    pts=(),
    correction_sign: int | None = None,
) -> EWReport:
    """Einstein property of the solution's Weyl structure.

    The verdict is exact: the trace-extracted factor Lambda and the
    residual tensor Ric_sym - Lambda*g are computed in the section's field,
    and ``ok`` holds exactly when every entry is zero.  Each given sample
    point gets the exact value of Lambda and a relative residual
    (``geometry._sampled_residual``, 0.0 when the tensor is zero), all read
    at the point by :meth:`SectionField.at`; these are reported, never
    decisive.
    """
    conn = weyl_connection(build_pair(sol), correction_sign)
    sf = conn.pair.field
    lam_f, resid_f = conn.einstein_elements()
    resid = [e for row in resid_f for e in row]
    exact = all(map(sf.vanishes, resid))
    pts = [tuple(p) for p in pts or ()]
    for p in pts:
        if not sol.in_domain(p):
            raise sol.domain_error(p)
    sampled = []
    if pts and not exact:
        free = sf._present(resid)[0]
        if free:
            raise SolutionError(f"bind formal parameters before numeric checks: {sorted(free)}")
        ric = conn.ricci_elements()
        rsym = [(ric[i][j] + ric[j][i]) / 2 for i in range(3) for j in range(3)]
        sampled = [*rsym, *(lam_f * e for row in conn.pair.g for e in row), *resid]
    checks = []
    for p in pts:
        C, (lam, *values) = sf.at(p, (lam_f, *sampled))
        r = 0.0
        if values:
            from jetweyl.geometry import _sampled_residual

            r = _sampled_residual(C, values[:9], values[9:18], values[18:])
        checks.append(EWPointCheck(p, r, C, lam))
    return EWReport(sol.name, exact, exact, tuple(checks), sf, lam_f)


# ---------------------------------------------------------------------------
# signatures

# a draw gives up after this many points outside the domain or measure
_MAX_REJECTIONS = 5000


def halton(index: int, base: int) -> Fraction:
    """Radical-inverse of the index in the given base: a low-discrepancy
    rational in [0, 1)."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    out = Fraction(0)
    f = Fraction(1, base)
    while index:
        out += f * (index % base)
        index //= base
        f /= base
    return out


class SamplerConfig:
    """Deterministic low-discrepancy rational points in a box.

    The seed offsets the Halton index, so distinct seeds give distinct
    (still deterministic) streams.
    """

    def __init__(self, seed: int = 0, n: int = 64, box: tuple = ((-2, 2), (-2, 2), (-2, 2))):
        self.__dict__.update(seed=seed, n=n, box=box)

    __setattr__ = __delattr__ = read_only

    def stream(self):
        bases = (2, 3, 5)
        lo_hi = [(Fraction(a), Fraction(b)) for a, b in self.box]
        i = 1 + 997 * self.seed
        while True:
            pt = tuple(
                lo + (hi - lo) * halton(i, b) for (lo, hi), b in zip(lo_hi, bases)
            )
            yield pt
            i += 1

    def admissible(self, sol, measure=lambda p: True):
        """Up to n pairs (point, measure(point)) of the stream's points in
        the section's domain (:meth:`Solution.in_domain`) whose measure is
        not None.  The draw ends after _MAX_REJECTIONS rejected points."""
        taken = rejected = 0
        stream = self.stream()
        while taken < self.n and rejected < _MAX_REJECTIONS:
            p = next(stream)
            value = measure(p) if sol.in_domain(p) else None
            if value is None:
                rejected += 1
            else:
                taken += 1
                yield p, value


def _number(C, f):
    """A constant of C as a ``Fraction`` when it is rational, else the
    double nearest it (evaluated to 50 digits by sympy, then rounded)."""
    q = C.rational(f)
    if q is not None:
        return q
    from sympy import N

    return float(N(C.expr(f), 50))


def signature(sol: Solution, sampler: SamplerConfig | None = None) -> SignatureCloud:
    """Sample the twelve invariants along the solution.

    Branches: a section with u_x = 0 identically lies in the order-1
    relative-invariant stratum and has no signature (error); a section
    with constant (I1, I2, I3) gets a single constant 12-vector with the
    gradient slots set to zero and a non-regularity note; otherwise the
    sampler draws points off the singular locus and the cloud is exact
    where the section evaluates rationally.
    """
    # imported here: clouds loads dataclasses, which no other command needs
    from .clouds import SignatureCloud

    sampler = sampler or SamplerConfig()
    sf = sol.field
    free = sorted(sf._present()[0])
    if free:
        raise SolutionError(f"bind formal parameters before sampling: {free}")
    if not sol.checked:
        sol.require_solution()
    ux, uxx = sf.jet("u", "x"), sf.jet("u", "xx")
    if sf.vanishes(ux):
        raise SingularLocusError(
            "every sample is singular: u_x = 0 identically on the section "
            "(the order-1 relative-invariant branch)"
        )
    table = _order3()
    base3 = [sf.rational(sf.subs(f)) for f in table.I]
    if None not in base3:
        notes = [
            "constant invariants: gradient slots set to zero",
            "not I-regular; the signature-equivalence hypothesis fails",
        ]
        if sf.vanishes(uxx):
            notes.append("section lies in the u_xx = 0 stratum")
        vals = tuple(base3) + (Fraction(0),) * 9
        drawn = next(sampler.admissible(sol), None)
        if drawn is None:
            raise SingularLocusError("no sample point found in the section's domain")
        return SignatureCloud(
            (tuple(drawn[0]),),
            (vals,),
            "exact",
            sol.name,
            tuple(notes),
            False,
        )
    funcs = [sf.subs(f) for f in table.twelve]

    def twelve_at(p):
        """The twelve values at p; None on the singular locus, where u_x or
        u_xx vanishes or an invariant has a pole."""
        try:
            C, (uxv, uxxv, *values) = sf.at(p, (ux, uxx, *funcs))
        except DivisionByZeroExpression:
            return None
        if C.vanishes(uxv) or C.vanishes(uxxv):
            return None
        return tuple(_number(C, v) for v in values)

    drawn = list(sampler.admissible(sol, twelve_at))
    points, values = [tuple(p) for p, _ in drawn], [row for _, row in drawn]
    if not points:
        raise SingularLocusError(
            "no admissible sample point found off the singular locus"
        )
    exact = all(isinstance(v, Fraction) for row in values for v in row)
    notes = []
    if len(points) < sampler.n:
        notes.append(
            f"accepted {len(points)} of the requested {sampler.n} points"
        )
    if not exact:
        values = [
            tuple(float(v) if isinstance(v, Fraction) else v for v in row)
            for row in values
        ]
    return SignatureCloud(
        tuple(points),
        tuple(values),
        "exact" if exact else "float64",
        sol.name,
        tuple(notes),
        None,
    )
