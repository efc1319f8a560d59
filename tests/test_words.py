"""The sorted invariant words nabla_{j1} ... nabla_{jr} I_i (j1 <= ... <= jr,
r <= k - 2) of ROADMAP item 1, built in the order-k jet ring, against
digests of the same words built with dense exponent tuples.

Each word is ``jets._apply_in`` of nabla_{j1} (the coefficients of
``_order3().nabla`` embedded in ``_jet_ring(k)``) on the word without its
first letter, cached.  ``data/word_digests.json`` holds one SHA-256 per
word for k = 4 (30 words) and k = 5 (60 words), over the sorted terms
(exponent tuple with one entry per generator, coefficient) of numerator
and denominator.  The digests were made with monomials stored as dense
tuples; here the tuples are read back from packed monomials through
``_JetPolyRing.pairs``, so the packed products, cancels, derivations and
reductions must give every word entry for entry.  Negative control: one
coefficient of nabla_1 doubled changes digests.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from jetweyl import jets
from tree_oracle import dense

_DIGESTS = json.loads((Path(__file__).parent / "data" / "word_digests.json").read_text())


def _words(k: int, nabla=None) -> tuple:
    """(ring, {(word, i): element}) of every sorted word of length <= k - 2
    on I_i, in ``_jet_ring(k)``; ``nabla`` replaces the order-3
    coefficients of the derivations."""
    o = jets._order3()
    ring = jets._jet_ring(k)
    rows = [tuple(map(ring.embed, row)) for row in (nabla or o.nabla)]
    out = {((), i): ring.embed(I) for i, I in enumerate(o.I, 1)}
    for r in range(1, k - 1):
        for word in itertools.combinations_with_replacement((1, 2, 3), r):
            for i in (1, 2, 3):
                out[(word, i)] = jets._apply_in(ring, rows[word[0] - 1], out[(word[1:], i)])
    return ring, out


def _digest(ring, f) -> str:
    terms = tuple(sorted((dense(ring.ring, m), c) for m, c in p.items()) for p in (f.numer, f.denom))
    return hashlib.sha256(repr(terms).encode()).hexdigest()


def _name(word, i) -> str:
    return "".join(f"D{j}" for j in word) + f"I{i}"


def _digests(k: int, nabla=None) -> dict:
    ring, words = _words(k, nabla)
    return {_name(w, i): _digest(ring, f) for (w, i), f in words.items()}


@pytest.mark.parametrize("k, count", [(4, 30), (5, 60)])
def test_the_words_match_their_digests(k, count):
    got = _digests(k)
    assert len(got) == count == len(_DIGESTS[str(k)])
    assert got == _DIGESTS[str(k)]


def test_a_perturbed_derivation_changes_the_digests():
    o = jets._order3()
    nabla = [list(row) for row in o.nabla]
    nabla[0][1] = nabla[0][1] * 2
    got = _digests(4, nabla)
    want = _DIGESTS["4"]
    changed = {name for name in want if got[name] != want[name]}
    # the words that begin with nabla_1 change, the others do not
    assert changed == {name for name in want if name.startswith("D1")}
