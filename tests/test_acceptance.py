"""End-to-end acceptance battery over the check registry.

Criterion NN runs the check at position NN of ``jetweyl.checks.REGISTRY``
and prints a single ``criterion NN <label>: PASS|FAIL`` line (visible
under ``pytest -s``) before asserting, so a scan of the output gives the
full scorecard.  What each criterion checks lives in the registry; this
file adds only the time ceilings, which are never raised.
"""

import time

from jetweyl.checks import REGISTRY

# seconds a check may take
_CEILINGS = {"table": 30, "orbit": 120}


def _criterion(number: int, name: str) -> None:
    assert list(REGISTRY).index(name) + 1 == number, f"{name} is not criterion {number}"
    check = REGISTRY[name]
    t0 = time.monotonic()
    ok, info = check.run()
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < _CEILINGS.get(name, float("inf"))
    print(f"criterion {number:02d} {check.label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{name}: {elapsed:.1f}s, {info}"


def test_every_check_is_a_criterion():
    tests = sorted(n for n in globals() if n.startswith("test_criterion_"))
    assert [int(n.split("_")[2]) for n in tests] == list(range(1, len(REGISTRY) + 1))


def test_criterion_01_commutator_table():
    _criterion(1, "table")


def test_criterion_02_symmetries_and_grading():
    _criterion(2, "symmetry")


def test_criterion_03_shape_lift():
    _criterion(3, "lift")


def test_criterion_04_orbit_dimensions():
    _criterion(4, "orbit")


def test_criterion_05_invariance_and_independence():
    _criterion(5, "invariance")


def test_criterion_06_commutators_and_identities():
    _criterion(6, "commutators")


def test_criterion_07_coframe():
    _criterion(7, "coframe")


def test_criterion_08_counting():
    _criterion(8, "counting")


def test_criterion_09_catalog_geometry():
    _criterion(9, "geometry")


def test_criterion_10_signature_equivalence():
    _criterion(10, "equivalence")


def test_criterion_11_mutation_sanity():
    _criterion(11, "mutation")
