"""The records of the light commands, written out as plain classes.

``syntax.MultiIndex`` is read-only, and equal, hashed and ordered as the
tuple (nt, nx, ny); a seeded property test checks ``==``, ``<``, ``<=``,
``>``, ``>=``, ``hash`` and ``sorted`` against those of the tuples, the
refusal of a negative or non-int entry with its message, and the refusal
of an assignment.  The records of ``counts`` and ``sections`` take their
fields by position and by keyword, with their defaults, and refuse an
assignment; the Einstein reports keep ``lam`` in their ``__dict__``.
"""

import pytest
from hypothesis import given, seed, settings, strategies as st

from jetweyl import counts, sections
from jetweyl.syntax import MultiIndex

_ENTRY = st.integers(0, 4)
_TRIPLE = st.tuples(_ENTRY, _ENTRY, _ENTRY)


@seed(43)
@settings(max_examples=300, deadline=None)
@given(st.lists(_TRIPLE, min_size=2, max_size=8))
def test_a_multi_index_compares_hashes_and_sorts_as_its_tuple(triples):
    indices = [MultiIndex(*t) for t in triples]
    a, b = indices[0], indices[1]
    ta, tb = triples[0], triples[1]
    assert (a == b, a != b) == (ta == tb, ta != tb)
    assert (a < b, a <= b, a > b, a >= b) == (ta < tb, ta <= tb, ta > tb, ta >= tb)
    assert hash(a) == hash(ta)
    assert [(m.nt, m.nx, m.ny) for m in sorted(indices)] == sorted(triples)
    assert MultiIndex(nt=ta[0], nx=ta[1], ny=ta[2]) == a
    assert len(set(indices)) == len(set(triples))


_BAD = st.one_of(
    st.integers(max_value=-1), st.floats(allow_nan=False), st.text(max_size=2), st.none()
)


@seed(43)
@settings(max_examples=200, deadline=None)
@given(_TRIPLE, _BAD, st.integers(0, 2))
def test_a_negative_or_non_int_entry_is_refused(triple, bad, at):
    entries = list(triple)
    entries[at] = bad
    nt, nx, ny = entries
    with pytest.raises(ValueError) as err:
        MultiIndex(*entries)
    assert str(err.value) == (
        "multi-index entries must be non-negative ints, "
        f"got MultiIndex(nt={nt!r}, nx={nx!r}, ny={ny!r})"
    )


@seed(43)
@settings(max_examples=50, deadline=None)
@given(_TRIPLE, st.sampled_from(("nt", "nx", "ny", "order")))
def test_a_multi_index_is_read_only(triple, name):
    index = MultiIndex(*triple)
    with pytest.raises(AttributeError):
        setattr(index, name, 1)
    with pytest.raises(AttributeError):
        delattr(index, name)
    assert (index.nt, index.nx, index.ny) == triple


def test_a_multi_index_compares_with_no_other_type():
    index = MultiIndex(1, 0, 2)
    assert index != (1, 0, 2) and repr(index) == "MultiIndex(nt=1, nx=0, ny=2)"
    with pytest.raises(TypeError):
        index < (1, 0, 2)


def _records():
    """(record, {field: value}) for each record the light commands build,
    once by position and once by keyword."""
    cases = [
        (counts.DimRecord, {"k": 3, "dim_jet_space": 43, "dim_equation": 35,
                            "internal_per_dependent": 16}),
        (counts.CountRecord, {"k": 3, "s": 6, "h": 3, "series": "ms"}),
        (sections.Element, {"alpha": 2, "beta": -1, "data": object()}),
        (sections.WeylPair, {"solution": object(), "field": object(), "g": (), "omega": ()}),
        (sections.EWPointCheck, {"point": (0, 1, 2), "residual": 0.0, "scaled": object(),
                                 "lam_element": object()}),
        (sections.EWReport, {"name": "s", "exact": True, "ok": True, "points": (),
                             "scaled": object(), "lam_element": object()}),
        (sections.SamplerConfig, {"seed": 3, "n": 5, "box": ((0, 1),) * 3}),
    ]
    for cls, fields in cases:
        yield cls(*fields.values()), fields
        yield cls(**fields), fields


def test_the_records_take_their_fields_by_position_and_keyword_and_are_read_only():
    for record, fields in _records():
        for name, value in fields.items():
            assert getattr(record, name) is value, (type(record), name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert sections.WeylPair(None, None, (), ())._connections == {}
    default = sections.SamplerConfig()
    assert (default.seed, default.n, default.box) == (0, 64, ((-2, 2), (-2, 2), (-2, 2)))


def test_the_einstein_reports_keep_lambda_once():
    class Scaled:
        made = 0

        def expr(self, element):
            Scaled.made += 1
            return ("expr", element)

    scaled = Scaled()
    for record in (
        sections.EWPointCheck((0, 1, 2), 0.0, scaled, 7),
        sections.EWReport("s", True, True, (), scaled, 7),
    ):
        assert record.lam == ("expr", 7) and record.lam is record.lam
        assert vars(record)["lam"] == ("expr", 7)
    assert Scaled.made == 2
