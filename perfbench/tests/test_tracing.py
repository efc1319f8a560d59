"""Self time from recorded spans."""

import tracing


def _span(tr, name, parent, start, end):
    nid = tr.name_ids.setdefault(name, len(tr.names))
    if nid == len(tr.names):
        tr.names.append(name)
    tr.span_name.append(nid)
    tr.parent.append(parent)
    tr.start.append(start)
    tr.end.append(end)
    return len(tr.start) - 1


def test_self_time_subtracts_the_child_spans():
    tr = tracing.Tracer()
    root = _span(tr, "geometry.check_EW", -1, 0.0, 10.0)
    ric = _span(tr, "geometry.ricci", root, 1.0, 7.0)
    _span(tr, "exprcore.normalize", ric, 2.0, 5.0)
    _span(tr, "exprcore.normalize", root, 8.0, 9.0)
    spans = tr.summary()["spans"]
    assert spans["geometry.check_EW"] == [1, 3.0]
    assert spans["geometry.ricci"] == [1, 3.0]
    assert spans["exprcore.normalize"] == [2, 4.0]
