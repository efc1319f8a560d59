"""The metrics a run prints are the ones BENCHMARK.json declares."""

import json
import os

import run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_end_to_end_metric_names_and_units():
    got = run.end_to_end_metrics([0.5, 0.6], [2.0], [0.1, 0.3], [1024, 2048], 10)
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: unit for k, (_, unit) in got.items()} == declared


def test_per_layer_metric_names_and_units():
    trace = {"spans": {"exprcore.normalize": [4, 1.0], "linalg.rank": [1, 0.5]},
             "normalize_changed": 1, "principal_entries": 0, "coeff_distinct": 0}
    got = run.layer_metrics(trace, 0.4)
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: unit for k, (_, unit) in got.items()} == declared
    assert got["exprcore.normalize.changed_ratio"][0] == 0.25
    assert got["exprcore.calls"][0] == 4 and got["linalg.self_s"][0] == 0.5


def test_workloads_match():
    assert [w["name"] for w in _declared()["workloads"]] == list(run.WORKLOADS)
