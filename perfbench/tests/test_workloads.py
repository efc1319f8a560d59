"""Every seed gives the same batch: same verdicts in the same order."""

import pytest

import workloads


@pytest.mark.parametrize("workload", sorted(workloads.BATCHES))
def test_batch_shape_does_not_depend_on_the_seed(workload):
    names = [[v.name for v in workloads.BATCHES[workload](seed)] for seed in (1, 2, 977)]
    assert names[0] == names[1] == names[2]
    assert len(set(names[0])) == len(names[0])


def test_only_the_two_invalid_elements_are_known_faults():
    faults = [v.name for v in workloads.sections(5) if v.known_fault]
    assert faults == ["invalid-element:ee=t+1/2", "invalid-element:ee=3t^2-t+1/20"]


def test_cli_mix_shape_does_not_depend_on_the_seed():
    mixes = [[(c.name, c.argv[0], c.exit_code) for c in workloads.cli_commands(s)] for s in (1, 2)]
    assert mixes[0] == mixes[1]
    assert {c.exit_code for c in workloads.cli_commands(3)} == {0, 1, 3}
