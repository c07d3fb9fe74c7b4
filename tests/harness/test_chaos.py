"""The chaos trial, pinned: single- and multi-initiator trials produce
exactly the completion logs and summaries recorded here."""

import hashlib

import pytest

from repro.harness import chaos


def trial_digest(result) -> str:
    """Digest of a trial's completion log (stream, group, exact time)
    and its one-line summary (fault counts, recovery counters)."""
    text = repr((result.completion_log, result.summary()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def scale_trial(faults):
    """Two initiator hosts, QP breakdowns confined to host 0."""
    return chaos.run_chaos_trial(system="rio", seed=4242, initiators=2,
                                 victim=0, faults=faults)


def test_single_initiator_trial_is_pinned():
    result = chaos.run_chaos_trial(system="rio", seed=1001)
    assert result.ok, result.summary()
    assert trial_digest(result) == "6a1025cbdac37128"


def test_victim_trial_is_pinned():
    result = scale_trial(faults=True)
    assert result.ok, result.summary()
    assert result.node_reconnects == [2, 0]
    assert trial_digest(result) == "56f1b3a413f24668"


def test_fault_free_multi_initiator_trial_is_pinned():
    result = scale_trial(faults=False)
    assert result.ok, result.summary()
    assert result.node_reconnects == [0, 0]
    assert trial_digest(result) == "781094f7d463430e"


@pytest.mark.parametrize("system", ["barrier", "orderless"])
@pytest.mark.parametrize("seed", [1000, 1001])
def test_unordered_stack_trial_waits_for_every_write(system, seed):
    """Unordered stacks complete a group's writes in any order: the trial
    must audit leaks only once every write (not every group's last one)
    has completed."""
    result = chaos.run_chaos_trial(system=system, seed=seed)
    assert result.leak_error == "", result.leak_error
    assert result.ok, result.summary()
