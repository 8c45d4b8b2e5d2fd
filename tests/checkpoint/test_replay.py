"""Replay equivalence: resume(snapshot) ≡ the uninterrupted run.

The load-bearing guarantee of the checkpoint subsystem, pinned two
ways:

* hypothesis chooses the snapshot round (and whether a fault plan is
  active); a swarm snapshotted there and resumed must produce a
  ``SwarmResult`` with the *same fingerprint* as the run that was never
  interrupted — covering RNG positions, event order, peer state,
  tracker state, potential-set caching, and fault streams all at once;
* the production path (``run_swarm_with_checkpoints``) resumed from its
  own on-disk snapshot reproduces the fingerprint through the full
  serialize → CRC → deserialize cycle.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ckpt_helpers import replay_config, replay_fault_plan, snapshot_at_round
from repro.checkpoint import (
    read_checkpoint,
    result_fingerprint,
    run_swarm_with_checkpoints,
    write_checkpoint,
)
from repro.checkpoint.format import dumps_payload, loads_payload
from repro.errors import CheckpointError
from repro.sim.swarm import Swarm, run_swarm

# Uninterrupted baseline fingerprints, computed once per fault setting
# (hypothesis replays many rounds against the same two baselines).
_BASELINES = {}


def baseline_fingerprint(with_faults: bool) -> str:
    if with_faults not in _BASELINES:
        faults = replay_fault_plan() if with_faults else None
        result = run_swarm(replay_config(), faults=faults)
        _BASELINES[with_faults] = result.fingerprint()
    return _BASELINES[with_faults]


@given(
    round_number=st.integers(min_value=1, max_value=28),
    with_faults=st.booleans(),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_resume_matches_uninterrupted_fingerprint(round_number, with_faults):
    """Any snapshot round, with or without an active FaultPlan."""
    faults = replay_fault_plan() if with_faults else None
    document = snapshot_at_round(
        replay_config(), round_number, faults=faults
    )
    # Serialization round-trip in memory: the resumed swarm must work
    # from exactly what a reader would hand it, not live objects.
    document = loads_payload(dumps_payload(document))
    resumed = Swarm.resume(document)
    result = resumed.run()
    assert result.fingerprint() == baseline_fingerprint(with_faults)
    assert result.resumed_from_round is not None


def test_resume_through_disk_container(tmp_path):
    """write → read → resume reproduces the fingerprint byte-for-byte."""
    path = tmp_path / "replay.ckpt"
    document = snapshot_at_round(
        replay_config(), 14, faults=replay_fault_plan()
    )
    write_checkpoint(document, path)
    restored_doc = read_checkpoint(path)
    result = Swarm.resume(restored_doc).run()
    assert result.fingerprint() == baseline_fingerprint(True)
    assert result.resumed_from_round == 14


@pytest.mark.parametrize("with_faults", [False, True])
def test_production_path_resumes_own_snapshot(tmp_path, with_faults):
    """run_swarm_with_checkpoints: fresh run, then resume from its file."""
    faults = replay_fault_plan() if with_faults else None
    config = replay_config()
    path = tmp_path / "prod.ckpt"
    fresh = run_swarm_with_checkpoints(
        config, checkpoint_path=path, checkpoint_every=6, faults=faults
    )
    assert fresh.resumed_from_round is None
    assert fresh.checkpoints_written > 0
    assert path.is_file()
    assert fresh.fingerprint() == baseline_fingerprint(with_faults)

    resumed = run_swarm_with_checkpoints(
        config, checkpoint_path=path, checkpoint_every=6
    )
    assert resumed.resumed_from_round is not None
    assert resumed.fingerprint() == fresh.fingerprint()


def test_resume_refuses_mismatched_config(tmp_path):
    path = tmp_path / "mismatch.ckpt"
    config = replay_config()
    run_swarm_with_checkpoints(
        config, checkpoint_path=path, checkpoint_every=6
    )
    other = config.with_changes(seed=config.seed + 1)
    with pytest.raises(CheckpointError, match="different"):
        run_swarm_with_checkpoints(
            other, checkpoint_path=path, checkpoint_every=6
        )


def test_fingerprint_ignores_run_control_fields(tmp_path):
    """Checkpointing itself must not change the fingerprint.

    ``checkpoints_written`` / ``resumed_from_round`` differ between an
    uninterrupted run and a resumed one by construction; the fingerprint
    summary excludes them (and wall time), or replay equivalence could
    never hold.
    """
    plain = run_swarm(replay_config())
    summary_fields = result_fingerprint(plain)
    assert isinstance(summary_fields, str) and len(summary_fields) == 64
    # Same simulation with snapshots enabled: identical fingerprint.
    checkpointed = run_swarm_with_checkpoints(
        replay_config(),
        checkpoint_path=tmp_path / "fp.ckpt",
        checkpoint_every=5,
    )
    assert checkpointed.fingerprint() == plain.fingerprint()
