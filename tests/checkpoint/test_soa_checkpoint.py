"""Soa-backend checkpointing: round-trip, faults, SIGKILL relaunch.

The soa snapshot stores dense per-slot arrays plus the free-list order;
these tests pin the acceptance property — resume is *fingerprint
identical* to the uninterrupted run — through the same three layers the
object backend is tested through: schema round-trip, on-disk container,
and a SIGKILLed process relaunched against its snapshot.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from ckpt_helpers import replay_fault_plan
from repro.checkpoint.format import read_checkpoint, write_checkpoint
from repro.checkpoint.schema import restore_swarm
from repro.checkpoint.store import run_swarm_with_checkpoints
from repro.errors import CheckpointError
from repro.sim.config import SimConfig
from repro.sim.soa import PEER_COLUMNS
from repro.sim.swarm import Swarm, run_swarm


def soa_replay_config(seed: int = 11, max_time: float = 30.0) -> SimConfig:
    """A small soa-compatible swarm touching every checkpointed field.

    ``num_pieces=70`` spans two bitfield words and sets bit 63 of the
    first, so the uint64 → JSON int → uint64 round-trip is exercised on
    values above ``2**63``.
    """
    return SimConfig(
        num_pieces=70,
        max_conns=3,
        ns_size=12,
        arrival_process="poisson",
        arrival_rate=1.5,
        initial_leechers=18,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=1,
        seed_upload_slots=2,
        optimistic_unchoke_prob=0.5,
        connection_setup_prob=0.8,
        connection_failure_prob=0.1,
        shake_threshold=0.9,
        completed_become_seeds=4.0,
        abort_rate=0.01,
        max_time=max_time,
        seed=seed,
    )


def soa_snapshot_at_round(config, round_number, *, faults=None):
    swarm = Swarm(config, backend="soa", faults=faults)
    swarm.setup()
    while swarm._rounds < round_number:
        if swarm.engine.step() is None:
            break
    return swarm.snapshot()


@pytest.mark.parametrize("boundary", [1, 5, 14])
def test_soa_resume_is_fingerprint_identical(boundary):
    config = soa_replay_config()
    reference = run_swarm(config, backend="soa").fingerprint()
    document = soa_snapshot_at_round(config, boundary)
    assert document["backend"] == "soa"
    resumed = restore_swarm(document)
    result = resumed.run()
    assert result.resumed_from_round == boundary
    assert result.backend == "soa"
    assert result.fingerprint() == reference


def test_soa_snapshot_survives_the_container(tmp_path):
    """NaN-able columns and uint64 bit words must pass the container."""
    config = soa_replay_config(seed=23)
    document = soa_snapshot_at_round(config, 8)
    path = tmp_path / "soa.ckpt"
    write_checkpoint(document, path)
    result = restore_swarm(read_checkpoint(path)).run()
    assert result.fingerprint() == run_swarm(config, backend="soa").fingerprint()


def test_soa_resume_with_fault_plan_replays_fault_stream():
    config = soa_replay_config(seed=29)
    plan = replay_fault_plan()
    reference = run_swarm(config, backend="soa", faults=plan)
    document = soa_snapshot_at_round(config, 9, faults=plan)
    result = restore_swarm(document).run()
    assert result.fingerprint() == reference.fingerprint()
    assert result.fault_stats.to_dict() == reference.fault_stats.to_dict()


def test_soa_periodic_checkpoints_do_not_perturb_the_run(tmp_path):
    config = soa_replay_config(seed=37)
    path = str(tmp_path / "periodic.ckpt")
    swarm = Swarm(
        config, backend="soa", checkpoint_every=4, checkpoint_path=path
    )
    result = swarm.run()
    assert result.checkpoints_written >= 2
    assert result.fingerprint() == run_swarm(config, backend="soa").fingerprint()


def test_soa_swarm_resume_classmethod_dispatches():
    config = soa_replay_config(seed=41)
    document = soa_snapshot_at_round(config, 6)
    swarm = Swarm.resume(document)
    assert swarm.backend == "soa"
    assert swarm.run().fingerprint() == run_swarm(
        config, backend="soa"
    ).fingerprint()


def test_soa_snapshot_rejects_wrong_schema_version():
    document = soa_snapshot_at_round(soa_replay_config(seed=43), 3)
    document["schema_version"] = 99
    with pytest.raises(CheckpointError, match="schema version"):
        restore_swarm(document)


def test_soa_snapshot_rejects_structural_damage():
    document = soa_snapshot_at_round(soa_replay_config(seed=47), 3)
    del document["store"]["free"]
    with pytest.raises(CheckpointError, match="structurally invalid"):
        restore_swarm(document)


@pytest.mark.parametrize(
    "column", ["joined_at", "counts", "is_seed", "upload_capacity", "nbr"]
)
def test_soa_snapshot_rejects_a_ragged_store_column(column):
    """A column cut to one row must not broadcast over every slot."""
    document = soa_snapshot_at_round(soa_replay_config(seed=59), 10)
    store = document["store"]
    assert len(store["slots"]) > 1
    store[column] = store[column][:1]
    with pytest.raises(CheckpointError, match=repr(column)):
        restore_swarm(document)


def test_sigkilled_soa_run_resumes_on_relaunch(tmp_path):
    """Kill a checkpointing soa run outright; relaunch must resume."""
    ckpt = Path(tmp_path) / "soa-kill.ckpt"
    script = textwrap.dedent(
        f"""
        import os, signal
        from repro.sim.swarm import Swarm
        from test_soa_checkpoint import soa_replay_config

        swarm = Swarm(
            soa_replay_config(seed=53),
            backend="soa",
            checkpoint_path={str(ckpt)!r},
            checkpoint_every=4,
        )
        swarm.setup()
        while swarm.checkpoints_written < 2:
            if swarm.engine.step() is None:
                break
        os.kill(os.getpid(), signal.SIGKILL)
        """
    )
    import repro

    env = os.environ.copy()
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    here = str(Path(__file__).resolve().parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir, here]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    victim = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
    )
    assert victim.returncode == -signal.SIGKILL, victim.stderr
    assert ckpt.is_file(), "the victim died before writing its snapshots"

    config = soa_replay_config(seed=53)
    result = run_swarm_with_checkpoints(
        config, checkpoint_path=ckpt, checkpoint_every=4, backend="soa"
    )
    assert result.resumed_from_round is not None
    assert result.resumed_from_round >= 8  # two 4-round snapshots landed
    assert result.fingerprint() == run_swarm(config, backend="soa").fingerprint()


def crowded_seed_config(seed: int = 3) -> SimConfig:
    """A soa swarm whose seeds hold more relations than a row is wide:
    a seed's ``nbr_deg`` is a bare counter, not bounded by the width."""
    return SimConfig(
        num_pieces=30,
        max_conns=3,
        ns_size=4,
        arrival_process="poisson",
        arrival_rate=5.0,
        initial_leechers=150,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=1,
        seed_upload_slots=2,
        completed_become_seeds=4.0,
        shake_threshold=0.9,
        max_time=20.0,
        seed=seed,
    )


def assert_stores_equal(restored, live):
    """Column by column, on every slot: a released slot is reset to
    each column's free value, so free slots match as well.  The seed
    entry counts are not stored: the restore recounts them."""
    np.testing.assert_array_equal(restored.alive, live.alive)
    np.testing.assert_array_equal(restored.nbr, live.nbr)
    np.testing.assert_array_equal(restored.nbr_deg, live.nbr_deg)
    np.testing.assert_array_equal(restored.nbr_seeds, live.nbr_seeds)
    assert restored.free == live.free
    for column in PEER_COLUMNS:
        np.testing.assert_array_equal(
            getattr(restored, column.name),
            getattr(live, column.name),
            err_msg=column.name,
        )


def test_restored_store_equals_the_live_store_column_by_column(tmp_path):
    swarm = Swarm(crowded_seed_config(), backend="soa")
    swarm.setup()
    while swarm._rounds < 6:
        swarm.engine.step()
    live = swarm.store
    seeds = live.alive & live.is_seed
    assert (live.nbr_deg[seeds] > live.nbr_width).any()
    assert (live.nbr_seeds > 1).any()
    path = tmp_path / "crowded.ckpt"
    write_checkpoint(swarm.snapshot(), path)
    assert_stores_equal(restore_swarm(read_checkpoint(path)).store, live)
