"""Sharded checkpointing: worker death, resume, elastic re-sharding.

The sharded backend reuses the soa snapshot document as its per-shard
block and the PR-2 crash-recovery machinery for shard-worker death, so
the guarantees under test compose the two:

* a SIGKILLed shard worker rolls every shard back to the latest
  coordinated snapshot and replays — the finished run is
  fingerprint-identical to an uninterrupted one;
* an abandoned run resumes from its checkpoint file through
  ``run_swarm_with_checkpoints`` with an identical fingerprint;
* a checkpoint taken at ``shards=2`` resumes at ``shards=4``
  (checkpoint -> repartition -> resume) deterministically, conserving
  every peer id;
* ``shards=1`` is the soa engine, so it writes soa checkpoints, and a
  soa checkpoint (or a container from the older ``shards=1`` wrapper)
  resumes at one shard exactly and at ``shards >= 2`` through the same
  repartition.
"""

import os
import signal

import pytest

from repro.checkpoint.format import read_checkpoint, write_checkpoint
from repro.checkpoint.store import run_swarm_with_checkpoints
from repro.errors import CheckpointError, SimulationError
from repro.sim.config import SimConfig
from repro.sim.sharded import restore_sharded_swarm
from repro.sim.swarm import Swarm, run_swarm


def sharded_config(**overrides):
    base = dict(
        num_pieces=30,
        max_conns=3,
        ns_size=12,
        arrival_process="poisson",
        arrival_rate=3.0,
        initial_leechers=60,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=2,
        seed_upload_slots=2,
        piece_selection="rarest",
        max_time=25.0,
        seed=7,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_sigkilled_shard_worker_resumes_fingerprint_identical(tmp_path):
    """The acceptance criterion: kill one worker mid-run, finish, and
    match the uninterrupted run byte-for-byte."""
    config = sharded_config()
    baseline = run_swarm(config, backend="sharded", shards=2)

    path = str(tmp_path / "shards.repro-ckpt")
    swarm = Swarm(
        config, backend="sharded", shards=2,
        checkpoint_every=5, checkpoint_path=path,
    )
    for _ in range(8):
        assert swarm.step_round()
    victim = swarm.worker_pids()[1]
    os.kill(victim, signal.SIGKILL)
    result = swarm.run()
    assert swarm.worker_restarts == 1
    assert result.fingerprint() == baseline.fingerprint()


def test_worker_death_without_checkpoints_replays_from_round_zero():
    config = sharded_config(max_time=15.0)
    baseline = run_swarm(config, backend="sharded", shards=2)

    swarm = Swarm(config, backend="sharded", shards=2)
    for _ in range(4):
        assert swarm.step_round()
    os.kill(swarm.worker_pids()[0], signal.SIGKILL)
    result = swarm.run()
    assert swarm.worker_restarts == 1
    assert result.fingerprint() == baseline.fingerprint()


def test_restart_budget_exhaustion_raises():
    config = sharded_config(max_time=15.0)
    swarm = Swarm(
        config, backend="sharded", shards=2, max_worker_restarts=0
    )
    assert swarm.step_round()
    os.kill(swarm.worker_pids()[0], signal.SIGKILL)
    with pytest.raises(SimulationError, match="restart budget"):
        swarm.run()
    swarm.close()


def test_abandoned_run_resumes_from_checkpoint_file(tmp_path):
    """Coordinator death: relaunch picks up the latest coordinated
    snapshot via the standard checkpoint entry point."""
    config = sharded_config()
    baseline = run_swarm(config, backend="sharded", shards=2)

    path = tmp_path / "shards.repro-ckpt"
    swarm = Swarm(
        config, backend="sharded", shards=2,
        checkpoint_every=6, checkpoint_path=str(path),
    )
    for _ in range(9):
        assert swarm.step_round()
    swarm.close()  # the coordinator "dies" with 9 rounds done, 6 saved

    result = run_swarm_with_checkpoints(
        config, checkpoint_path=path, backend="sharded", shards=2
    )
    assert result.resumed_from_round == 6
    assert result.backend == "sharded"
    assert result.fingerprint() == baseline.fingerprint()


def test_solo_shard_checkpoint_resumes_identical_to_soa(tmp_path):
    """shards=1 writes a plain soa document and stays exact."""
    config = sharded_config(max_time=20.0)
    baseline = run_swarm(config, backend="soa")

    path = tmp_path / "solo.repro-ckpt"
    swarm = Swarm(
        config, backend="sharded", shards=1,
        checkpoint_every=7, checkpoint_path=str(path),
    )
    for _ in range(10):
        assert swarm.step_round()
    document = read_checkpoint(path)
    assert document["backend"] == "soa"
    assert "shards" not in document

    result = run_swarm_with_checkpoints(
        config, checkpoint_path=path, backend="sharded", shards=1
    )
    assert result.resumed_from_round == 7
    assert result.fingerprint() == baseline.fingerprint()


def _soa_checkpoint(tmp_path, config, every=6, rounds=8):
    """Step a ``shards=1`` swarm past one checkpoint; the file's path."""
    path = tmp_path / "one-shard.repro-ckpt"
    swarm = Swarm(
        config, backend="sharded", shards=1,
        checkpoint_every=every, checkpoint_path=str(path),
    )
    for _ in range(rounds):
        assert swarm.step_round()
    return path


def _peer_ids(sharded_document):
    return sorted(
        peer_id
        for shard_doc in sharded_document["shard_docs"]
        for peer_id in shard_doc["store"]["peer_id"]
    )


def test_soa_checkpoint_lifts_onto_two_shards(tmp_path):
    """A one-shard (soa) checkpoint resumes at shards=2: every peer id
    survives the repartition, the run reaches the horizon, arrivals
    continue, and two resumes are fingerprint-identical."""
    config = sharded_config()
    path = _soa_checkpoint(tmp_path, config)
    document = read_checkpoint(path)
    assert document["backend"] == "soa"

    swarm = restore_sharded_swarm(document, shards=2)
    swarm.setup()
    assert _peer_ids(swarm.snapshot()) == sorted(
        document["store"]["peer_id"]
    )
    first = swarm.run()
    assert first.backend == "sharded"
    assert first.resumed_from_round == 6
    assert first.total_rounds == int(config.max_time)
    assert swarm._global_next_id > document["swarm"]["next_id"]

    second = run_swarm_with_checkpoints(
        config, checkpoint_path=path, backend="sharded", shards=2
    )
    assert second.backend == "sharded"
    assert second.fingerprint() == first.fingerprint()


def test_legacy_single_shard_container_still_resumes(tmp_path):
    """Containers from the old ``shards=1`` wrapper (a soa document
    under a sharded envelope) resume at one shard and at two."""
    config = sharded_config(max_time=20.0)
    baseline = run_swarm(config, backend="soa")
    soa_document = read_checkpoint(_soa_checkpoint(tmp_path, config, 7, 10))
    legacy = tmp_path / "legacy.repro-ckpt"
    write_checkpoint({
        "schema_version": soa_document["schema_version"],
        "backend": "sharded",
        "shards": 1,
        "config": soa_document["config"],
        "faults_plan": None,
        "solo": soa_document,
    }, legacy)

    result = run_swarm_with_checkpoints(
        config, checkpoint_path=legacy, backend="sharded", shards=1
    )
    assert result.resumed_from_round == 7
    assert result.fingerprint() == baseline.fingerprint()

    resharded = Swarm.resume(read_checkpoint(legacy), shards=2)
    resharded.setup()
    assert _peer_ids(resharded.snapshot()) == sorted(
        soa_document["store"]["peer_id"]
    )
    assert resharded.run().total_rounds == int(config.max_time)


def test_reshard_on_resume_two_to_four(tmp_path):
    """Checkpoint at N=2, resume at N=4: completes, conserves peers,
    and is deterministic (two identical repartitioned resumes)."""
    config = sharded_config()
    path = tmp_path / "reshard.repro-ckpt"
    swarm = Swarm(
        config, backend="sharded", shards=2,
        checkpoint_every=6, checkpoint_path=str(path),
    )
    for _ in range(6):
        assert swarm.step_round()
    swarm.close()

    document = read_checkpoint(path)
    peers_at_checkpoint = sum(
        state["n_leech"] + state["n_seeds"]
        for state in document["coordinator"]["shard_state"]
    )
    assert peers_at_checkpoint > 0

    first = run_swarm_with_checkpoints(
        config, checkpoint_path=path, backend="sharded", shards=4
    )
    assert first.resumed_from_round == 6
    assert first.total_rounds == int(config.max_time)
    second = restore_sharded_swarm(read_checkpoint(path), shards=4).run()
    assert first.fingerprint() == second.fingerprint()

    # The repartitioned trajectory differs from the 2-shard one (the
    # equivalence tests bound how much), but it must still be a
    # complete, checkpoint-resumable run.
    same_count = restore_sharded_swarm(read_checkpoint(path)).run()
    assert same_count.total_rounds == first.total_rounds


def test_reshard_to_single_worker_is_rejected(tmp_path):
    config = sharded_config(max_time=10.0)
    path = tmp_path / "down.repro-ckpt"
    swarm = Swarm(
        config, backend="sharded", shards=2,
        checkpoint_every=3, checkpoint_path=str(path),
    )
    for _ in range(3):
        assert swarm.step_round()
    swarm.close()
    with pytest.raises(CheckpointError, match="shards=1"):
        restore_sharded_swarm(read_checkpoint(path), shards=1)


def test_structurally_invalid_sharded_document_raises(tmp_path):
    from repro.checkpoint.schema import SCHEMA_VERSION, restore_swarm

    with pytest.raises(CheckpointError, match="structurally invalid"):
        restore_swarm({
            "schema_version": SCHEMA_VERSION,
            "backend": "sharded",
            "shards": 2,
            "config": sharded_config().to_dict(),
        })
