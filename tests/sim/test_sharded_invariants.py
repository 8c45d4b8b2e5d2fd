"""Property-based fuzzing of the sharded swarm backend.

Hypothesis draws random configurations from the soa-supported subset
plus sharding knobs (shard count, migration mix, fault plans) and the
suite checks the cross-shard structural invariants on coordinated
snapshot documents:

* peer-id conservation — no id is lost or duplicated across shard
  boundaries or in-flight migration batches, and ids never exceed the
  coordinator's allocation watermark;
* global ``piece_counts`` consistency — the coordinator's per-shard
  ledger sums to exactly the replication counts recomputed from every
  shard's packed bitfields plus the in-flight rows;
* alive/seed mask consistency — per-shard populations match the store
  masks, globally and per document;
* deterministic fingerprints for fixed seeds, with and without fault
  plans, and across mid-run re-sharding.
"""

import os
import signal
from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.sim.config import SimConfig
from repro.sim.sharded import restore_sharded_swarm
from repro.sim.soa import popcount_rows, words_for
from repro.sim.swarm import Swarm


@st.composite
def sharded_configs(draw):
    """Random configurations within the sharded-supported subset."""
    return SimConfig(
        num_pieces=draw(st.integers(min_value=3, max_value=25)),
        max_conns=draw(st.integers(min_value=1, max_value=4)),
        ns_size=draw(st.integers(min_value=2, max_value=10)),
        arrival_process=draw(st.sampled_from(["poisson", "flash", "none"])),
        arrival_rate=draw(st.floats(min_value=0.0, max_value=2.0)),
        flash_size=draw(st.integers(min_value=0, max_value=12)),
        initial_leechers=draw(st.integers(min_value=0, max_value=24)),
        initial_distribution=draw(
            st.sampled_from(["empty", "uniform", "skewed"])
        ),
        initial_fill=draw(st.floats(min_value=0.0, max_value=1.0)),
        num_seeds=draw(st.integers(min_value=0, max_value=3)),
        seed_upload_slots=draw(st.integers(min_value=0, max_value=3)),
        completed_become_seeds=draw(st.sampled_from([0.0, 5.0])),
        abort_rate=draw(st.floats(min_value=0.0, max_value=0.1)),
        piece_selection=draw(
            st.sampled_from(["rarest", "strict-rarest", "random"])
        ),
        optimistic_unchoke_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        connection_failure_prob=draw(st.floats(min_value=0.0, max_value=0.5)),
        connection_setup_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        max_time=10.0,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


def _document_peers(document):
    """(ids, is_seed, bits) across every shard doc and in-flight batch."""
    words = words_for(SimConfig.from_dict(document["config"]).num_pieces)
    ids, seeds, bits = [], [], []
    for shard_doc in document["shard_docs"]:
        block = shard_doc["store"]
        ids.extend(int(v) for v in block["peer_id"])
        seeds.extend(bool(v) for v in block["is_seed"])
        bits.extend([int(w) for w in row] for row in block["bits"])
    for rows in document["coordinator"]["pending_rows"]:
        if rows is not None:
            ids.extend(int(v) for v in rows["peer_id"])
            seeds.extend(bool(v) for v in rows["is_seed"])
            bits.extend([int(w) for w in row] for row in rows["bits"])
    bits_array = (
        np.asarray(bits, dtype=np.uint64).reshape(len(ids), words)
        if ids
        else np.zeros((0, words), dtype=np.uint64)
    )
    return (
        np.asarray(ids, dtype=np.int64),
        np.asarray(seeds, dtype=bool),
        bits_array,
    )


def _check_document_invariants(document):
    config = SimConfig.from_dict(document["config"])
    coordinator = document["coordinator"]
    ids, seeds, bits = _document_peers(document)

    # Peer-id conservation: unique ids, all under the allocation mark.
    assert np.unique(ids).size == ids.size
    if ids.size:
        assert ids.min() >= 0
        assert ids.max() < int(coordinator["global_next_id"])

    # Global replication ledger == recomputed sum over every shard's
    # packed bits plus the in-flight migration rows.
    ledger = np.zeros(config.num_pieces, dtype=np.int64)
    for state in coordinator["shard_state"]:
        ledger += np.asarray(state["piece_counts"], dtype=np.int64)
    from repro.sim.soa import unpack_rows

    recomputed = (
        unpack_rows(bits, config.num_pieces).sum(axis=0)
        if ids.size
        else np.zeros(config.num_pieces, dtype=np.int64)
    )
    np.testing.assert_array_equal(ledger, recomputed)

    # Alive/seed mask consistency, per shard document and globally.
    for shard_doc in document["shard_docs"]:
        block = shard_doc["store"]
        sw = shard_doc["swarm"]
        assert sw["n_leech"] + sw["n_seeds"] == len(block["slots"])
        assert sum(bool(v) for v in block["is_seed"]) == sw["n_seeds"]
        if len(block["slots"]):
            held = np.array(
                [[int(w) for w in row] for row in block["bits"]],
                dtype=np.uint64,
            )
            np.testing.assert_array_equal(
                np.asarray(block["counts"], dtype=np.int64),
                popcount_rows(held),
            )
    total_ledger = sum(
        state["n_leech"] + state["n_seeds"]
        for state in coordinator["shard_state"]
    )
    assert total_ledger == ids.size
    assert int(seeds.sum()) == sum(
        state["n_seeds"] for state in coordinator["shard_state"]
    )


@given(
    config=sharded_configs(),
    shards=st.integers(min_value=2, max_value=4),
    mix=st.floats(min_value=0.0, max_value=0.3),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_snapshot_invariants_under_random_configs(config, shards, mix):
    swarm = Swarm(config, backend="sharded", shards=shards, shard_mix=mix)
    try:
        for _ in range(4):
            if not swarm.step_round():
                break
        _check_document_invariants(swarm.snapshot())
    finally:
        swarm.close()


@given(
    config=sharded_configs(),
    shards=st.integers(min_value=2, max_value=3),
    plan_seed=st.integers(0, 100),
)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_snapshot_invariants_under_faults(config, shards, plan_seed):
    plan = FaultPlan(
        churn_hazard=0.02,
        connection_break_prob=0.1,
        handshake_failure_prob=0.2,
        salt=plan_seed,
    )
    swarm = Swarm(
        config, backend="sharded", shards=shards, shard_mix=0.1, faults=plan
    )
    try:
        for _ in range(4):
            if not swarm.step_round():
                break
        _check_document_invariants(swarm.snapshot())
    finally:
        swarm.close()


@given(
    config=sharded_configs(),
    shards=st.integers(min_value=2, max_value=4),
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_migration_conserves_peer_ids_between_rounds(config, shards):
    """Between two snapshots, departures are exactly the recorded
    completions: ``alive(t2) + completed == alive(t1) + arrivals``.

    Aborts and churn are disabled and completions depart immediately
    (``completed_become_seeds=0``), so the only ways a peer id can
    appear or vanish are coordinator-assigned arrivals and recorded
    completions — migration itself must conserve the id multiset.
    """
    config = config.with_changes(abort_rate=0.0, completed_become_seeds=0.0)
    swarm = Swarm(config, backend="sharded", shards=shards, shard_mix=0.25)
    try:
        for _ in range(2):
            if not swarm.step_round():
                break
        first = swarm.snapshot()
        completed_before = len(swarm.metrics.completed)
        for _ in range(3):
            if not swarm.step_round():
                break
        second = swarm.snapshot()
        departed = {
            int(record.peer_id)
            for record in swarm.metrics.completed[completed_before:]
        }
        ids_before = set(
            int(v) for v in _document_peers(first)[0]
        )
        ids_after = set(
            int(v) for v in _document_peers(second)[0]
        )
        arrivals = set(range(
            int(first["coordinator"]["global_next_id"]),
            int(second["coordinator"]["global_next_id"]),
        ))
        assert ids_after | departed == ids_before | arrivals
        assert ids_after.isdisjoint(departed)
    finally:
        swarm.close()


@given(
    config=sharded_configs(),
    shards=st.integers(min_value=2, max_value=3),
    new_shards=st.integers(min_value=2, max_value=4),
)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_mid_run_resharding_conserves_state(config, shards, new_shards):
    """Checkpoint at N, repartition to M: ids and pieces carry over
    exactly, the resumed run completes, and it is deterministic."""
    swarm = Swarm(config, backend="sharded", shards=shards, shard_mix=0.1)
    try:
        for _ in range(3):
            if not swarm.step_round():
                break
        document = swarm.snapshot()
    finally:
        swarm.close()

    ids_before, seeds_before, _ = _document_peers(document)
    resharded = restore_sharded_swarm(document, shards=new_shards)
    try:
        second = resharded.snapshot()
    finally:
        resharded.close()
    _check_document_invariants(second)
    ids_after, seeds_after, _ = _document_peers(second)
    assert sorted(ids_before.tolist()) == sorted(ids_after.tolist())
    assert int(seeds_before.sum()) == int(seeds_after.sum())

    first_run = restore_sharded_swarm(document, shards=new_shards).run()
    second_run = restore_sharded_swarm(document, shards=new_shards).run()
    assert first_run.fingerprint() == second_run.fingerprint()


@given(config=sharded_configs(), shards=st.integers(min_value=1, max_value=3))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_sharded_runs_are_deterministic_per_seed(config, shards):
    def run():
        return Swarm(
            config, backend="sharded", shards=shards, shard_mix=0.1
        ).run().fingerprint()

    assert run() == run()


# ----------------------------------------------------------------------
# Shared-memory fabric lifecycle: no segment may outlive its swarm.
# ----------------------------------------------------------------------
def _segment_exists(name: str) -> bool:
    """Whether ``name`` still exists in the OS shm namespace."""
    try:
        probe = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    probe.close()
    return True


def _lifecycle_config(**overrides) -> SimConfig:
    base = dict(
        num_pieces=8,
        max_conns=2,
        ns_size=4,
        arrival_process="poisson",
        arrival_rate=0.5,
        initial_leechers=12,
        initial_distribution="uniform",
        initial_fill=0.3,
        num_seeds=2,
        seed_upload_slots=2,
        piece_selection="rarest",
        max_time=10.0,
        seed=7,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_fabric_segments_unlinked_after_normal_close():
    swarm = Swarm(_lifecycle_config(), backend="sharded", shards=2)
    assert swarm.step_round()
    names = swarm.fabric_segment_names()
    assert len(names) == 1 + 3 * 2  # broadcast + per-shard triples
    assert all(_segment_exists(name) for name in names)
    swarm.close()
    for name in names:
        assert not _segment_exists(name)


def test_explicit_setup_starts_workers_once():
    """``setup()`` forks the workers; ``run()`` reuses them and still
    unlinks every segment."""
    config = _lifecycle_config()
    baseline = Swarm(config, backend="sharded", shards=2).run()
    swarm = Swarm(config, backend="sharded", shards=2)
    swarm.setup()
    pids = swarm.worker_pids()
    names = swarm.fabric_segment_names()
    assert len(pids) == 2 and names
    assert all(name.startswith("rbt-") for name in names)
    assert swarm.step_round()
    assert swarm.worker_pids() == pids
    result = swarm.run()
    assert result.fingerprint() == baseline.fingerprint()
    assert not any(_segment_exists(name) for name in names)


def test_fabric_segments_recreated_after_sigkilled_worker():
    """Recovery tears the whole fabric down and builds a fresh one; the
    dead generation's segments must be gone the moment recovery ends."""
    swarm = Swarm(_lifecycle_config(), backend="sharded", shards=2)
    try:
        for _ in range(3):
            assert swarm.step_round()
        old_names = swarm.fabric_segment_names()
        os.kill(swarm.worker_pids()[0], signal.SIGKILL)
        assert swarm.step_round()  # notices the death, recovers, steps
        assert swarm.worker_restarts == 1
        new_names = swarm.fabric_segment_names()
        assert set(old_names).isdisjoint(new_names)
        for name in old_names:
            assert not _segment_exists(name)
        assert all(_segment_exists(name) for name in new_names)
    finally:
        swarm.close()
    for name in new_names:
        assert not _segment_exists(name)


def test_fabric_segments_unlinked_after_coordinator_exception():
    """``run()`` must clean the fabric even when it dies mid-flight —
    here via restart-budget exhaustion with every worker SIGKILLed."""
    swarm = Swarm(
        _lifecycle_config(), backend="sharded", shards=2,
        max_worker_restarts=0,
    )
    assert swarm.step_round()
    names = swarm.fabric_segment_names()
    assert all(_segment_exists(name) for name in names)
    for pid in swarm.worker_pids():
        os.kill(pid, signal.SIGKILL)
    with pytest.raises(SimulationError, match="restart budget"):
        swarm.run()
    for name in names:
        assert not _segment_exists(name)


def test_fabric_growth_unlinks_replaced_segments():
    """A migration burst beyond the initial row capacity grows blocks
    in place; the replaced segments disappear immediately."""
    config = _lifecycle_config(
        initial_leechers=400, arrival_process="none", arrival_rate=0.0,
        max_time=4.0,
    )
    swarm = Swarm(config, backend="sharded", shards=2, shard_mix=0.5)
    try:
        for _ in range(2):
            assert swarm.step_round()
        assert swarm._fabric.grows >= 1
        names = swarm.fabric_segment_names()
        assert all(_segment_exists(name) for name in names)
    finally:
        swarm.close()
    for name in names:
        assert not _segment_exists(name)
