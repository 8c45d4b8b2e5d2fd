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

It also checks that no worker process outlives its swarm, the
coordinator's byte accounting, the shard profiler's charge for
migration, the coordinator's refusal to run without ``fork``,
a shard's seed-entry counts through migration, and a sharded flash
crowd's mean piece level against a calibrated mean-field integration.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import binom
from test_soa_invariants import assert_seed_entry_counts

from repro.core.meanfield import SwarmMeanField
from repro.errors import ParameterError, SimulationError
from repro.faults.plan import FaultPlan
from repro.sim.config import SimConfig
from repro.sim.sharded import (
    ShardedSwarm,
    ShardEngine,
    restore_sharded_swarm,
)
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
# Worker lifecycle: no worker process may outlive its swarm.
# ----------------------------------------------------------------------
def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live (or unreaped) process."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
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


def test_workers_exit_after_normal_close():
    swarm = Swarm(_lifecycle_config(), backend="sharded", shards=2)
    assert swarm.step_round()
    pids = swarm.worker_pids()
    assert len(pids) == 2 and all(_pid_alive(pid) for pid in pids)
    swarm.close()
    assert swarm.worker_pids() == []
    assert not any(_pid_alive(pid) for pid in pids)


def test_explicit_setup_starts_workers_once():
    """``setup()`` forks the workers; ``run()`` reuses them, reaps them
    on the way out, and matches a run without the explicit call."""
    config = _lifecycle_config()
    baseline = Swarm(config, backend="sharded", shards=2).run()
    swarm = Swarm(config, backend="sharded", shards=2)
    swarm.setup()
    pids = swarm.worker_pids()
    assert len(pids) == 2
    assert swarm.step_round()
    assert swarm.worker_pids() == pids
    result = swarm.run()
    assert result.fingerprint() == baseline.fingerprint()
    assert not any(_pid_alive(pid) for pid in pids)


def test_dead_generation_reaped_after_sigkilled_worker():
    """Recovery stops every worker of the dead generation, survivors
    included, before the fresh generation takes over."""
    swarm = Swarm(_lifecycle_config(), backend="sharded", shards=2)
    try:
        for _ in range(3):
            assert swarm.step_round()
        old_pids = swarm.worker_pids()
        os.kill(old_pids[0], signal.SIGKILL)
        assert swarm.step_round()  # notices the death, recovers, steps
        assert swarm.worker_restarts == 1
        new_pids = swarm.worker_pids()
        assert set(old_pids).isdisjoint(new_pids)
        assert not any(_pid_alive(pid) for pid in old_pids)
        assert all(_pid_alive(pid) for pid in new_pids)
    finally:
        swarm.close()
    assert not any(_pid_alive(pid) for pid in new_pids)


def test_workers_exit_after_coordinator_exception():
    """``run()`` stops every worker even when it dies mid-flight — here
    via an exhausted restart budget, with one worker SIGKILLed and the
    other still running."""
    swarm = Swarm(
        _lifecycle_config(), backend="sharded", shards=2,
        max_worker_restarts=0,
    )
    assert swarm.step_round()
    pids = swarm.worker_pids()
    os.kill(pids[0], signal.SIGKILL)
    with pytest.raises(SimulationError, match="restart budget"):
        swarm.run()
    assert not any(_pid_alive(pid) for pid in pids)


def test_migration_burst_reaches_horizon_conserving_peers():
    """Half of every shard migrates each round: the run still reaches
    its horizon, and every peer id is alive or recorded as completed."""
    config = _lifecycle_config(
        initial_leechers=400, arrival_process="none", arrival_rate=0.0,
        max_time=4.0,
    )
    swarm = Swarm(config, backend="sharded", shards=2, shard_mix=0.5)
    try:
        while swarm.step_round():
            pass
        document = swarm.snapshot()
        result = swarm.run()
    finally:
        swarm.close()
    assert result.total_rounds == 4
    _check_document_invariants(document)
    alive = [int(v) for v in _document_peers(document)[0]]
    departed = [int(record.peer_id) for record in result.metrics.completed]
    assert sorted(alive + departed) == list(range(402))


def test_comms_bytes_count_the_step_and_reply_arrays(monkeypatch):
    """``SwarmResult.comms`` counts the broadcast once per shard per
    round, and every migrant row twice: leaving one shard in a reply
    and entering the next in a step message."""
    config = _lifecycle_config(initial_leechers=60)
    immigrant_rows = []
    immigrant_bytes = []
    send = ShardedSwarm._send

    def recording_send(self, index, message):
        command, payload = message
        rows = payload["immigrants"] if command == "step" else None
        if rows is not None:
            immigrant_rows.append(int(rows["peer_id"].size))
            immigrant_bytes.append(
                sum(column.nbytes for column in rows.values())
            )
        send(self, index, message)

    monkeypatch.setattr(ShardedSwarm, "_send", recording_send)
    result = Swarm(config, backend="sharded", shards=2, shard_mix=0.2).run()
    comms = result.comms
    row_bytes = 66 + 16 * words_for(config.num_pieces)
    assert comms["bytes_broadcast"] == (
        result.total_rounds * 2 * 8 * config.num_pieces
    )
    assert sum(immigrant_rows) > 0
    assert sum(immigrant_bytes) == sum(immigrant_rows) * row_bytes
    assert comms["bytes_migrated"] == 2 * sum(immigrant_bytes)
    assert comms["bytes_migrated"] % row_bytes == 0
    assert comms["bytes_per_round"] == pytest.approx(
        (comms["bytes_broadcast"] + comms["bytes_migrated"])
        / result.total_rounds
    )


def test_profiled_shards_charge_migration_to_the_store_stage(monkeypatch):
    """Migration runs between a shard's rounds, outside their stages;
    ``lockstep_round`` charges it to the shard's ``store`` stage.  With
    half of each shard migrating, rounds 1-3 of 4 extract emigrants and
    rounds 2-4 absorb them, so a fixed delay in both calls adds at least
    six delays to every shard's ``store`` total."""
    delay = 0.05
    for name in ("extract_emigrants", "absorb_rows"):
        real = getattr(ShardEngine, name)

        def slowed(self, arg, real=real):
            time.sleep(delay)
            return real(self, arg)

        monkeypatch.setattr(ShardEngine, name, slowed)
    config = _lifecycle_config(
        initial_leechers=400, arrival_process="none", arrival_rate=0.0,
        max_time=4.0,
    )
    result = Swarm(
        config, backend="sharded", shards=2, shard_mix=0.5, profile=True
    ).run()
    assert result.total_rounds == 4
    for index in range(2):
        assert result.shard_profiles[f"shard{index}"]["store"] >= 6 * delay


def test_missing_fork_start_method_is_a_parameter_error(monkeypatch):
    """Without ``fork`` the sharded engine refuses at construction and
    points at the soa engine; ``shards=1`` (which is soa) still runs."""
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods",
        lambda: ["spawn", "forkserver"],
    )
    config = _lifecycle_config(max_time=3.0)
    with pytest.raises(ParameterError, match='backend="soa"'):
        Swarm(config, backend="sharded", shards=2)
    result = Swarm(config, backend="sharded", shards=1).run()
    assert result.backend == "soa"


# ----------------------------------------------------------------------
# Mean-field level check on a sharded flash crowd.
# ----------------------------------------------------------------------
def test_flash_crowd_mean_level_tracks_calibrated_mean_field():
    """A 10^4-peer flash crowd (B=20, 8 rounds, 2 shards): the mean
    leecher level of the back half of the run stays within 10% of the
    file of a :class:`SwarmMeanField` integration.

    This is a fit, not a prediction: the field's level velocity is
    calibrated on the first half of the same run, and only the back
    half is compared.  It is also loose.  Flash arrivals join empty
    (``initial_fill`` shapes only the field's start, and anchoring at
    round 1 hides that mismatch), so the level moves by hundredths of
    a piece against a 2-piece bound; only a gross error in the ledger
    or the field fails it.  A scaling check against an uncalibrated
    field should replace it.
    """
    peers, rounds, num_pieces, fill = 10_000, 8, 20, 0.5
    config = SimConfig(
        num_pieces=num_pieces,
        max_conns=4,
        ns_size=15,
        arrival_process="flash",
        arrival_rate=0.0,
        flash_size=peers,
        initial_leechers=0,
        initial_distribution="uniform",
        initial_fill=fill,
        num_seeds=peers // 1_000,
        seed_upload_slots=2,
        completed_become_seeds=0.0,
        piece_selection="rarest",
        max_time=float(rounds),
        seed=9,
    )
    swarm = Swarm(config, backend="sharded", shards=2)
    mean_level = []
    try:
        while swarm.step_round():
            # The coordinator's per-shard ledger gives the global piece
            # total each round without serializing the slabs.
            pieces = n_leech = n_seeds = 0
            for state in swarm._shard_state:
                pieces += int(np.sum(state["piece_counts"]))
                n_leech += state["n_leech"]
                n_seeds += state["n_seeds"]
            leech_pieces = pieces - n_seeds * num_pieces
            mean_level.append(leech_pieces / max(n_leech, 1))
        assert swarm.run().total_rounds == rounds
    finally:
        swarm.close()

    level = np.asarray(mean_level)
    times = np.arange(1, len(level) + 1, dtype=float)
    half = len(level) // 2
    velocity = max((level[half - 1] - level[0]) / (half - 1), 1e-6)
    field = SwarmMeanField(
        level_velocity=np.full(num_pieces, velocity),
        arrival_rate=0.0,
        efficiency=1.0,
    )
    x0 = peers * binom.pmf(np.arange(num_pieces), num_pieces, fill)
    trajectory = field.integrate(
        float(rounds), x0=x0, y0=float(config.num_seeds),
        points=4 * rounds + 1,
    )
    levels = np.arange(num_pieces, dtype=float)
    mf_level = (
        (trajectory.leechers * levels[:, None]).sum(axis=0)
        / np.maximum(trajectory.total_leechers(), 1.0)
    )
    # Anchor the field's level curve at the run's round-1 level.
    predicted = level[0] + np.interp(times, trajectory.times, mf_level)
    predicted -= np.interp(1.0, trajectory.times, mf_level)
    relerr = np.max(np.abs(predicted[half:] - level[half:])) / num_pieces
    assert relerr < 0.10


def test_seed_entry_counts_survive_migration_every_round():
    """A shard keeps ``nbr_seeds`` in place through migration: emigrant
    seeds leave the rows that held them, and immigrants arrive with
    empty rows and announce.  One in-process shard emigrates a fifth of
    its peers each round and absorbs them back the next, and its
    counts equal a whole-matrix recount after every round."""
    config = _lifecycle_config(
        num_pieces=40, arrival_process="none", initial_leechers=200,
        num_seeds=8, completed_become_seeds=3.0, max_time=12.0,
    )
    engine = ShardEngine(config)
    engine.setup()
    store = engine.store
    immigrants = None
    seed_emigrants, seed_entries = [], []
    for _ in range(12):
        emigrate = int(store.alive.sum()) // 5
        report = engine.lockstep_round(None, immigrants, None, emigrate)
        assert_seed_entry_counts(store)
        immigrants = report["emigrants"]
        seed_emigrants.append(int(immigrants["is_seed"].sum()))
        seed_entries.append(int(store.nbr_seeds.sum()))
    assert sum(seed_emigrants) > 10
    assert min(seed_entries) > 0
