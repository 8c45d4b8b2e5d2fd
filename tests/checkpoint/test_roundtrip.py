"""Snapshot round-trip properties, per stateful component.

Replay equivalence (``test_replay``) is the end-to-end guarantee; these
tests localise it.  Each stateful component — RNG streams, Bitfield,
event engine, tracker, choker counters, potential-set cache,
FaultInjector — is snapshotted, pushed through the container payload, restored
into a *fresh* object, and then driven forward to show the restored
copy behaves identically.  The headline property ties them together:
re-snapshotting a restored swarm reproduces the original document
byte-for-byte.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ckpt_helpers import replay_config, replay_fault_plan, run_to_round
from repro.checkpoint.format import dumps_payload, loads_payload
from repro.checkpoint.schema import _sanitize_rng_state, snapshot_swarm
from repro.faults.injector import FaultInjector
from repro.sim.bitfield import Bitfield
from repro.sim.engine import DiscreteEventEngine, Event
from repro.sim.swarm import Swarm


def json_trip(document: dict) -> dict:
    """What a reader hands the restore path: a container-payload
    round-trip."""
    return loads_payload(dumps_payload(document))


# ----------------------------------------------------------------------
# RNG streams
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    warmup=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_rng_state_roundtrip_preserves_stream(seed, warmup):
    rng = np.random.default_rng(seed)
    rng.random(warmup)
    state = json_trip(_sanitize_rng_state(rng.bit_generator.state))

    fresh = np.random.default_rng(0)
    fresh.bit_generator.state = state
    assert fresh.random(64).tolist() == rng.random(64).tolist()
    assert fresh.integers(0, 1 << 30, 16).tolist() == (
        rng.integers(0, 1 << 30, 16).tolist()
    )


# ----------------------------------------------------------------------
# Bitfield
# ----------------------------------------------------------------------
@given(data=st.data(), num_pieces=st.integers(min_value=1, max_value=120))
@settings(max_examples=50, deadline=None)
def test_bitfield_mask_roundtrip(data, num_pieces):
    held = data.draw(
        st.sets(st.integers(min_value=0, max_value=num_pieces - 1))
    )
    field = Bitfield(num_pieces)
    for piece in held:
        field.add(piece)
    restored = Bitfield(num_pieces, int(field.mask))
    assert set(restored.pieces()) == held
    assert restored.count == len(held)
    assert restored.mask == field.mask


# ----------------------------------------------------------------------
# Event engine
# ----------------------------------------------------------------------
def test_engine_roundtrip_replays_identical_event_sequence():
    def build(record):
        engine = DiscreteEventEngine()
        for kind in ("round", "arrival", "announce"):
            engine.register(
                kind, lambda t, e, k=kind: record.append((t, k, e.payload))
            )
        return engine

    log_a: list = []
    engine = build(log_a)
    # Same-time events exercise the seq tie-breaker; payloads ride too.
    for i in range(12):
        engine.schedule_at(float(i % 4), Event("round", payload=i))
        engine.schedule_at(float(i % 4), Event("arrival"))
    engine.schedule_at(2.0, Event("announce", payload=[1, 2]))
    for _ in range(7):
        engine.step()

    state = json_trip(engine.snapshot_state())
    log_b: list = []
    restored = build(log_b)
    restored.restore_state(state)
    assert restored.now == engine.now
    assert restored.processed_events == engine.processed_events
    assert restored.pending_events == engine.pending_events

    while engine.step() is not None:
        pass
    while restored.step() is not None:
        pass
    assert log_b == log_a[7:]
    # A second snapshot of the drained pair agrees too.
    assert json_trip(restored.snapshot_state()) == json_trip(
        engine.snapshot_state()
    )


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------
def test_fault_injector_roundtrip_preserves_fault_stream():
    plan = replay_fault_plan()
    injector = FaultInjector(plan, root_seed=42)
    injector.observe(9.0)  # inside the stale outage window
    for _ in range(40):
        injector.churn_peer()
        injector.break_connection()
        injector.fail_handshake()
    injector.fail_shake()

    state = json_trip(injector.snapshot_state())
    restored = FaultInjector(plan, root_seed=42)
    restored.restore_state(state)

    assert restored.now == injector.now
    assert restored.stats.to_dict() == injector.stats.to_dict()
    draws_a = [
        (injector.churn_peer(), injector.break_connection(),
         injector.fail_handshake(), injector.fail_shake())
        for _ in range(60)
    ]
    draws_b = [
        (restored.churn_peer(), restored.break_connection(),
         restored.fail_handshake(), restored.fail_shake())
        for _ in range(60)
    ]
    assert draws_a == draws_b
    assert restored.stats.to_dict() == injector.stats.to_dict()


# ----------------------------------------------------------------------
# Tracker, choker counters, potential sets, metrics — via the swarm
# ----------------------------------------------------------------------
def test_restored_swarm_resnapshot_is_byte_identical():
    """snapshot(restore(doc)) == doc, to the canonical byte.

    The strongest localisation: if any component restored into a
    subtly different shape (an order, a dtype, a missed counter), its
    re-snapshot would differ.
    """
    swarm = run_to_round(replay_config(), 15, faults=replay_fault_plan())
    document = json_trip(swarm.snapshot())
    restored = Swarm.resume(document)
    assert dumps_payload(snapshot_swarm(restored)) == dumps_payload(document)


def test_tracker_registry_restored_in_live_iteration_order():
    swarm = run_to_round(replay_config(), 12)
    document = json_trip(swarm.snapshot())
    restored = Swarm.resume(document)

    live, back = swarm.tracker, restored.tracker
    assert [p.peer_id for p in back.peers()] == [
        p.peer_id for p in live.peers()
    ]
    assert back._next_id == live._next_id
    assert back._bootstrap_trapped == live._bootstrap_trapped
    assert (
        restored.metrics.population_series == swarm.metrics.population_series
    )
    for mine, theirs in zip(live.peers(), back.peers()):
        assert theirs.bitfield.mask == mine.bitfield.mask
        assert theirs.neighbors == mine.neighbors
        assert theirs.partners == mine.partners
        assert theirs.block_progress == mine.block_progress


def test_choker_counters_and_potential_cache_restored():
    swarm = run_to_round(replay_config(), 12)
    document = json_trip(swarm.snapshot())
    restored = Swarm.resume(document)

    assert restored.connection_stats.__dict__ == swarm.connection_stats.__dict__
    assert restored._potential_sets._dirty == swarm._potential_sets._dirty
    assert restored._potential_sets._cache == swarm._potential_sets._cache
    assert restored.piece_counts.tolist() == swarm.piece_counts.tolist()


def test_restored_potential_listener_still_fires():
    """The dirty-set listener must survive restore (in-place mutation).

    Regression for the silent-divergence bug: rebinding ``_dirty`` to a
    fresh set orphans the tracker's bound-method listener, and resumed
    runs drift only when fault churn makes neighborhoods change.
    """
    swarm = run_to_round(replay_config(), 10)
    restored = Swarm.resume(json_trip(swarm.snapshot()))
    restored._potential_sets._dirty.clear()
    some_peer = next(iter(restored.tracker.peers()))
    restored.tracker.notify_neighbors_changed(some_peer.peer_id)
    assert some_peer.peer_id in restored._potential_sets._dirty
