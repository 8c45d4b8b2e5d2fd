"""Property-based invariants of the simulator under fault injection.

Hypothesis draws random (small) configurations *and* random FaultPlans
— every fault kind, intensities up to saturation, tracker outages — and
checks that no injected failure can break the simulator's structural
invariants:

* conservation: replication counts match the registry exactly, so no
  peer ever holds a piece it never received, and departures retract
  exactly the pieces the departing peer held;
* per-peer piece counts never exceed ``B``; acquisition logs are
  monotone in time;
* the event clock is monotone across every dispatch (observed through
  the same pre-dispatch hook the injector uses);
* the run terminates at its horizon;
* relations stay symmetric and within capacity;
* a zero-intensity plan is bit-identical to no plan at all.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, OutageWindow
from repro.sim.config import SimConfig
from repro.sim.swarm import Swarm
from repro.stability.entropy import replication_degrees

MAX_TIME = 15.0


@st.composite
def fault_plans(draw):
    outages = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        start = draw(st.floats(min_value=0.0, max_value=MAX_TIME))
        length = draw(st.floats(min_value=0.5, max_value=MAX_TIME))
        outages.append(OutageWindow(
            start, start + length, draw(st.sampled_from(["empty", "stale"]))
        ))
    return FaultPlan(
        churn_hazard=draw(st.floats(min_value=0.0, max_value=0.3)),
        connection_break_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        handshake_failure_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        shake_failure_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        outages=tuple(outages),
        salt=draw(st.integers(min_value=0, max_value=3)),
    )


@st.composite
def swarm_configs(draw):
    return SimConfig(
        num_pieces=draw(st.integers(min_value=3, max_value=20)),
        max_conns=draw(st.integers(min_value=1, max_value=4)),
        ns_size=draw(st.integers(min_value=2, max_value=10)),
        arrival_process=draw(st.sampled_from(["poisson", "flash", "none"])),
        arrival_rate=draw(st.floats(min_value=0.0, max_value=2.0)),
        flash_size=draw(st.integers(min_value=0, max_value=8)),
        initial_leechers=draw(st.integers(min_value=0, max_value=15)),
        initial_distribution=draw(st.sampled_from(["empty", "uniform"])),
        initial_fill=draw(st.floats(min_value=0.0, max_value=1.0)),
        num_seeds=draw(st.integers(min_value=0, max_value=2)),
        seed_upload_slots=draw(st.integers(min_value=0, max_value=3)),
        completed_become_seeds=draw(st.sampled_from([0.0, 5.0])),
        abort_rate=draw(st.floats(min_value=0.0, max_value=0.1)),
        piece_selection=draw(st.sampled_from(["rarest", "random"])),
        strict_tft=draw(st.booleans()),
        optimistic_unchoke_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        connection_failure_prob=draw(st.floats(min_value=0.0, max_value=0.5)),
        connection_setup_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        matching=draw(st.sampled_from(["blind", "greedy"])),
        shake_threshold=draw(st.sampled_from([None, 0.8])),
        max_time=MAX_TIME,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


@given(config=swarm_configs(), plan=fault_plans())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_invariants_hold_under_random_fault_plans(config, plan):
    swarm = Swarm(config, faults=plan)
    clock = []
    swarm.engine.add_pre_dispatch_hook(lambda t, e: clock.append(t))
    swarm.setup()
    swarm.engine.run_until(config.max_time)
    tracker = swarm.tracker

    # Termination: the horizon was reached, nothing left before it.
    assert swarm.engine.now >= config.max_time
    peek = swarm.engine.peek_time()
    assert peek is None or peek > config.max_time

    # The event clock is monotone across every dispatch.
    assert all(a <= b for a, b in zip(clock, clock[1:]))

    # Conservation: registry counts mirror the surviving bitfields, so
    # no peer holds a piece it never received (acquisitions are the only
    # way counts grow; churned departures retract exactly their pieces).
    bitfields = [p.bitfield for p in tracker.peers()]
    expected = replication_degrees(bitfields, config.num_pieces)
    np.testing.assert_array_equal(swarm.piece_counts, expected)
    assert (swarm.piece_counts >= 0).all()

    registered_ids = {p.peer_id for p in tracker.peers()}
    for peer in tracker.peers():
        # Piece counts never exceed B.
        assert peer.bitfield.count <= config.num_pieces
        # Acquisition logs are monotone in time.
        times = peer.stats.piece_times
        assert times == sorted(times)
        # Relations are symmetric, reference live peers, respect k.
        assert peer.neighbors <= registered_ids
        assert peer.partners <= registered_ids
        for neighbor_id in peer.neighbors:
            assert peer.peer_id in tracker.get(neighbor_id).neighbors
        for partner_id in peer.partners:
            assert peer.peer_id in tracker.get(partner_id).partners
        if not peer.is_seed:
            assert len(peer.partners) <= config.max_conns

    # The injector only ever fired faults the plan allows, and every
    # churned peer went through the abort bookkeeping.
    stats = swarm.fault_injector.stats
    assert swarm.metrics.abort_count() >= stats.peers_churned
    if plan.churn_hazard == 0.0:
        assert stats.peers_churned == 0
    if plan.connection_break_prob == 0.0:
        assert stats.connections_broken == 0
    if plan.handshake_failure_prob == 0.0:
        assert stats.handshakes_failed == 0
    if plan.shake_failure_prob == 0.0 or config.shake_threshold is None:
        assert stats.shakes_failed == 0
    if not plan.outages:
        assert stats.announces_empty == 0
        assert stats.announces_stale == 0


@given(config=swarm_configs(), salt=st.integers(min_value=0, max_value=5))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_zero_intensity_plan_is_bit_identical_to_no_plan(config, salt):
    def run(faults):
        swarm = Swarm(config, faults=faults)
        swarm.setup()
        swarm.engine.run_until(config.max_time)
        return (
            swarm.piece_counts.tolist(),
            sorted(p.peer_id for p in swarm.tracker.peers()),
            sorted(
                (p.peer_id, p.bitfield.count, tuple(sorted(p.partners)))
                for p in swarm.tracker.peers()
            ),
            len(swarm.metrics.completed),
            swarm.connection_stats.__dict__.copy(),
            list(swarm.metrics.population_series),
        )

    assert run(None) == run(FaultPlan(salt=salt))


@given(config=swarm_configs(), plan=fault_plans())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_faulted_runs_are_deterministic_per_seed(config, plan):
    def run():
        swarm = Swarm(config, faults=plan)
        swarm.setup()
        swarm.engine.run_until(config.max_time)
        return (
            swarm.piece_counts.tolist(),
            sorted(p.peer_id for p in swarm.tracker.peers()),
            swarm.fault_injector.stats.to_dict(),
        )

    assert run() == run()
