"""Property-based fuzzing of the swarm simulator.

Hypothesis draws random (small) configurations and the suite checks the
structural invariants that must hold under *any* configuration:

* replication counts match the registry exactly;
* neighbor and partner relations are symmetric;
* partner counts never exceed ``k``; partners are never seeds under
  strict tit-for-tat;
* piece holdings never decrease; completed peers are never registered
  leechers (with immediate departure);
* metrics series stay within their domains;
* after every round, the object engine's maintained ``piece_counts``
  equal a recount of every live peer's bitfield — the round's entropy
  sample reads ``piece_counts`` instead of recounting.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, OutageWindow
from repro.sim.config import SimConfig
from repro.sim.swarm import Swarm
from repro.stability.entropy import entropy, replication_degrees


@st.composite
def swarm_configs(draw):
    num_pieces = draw(st.integers(min_value=3, max_value=25))
    max_conns = draw(st.integers(min_value=1, max_value=5))
    ns_size = draw(st.integers(min_value=2, max_value=12))
    return SimConfig(
        num_pieces=num_pieces,
        max_conns=max_conns,
        ns_size=ns_size,
        arrival_process=draw(st.sampled_from(["poisson", "flash", "none"])),
        arrival_rate=draw(st.floats(min_value=0.0, max_value=2.0)),
        flash_size=draw(st.integers(min_value=0, max_value=10)),
        initial_leechers=draw(st.integers(min_value=0, max_value=20)),
        initial_distribution=draw(
            st.sampled_from(["empty", "uniform", "skewed"])
        ),
        initial_fill=draw(st.floats(min_value=0.0, max_value=1.0)),
        skew_factor=draw(st.floats(min_value=0.0, max_value=1.0)),
        blocks_per_piece=draw(st.integers(min_value=1, max_value=3)),
        num_seeds=draw(st.integers(min_value=0, max_value=2)),
        seed_upload_slots=draw(st.integers(min_value=0, max_value=3)),
        super_seeding=draw(st.booleans()),
        completed_become_seeds=draw(st.sampled_from([0.0, 5.0])),
        abort_rate=draw(st.floats(min_value=0.0, max_value=0.1)),
        piece_selection=draw(
            st.sampled_from(["rarest", "strict-rarest", "random"])
        ),
        strict_tft=draw(st.booleans()),
        optimistic_unchoke_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        optimistic_targets=draw(st.sampled_from(["starved", "empty"])),
        connection_failure_prob=draw(st.floats(min_value=0.0, max_value=0.5)),
        connection_setup_prob=draw(st.floats(min_value=0.0, max_value=1.0)),
        matching=draw(st.sampled_from(["blind", "greedy"])),
        shake_threshold=draw(st.sampled_from([None, 0.8])),
        max_time=15.0,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


@given(config=swarm_configs())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_swarm_invariants_under_random_configs(config):
    swarm = Swarm(config)
    swarm.setup()
    swarm.engine.run_until(config.max_time)
    tracker = swarm.tracker

    # Replication counts mirror the registry.
    bitfields = [p.bitfield for p in tracker.peers()]
    expected = replication_degrees(bitfields, config.num_pieces)
    np.testing.assert_array_equal(swarm.piece_counts, expected)

    registered_ids = {p.peer_id for p in tracker.peers()}
    for peer in tracker.peers():
        # Relations reference live peers and are symmetric.
        assert peer.neighbors <= registered_ids
        assert peer.partners <= registered_ids
        for neighbor_id in peer.neighbors:
            assert peer.peer_id in tracker.get(neighbor_id).neighbors
        for partner_id in peer.partners:
            assert peer.peer_id in tracker.get(partner_id).partners
        # Capacity bounds.
        if not peer.is_seed:
            assert len(peer.partners) <= config.max_conns
        # Immediate departure: registered leechers are incomplete.
        if not peer.is_seed and config.completed_become_seeds == 0:
            assert not peer.bitfield.is_complete
        # Strict TFT: no leecher trades with a seed.
        if config.strict_tft and not peer.is_seed:
            for partner_id in peer.partners:
                assert not tracker.get(partner_id).is_seed

    # Monotone per-peer histories.  Initial-population peers may start
    # pre-filled, so the acquisition log covers at most B pieces.
    for download in swarm.metrics.completed:
        times = download.stats.piece_times
        assert times == sorted(times)
        assert len(times) <= config.num_pieces

    # Metric domains.
    _times, entropies = swarm.metrics.entropy_arrays()
    assert ((entropies >= 0) & (entropies <= 1)).all()
    _pt, leech, seeds = swarm.metrics.population_arrays()
    assert (leech >= 0).all() and (seeds >= 0).all()


@given(config=swarm_configs())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_runs_are_deterministic_per_seed(config):
    def run():
        swarm = Swarm(config)
        swarm.setup()
        swarm.engine.run_until(config.max_time)
        return (
            swarm.piece_counts.tolist(),
            sorted(p.peer_id for p in swarm.tracker.peers()),
            len(swarm.metrics.completed),
        )

    assert run() == run()


def assert_piece_counts_recount_every_round(swarm: Swarm) -> None:
    """Step ``swarm`` to its end; after every round, ``piece_counts``
    must equal a recount over every live peer (seeds included), and the
    round's entropy sample must be the recount's."""
    config = swarm.config
    metrics = swarm.metrics
    swarm.setup()
    rounds = 0
    while swarm.engine.step() is not None:
        if swarm._rounds == rounds:
            continue
        rounds = swarm._rounds
        recount = replication_degrees(
            [p.bitfield for p in swarm.tracker.peers()], config.num_pieces
        )
        np.testing.assert_array_equal(
            swarm.piece_counts, recount, err_msg=f"after round {rounds}"
        )
        expected = entropy(recount) if len(swarm.tracker) else 1.0
        assert metrics.entropy_series[-1] == (
            metrics.population_series[-1][0], expected
        )
    assert rounds == metrics.rounds_observed > 0


def recount_config(**over) -> SimConfig:
    base = dict(
        num_pieces=12,
        max_conns=3,
        ns_size=8,
        arrival_rate=1.5,
        initial_leechers=20,
        initial_distribution="uniform",
        initial_fill=0.4,
        num_seeds=1,
        seed_upload_slots=2,
        optimistic_unchoke_prob=0.5,
        max_time=40.0,
        seed=3,
    )
    base.update(over)
    return SimConfig(**base)


#: One case per way a peer's pieces enter or leave the swarm besides a
#: plain grant and a completed departure.
RECOUNT_CASES = {
    "faults": (
        recount_config(),
        FaultPlan(
            churn_hazard=0.05,
            connection_break_prob=0.2,
            handshake_failure_prob=0.2,
            shake_failure_prob=0.5,
            outages=(OutageWindow(5.0, 12.0, "stale"),),
        ),
    ),
    "blocks": (recount_config(blocks_per_piece=2), None),
    "lingering-aborts-shakes": (
        recount_config(
            completed_become_seeds=5.0,
            abort_rate=0.05,
            shake_threshold=0.8,
        ),
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(RECOUNT_CASES))
def test_piece_counts_equal_a_recount_after_every_round(name):
    config, plan = RECOUNT_CASES[name]
    assert_piece_counts_recount_every_round(Swarm(config, faults=plan))


@given(
    config=swarm_configs(),
    churn=st.sampled_from([0.0, 0.1]),
)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_piece_counts_equal_a_recount_under_random_configs(config, churn):
    plan = FaultPlan(churn_hazard=churn) if churn else None
    assert_piece_counts_recount_every_round(Swarm(config, faults=plan))
