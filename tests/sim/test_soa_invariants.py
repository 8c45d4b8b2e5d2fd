"""Property-based fuzzing of the soa swarm backend.

The soa mirror of ``test_fuzz_invariants.py``: Hypothesis draws random
configurations from the soa-supported subset (blind matching,
whole-piece transfers, global rarity) and the suite checks the
structural invariants of the array state after a run:

* the global replication counts match the packed bitfield matrix;
* per-slot held counts match their rows' popcounts;
* trading pairs reference live slots, are normalised (``a < b``) and
  unique, and leecher pair degrees respect ``k``;
* neighbor rows reference live slots without self-loops or duplicates;
* each row's seed-entry count ``nbr_seeds`` equals a recount of the
  seed entries the row holds;
* completed leechers leave (or become seeds) — no live leecher row is
  complete with immediate departure;
* metrics series stay within their domains;
* runs are deterministic per seed, with and without a fault plan.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.sim.config import SimConfig
from repro.sim.soa import entries_in, popcount_rows, unpack_rows
from repro.sim.swarm import Swarm


def recount_seed_entries(store) -> np.ndarray:
    """The seed entries of every row, counted by a scan of the whole
    neighbor matrix: what the store's ``nbr_seeds`` must hold."""
    seeds = np.zeros(store.capacity + 1, dtype=bool)
    seeds[:-1] = store.alive & store.is_seed
    rows, _ = entries_in(store.nbr, seeds)
    return np.bincount(rows, minlength=store.capacity)


def assert_seed_entry_counts(store) -> None:
    np.testing.assert_array_equal(store.nbr_seeds, recount_seed_entries(store))


@st.composite
def soa_configs(draw):
    """Random configurations within the soa-supported subset."""
    return SimConfig(
        num_pieces=draw(st.integers(min_value=3, max_value=25)),
        max_conns=draw(st.integers(min_value=1, max_value=5)),
        ns_size=draw(st.integers(min_value=2, max_value=12)),
        arrival_process=draw(st.sampled_from(["poisson", "flash", "none"])),
        arrival_rate=draw(st.floats(min_value=0.0, max_value=2.0)),
        flash_size=draw(st.integers(min_value=0, max_value=10)),
        initial_leechers=draw(st.integers(min_value=0, max_value=20)),
        initial_distribution=draw(
            st.sampled_from(["empty", "uniform", "skewed"])
        ),
        initial_fill=draw(st.floats(min_value=0.0, max_value=1.0)),
        skew_factor=draw(st.floats(min_value=0.0, max_value=1.0)),
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
        shake_threshold=draw(st.sampled_from([None, 0.8])),
        max_time=15.0,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )


def _check_store_invariants(swarm):
    config = swarm.config
    store = swarm.store
    alive = np.flatnonzero(store.alive)

    # Replication registry mirrors the packed matrix.
    if alive.size:
        held = unpack_rows(store.bits[alive], config.num_pieces)
        np.testing.assert_array_equal(swarm.piece_counts, held.sum(axis=0))
        np.testing.assert_array_equal(
            store.counts[alive], popcount_rows(store.bits[alive])
        )
    else:
        assert not swarm.piece_counts.any()

    # Pairs: normalised, unique, live endpoints, degree caps.
    pairs = swarm._pairs
    if pairs.size:
        assert (pairs[:, 0] < pairs[:, 1]).all()
        assert store.alive[pairs].all()
        assert len({(int(a), int(b)) for a, b in pairs}) == pairs.shape[0]
        degree = np.bincount(pairs.ravel(), minlength=store.capacity)
        leech = alive[~store.is_seed[alive]]
        assert (degree[leech] <= config.max_conns).all()
        if config.strict_tft:
            # No leecher trades with a seed.
            assert not store.is_seed[pairs].any()

    # Neighbor rows: live targets, no self-loops, no duplicates.
    for slot in alive:
        if store.is_seed[slot]:
            continue  # seed rows are never enumerated (degree only)
        deg = int(store.nbr_deg[slot])
        assert 0 <= deg <= store.nbr.shape[1]
        row = store.nbr[slot, :deg]
        assert (row >= 0).all() and (row < store.capacity).all()
        assert store.alive[row].all()
        assert (row != slot).all()
        assert np.unique(row).size == deg
    assert_seed_entry_counts(store)

    # Immediate departure: live leechers are incomplete.
    if config.completed_become_seeds == 0 and alive.size:
        leech = alive[~store.is_seed[alive]]
        assert (store.counts[leech] < config.num_pieces).all()

    # Metric domains.
    _times, entropies = swarm.metrics.entropy_arrays()
    assert ((entropies >= 0) & (entropies <= 1)).all()
    _pt, leech_series, seed_series = swarm.metrics.population_arrays()
    assert (leech_series >= 0).all() and (seed_series >= 0).all()


@given(config=soa_configs())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_soa_invariants_under_random_configs(config):
    swarm = Swarm(config, backend="soa")
    swarm.setup()
    swarm.engine.run_until(config.max_time)
    _check_store_invariants(swarm)


@given(config=soa_configs(), plan_seed=st.integers(0, 100))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_soa_invariants_under_faults(config, plan_seed):
    plan = FaultPlan(
        churn_hazard=0.02,
        connection_break_prob=0.1,
        handshake_failure_prob=0.2,
        shake_failure_prob=0.2,
    )
    swarm = Swarm(config.with_changes(seed=plan_seed), backend="soa",
                  faults=plan)
    swarm.setup()
    swarm.engine.run_until(config.max_time)
    _check_store_invariants(swarm)
    stats = swarm.fault_injector.stats
    assert stats.total() >= 0


@given(config=soa_configs())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_soa_runs_are_deterministic_per_seed(config):
    def run():
        swarm = Swarm(config, backend="soa")
        result = swarm.run()
        return result.fingerprint()

    assert run() == run()


def seed_paths_config() -> SimConfig:
    """Every path that changes a row's seed entries, within a few
    hundred peers: announces to seeds, completers turning seed and
    leaving, leechers shaking their rows clean, aborts and churn."""
    return SimConfig(
        num_pieces=12,
        max_conns=3,
        ns_size=8,
        arrival_process="poisson",
        arrival_rate=6.0,
        initial_leechers=150,
        initial_distribution="uniform",
        initial_fill=0.4,
        num_seeds=6,
        seed_upload_slots=2,
        completed_become_seeds=2.0,
        abort_rate=0.02,
        shake_threshold=0.7,
        max_time=25.0,
        seed=5,
    )


def test_seed_entry_counts_hold_after_every_round():
    """``nbr_seeds`` is kept up in place, never recounted: it must equal
    a whole-matrix recount after every round, while seeds join, convert
    and leave."""
    swarm = Swarm(
        seed_paths_config(), backend="soa",
        faults=FaultPlan(churn_hazard=0.02, shake_failure_prob=0.2),
    )
    swarm.setup()
    store = swarm.store
    assert_seed_entry_counts(store)
    seeds_seen, seeds_left = 0, 0
    while swarm.step_round():
        seeds = int((store.alive & store.is_seed).sum())
        seeds_left += seeds < seeds_seen
        seeds_seen = seeds
        assert_seed_entry_counts(store)
    assert store.nbr_seeds.max() > 1
    assert seeds_left > 0
    assert any(c.shaken for c in swarm.metrics.completed)
