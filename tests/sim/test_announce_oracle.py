"""The soa tracker announce against its sorting oracle.

:meth:`SoaSwarm._announce_pass` finds repeated pairs, oversubscribed
candidates and the new row columns by lookups (``first_pairs``,
``occurrence_ranks``).  The functions below are the pass as it was
written before those lookups: an ``np.unique`` pair dedupe, a
``group_ranks`` row-space filter on the oversubscribed candidates, a
stable ``argsort`` per relation direction, and an existing-relation
gather over every proposal.  They are kept only here, as the reference.

Each test builds two identical swarms, runs one announce batch with the
engine's pass on one and with the oracle on the other, and asserts the
neighbor rows, the degrees and the random stream come out identical.
The oracle counts the branches it takes, so each state also asserts it
is the state it claims to be.
"""

import types

import numpy as np
import pytest

from repro.sim.config import SimConfig
from repro.sim.soa import _CHUNK_CELLS, SoaSwarm, _contiguous_ranks, group_ranks


def sorting_announce_pass(self, ann, need, alive):
    store = self.store
    cap = store.capacity
    taken = self.oracle_taken
    taken["seed_announcers"] += int(store.is_seed[ann].sum())
    oversample = np.maximum((3 * need) // 2, 4)
    prop_ann = np.repeat(ann, oversample)
    n_prop = prop_ann.size
    cand = alive[self.rng.integers(0, alive.size, size=n_prop)]
    ok = cand != prop_ann
    if int(store.nbr_deg.sum()) > 0:
        chunk = max(1, _CHUNK_CELLS // max(store.nbr_width, 1))
        seed_ann = store.is_seed[prop_ann]
        for lo in range(0, n_prop, chunk):
            hi = min(n_prop, lo + chunk)
            side = np.where(seed_ann[lo:hi], cand[lo:hi], prop_ann[lo:hi])
            other = np.where(seed_ann[lo:hi], prop_ann[lo:hi], cand[lo:hi])
            known = (store.nbr[side] == other[:, None]).any(axis=1)
            taken["known"] += int(known.sum())
            taken["seed_known"] += int((known & seed_ann[lo:hi]).sum())
            ok[lo:hi] &= ~known
    full = ~(store.is_seed[cand] | (store.nbr_deg[cand] < self._accept_cap))
    taken["full"] += int((ok & full).sum())
    ok &= ~full
    idx = np.flatnonzero(ok)
    if idx.size == 0:
        return 0
    p_ann = prop_ann[idx]
    p_cand = cand[idx]
    quota = np.zeros(cap, dtype=np.int64)
    quota[ann] = need
    admit = _contiguous_ranks(p_ann) < quota[p_ann]
    p_ann = p_ann[admit]
    p_cand = p_cand[admit]
    if p_ann.size == 0:
        return 0
    key = np.minimum(p_ann, p_cand) * cap + np.maximum(p_ann, p_cand)
    _, first = np.unique(key, return_index=True)
    first.sort()
    repeats = np.ones(p_ann.size, dtype=bool)
    repeats[first] = False
    announcer = np.zeros(cap, dtype=bool)
    announcer[ann] = True
    taken["reverse"] += int((repeats & announcer[p_cand]).sum())
    p_ann = p_ann[first]
    p_cand = p_cand[first]
    space = self._accept_cap - store.nbr_deg
    space[store.is_seed] = np.iinfo(np.int64).max
    space -= np.bincount(p_ann, minlength=cap)
    load = np.bincount(p_cand, minlength=cap)
    over = load > space
    taken["oversubscribed"] += int(over.sum())
    if over.any():
        v_idx = np.flatnonzero(over[p_cand])
        ranks = group_ranks(p_cand[v_idx], v_idx)
        keep = np.ones(p_ann.size, dtype=bool)
        keep[v_idx] = ranks < space[p_cand[v_idx]]
        p_ann = p_ann[keep]
        p_cand = p_cand[keep]
    if p_ann.size == 0:
        return 0
    sorting_append_relations(self, p_ann, p_cand, grouped=True)
    sorting_append_relations(self, p_cand, p_ann)
    return p_ann.size


def sorting_append_relations(self, holders, values, *, grouped=False):
    store = self.store
    seed_side = store.is_seed[holders]
    if seed_side.any():
        np.add.at(store.nbr_deg, holders[seed_side], 1)
        holders = holders[~seed_side]
        values = values[~seed_side]
    if holders.size == 0:
        return
    if grouped:
        h, v = holders, values
    else:
        order = np.argsort(holders, kind="stable")
        h, v = holders[order], values[order]
    store.nbr[h, store.nbr_deg[h] + _contiguous_ranks(h)] = v
    np.add.at(store.nbr_deg, holders, 1)


def use_oracle(swarm):
    swarm._announce_pass = types.MethodType(sorting_announce_pass, swarm)
    swarm.oracle_taken = dict.fromkeys(
        ("seed_announcers", "known", "seed_known", "full", "reverse",
         "oversubscribed"), 0,
    )
    return swarm.oracle_taken


def twins(config, rounds=0):
    """Two identical swarms, set up and stepped ``rounds`` rounds."""
    pair = []
    for _ in range(2):
        swarm = SoaSwarm(config)
        swarm.setup()
        for _ in range(rounds):
            assert swarm.step_round()
        pair.append(swarm)
    return pair


def assert_same_state(fast, oracle):
    np.testing.assert_array_equal(fast.store.nbr, oracle.store.nbr)
    np.testing.assert_array_equal(fast.store.nbr_deg, oracle.store.nbr_deg)
    assert fast.rng.bit_generator.state == oracle.rng.bit_generator.state


def announce_both(fast, oracle, slots):
    """One ``_announce_batch`` each; returns the oracle's branch counts
    and the relations the batch added."""
    taken = use_oracle(oracle)
    before = int(fast.store.nbr_deg.sum())
    fast._announce_batch(slots)
    oracle._announce_batch(slots)
    assert_same_state(fast, oracle)
    return taken, int(fast.store.nbr_deg.sum()) - before


def flash_config(**overrides):
    fields = dict(
        num_pieces=12,
        max_conns=3,
        ns_size=15,
        arrival_process="flash",
        arrival_rate=0.0,
        flash_size=3_000,
        initial_leechers=0,
        num_seeds=30,
        seed_upload_slots=2,
        completed_become_seeds=0.0,
        piece_selection="rarest",
        max_time=20.0,
        seed=4,
    )
    fields.update(overrides)
    return SimConfig(**fields)


def test_fresh_flash_crowd_with_seeds_announcing_first():
    """Set-up: the seeds announce to each other, then every flash peer
    announces at once — reverse pairs, repeated draws and
    oversubscribed candidates all in one batch."""
    config = flash_config()
    fast = SoaSwarm(config)
    oracle = SoaSwarm(config)
    taken = use_oracle(oracle)
    fast.setup()
    oracle.setup()
    assert_same_state(fast, oracle)
    assert taken["seed_announcers"] > 0
    assert taken["reverse"] > 0 and taken["oversubscribed"] > 0
    assert int(fast.store.nbr_deg.sum()) > config.flash_size * config.ns_size


def test_mid_run_swarm_where_the_accept_cap_binds():
    """A settled swarm with ``accept_cap == ns_size``: full rows decline
    and existing relations are found in rows of every degree."""
    config = SimConfig(
        num_pieces=16,
        max_conns=3,
        ns_size=8,
        ns_accept_factor=1.0,
        arrival_process="poisson",
        arrival_rate=20.0,
        initial_leechers=400,
        initial_distribution="uniform",
        initial_fill=0.3,
        num_seeds=4,
        seed_upload_slots=2,
        abort_rate=0.05,
        piece_selection="rarest",
        max_time=30.0,
        seed=5,
    )
    fast, oracle = twins(config, rounds=4)
    store = fast.store
    leech = store.alive & ~store.is_seed
    assert (store.nbr_deg[leech] == fast._accept_cap).any()
    slots = np.flatnonzero(leech & (store.nbr_deg < config.ns_size))
    arrivals = [
        swarm._spawn_batch(4.5, 40, announce=False) for swarm in (fast, oracle)
    ][0]
    taken, added = announce_both(
        fast, oracle, np.concatenate([slots, arrivals])
    )
    assert added > 0
    assert taken["full"] > 0 and taken["known"] > 0


def test_seeds_as_announcers_and_as_candidates():
    """Completed peers linger as seeds with the relations they had, and
    aborts leave some of them below ``ns_size``: as announcers, their
    existing relations are found in the candidates' rows; as
    candidates, they never decline."""
    config = SimConfig(
        num_pieces=8,
        max_conns=3,
        ns_size=12,
        ns_accept_factor=1.0,
        arrival_process="poisson",
        arrival_rate=10.0,
        initial_leechers=300,
        initial_distribution="uniform",
        initial_fill=0.7,
        num_seeds=6,
        seed_upload_slots=2,
        completed_become_seeds=6.0,
        abort_rate=0.1,
        piece_selection="rarest",
        max_time=30.0,
        seed=6,
    )
    fast, oracle = twins(config, rounds=3)
    store = fast.store
    seeds = np.flatnonzero(
        store.alive & store.is_seed
        & (store.nbr_deg > 0) & (store.nbr_deg < config.ns_size)
    )
    assert seeds.size > 0
    leech = np.flatnonzero(store.alive & ~store.is_seed)[:50]
    taken, added = announce_both(
        fast, oracle, np.concatenate([seeds, leech])
    )
    assert added > 0
    assert taken["seed_announcers"] >= seeds.size
    assert taken["seed_known"] > 0


def test_oversubscribed_candidates():
    """A late batch of empty leechers announces into a swarm whose rows
    are nearly full: most candidates draw more proposals than they have
    row space, and keep only their earliest ones."""
    config = flash_config(
        flash_size=200, num_seeds=2, ns_size=10, ns_accept_factor=1.2
    )
    fast, oracle = twins(config)
    arrivals = [
        swarm._spawn_batch(0.0, 150, announce=False) for swarm in (fast, oracle)
    ][0]
    taken, added = announce_both(fast, oracle, arrivals)
    assert added > 0
    assert taken["oversubscribed"] > 10


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_small_flash_crowds_across_seeds(seed):
    """Tiny swarms where most announcers draw each other: reverse pairs
    dominate, and the redraw passes run on nearly empty pools."""
    config = flash_config(flash_size=40, num_seeds=3, ns_size=15, seed=seed)
    fast = SoaSwarm(config)
    oracle = SoaSwarm(config)
    taken = use_oracle(oracle)
    fast.setup()
    oracle.setup()
    assert_same_state(fast, oracle)
    assert taken["reverse"] > 0
