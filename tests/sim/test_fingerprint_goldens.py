"""Fingerprint goldens for the object, soa and sharded engines.

The soa-equivalence and checkpoint suites compare engines and resumes
with each other at a few hundred peers; this file pins absolute
trajectories at a few thousand, where the round kernels (partner
exclusion, neighbor-row deletion, the seed-departure scan, batched
completion and abort bookkeeping) all see realistic batch sizes.  Each
case stores the run's :meth:`~repro.sim.swarm.SwarmResult.fingerprint`
plus a few readable counters, so a drift names what moved.

The flash-crowd cases pin the bootstrap-heavy regime instead: nearly
every leecher starts with no piece, so the round skips most neighbor
rows, and one case spreads each bitfield over two words.  The
seed-announce case pins the tracker announce of seeds that already hold
relations, which only migration reaches.

The soa policy cases pin the piece draw beyond rarest-first: uniform
(``soa-random``) and argmin (``soa-strict-rarest``) draws, the
super-seeding offer of pieces a seed has not injected yet beside
bandwidth classes (``soa-superseed``), and a 300-piece swarm whose draws
count past 255 candidates (``soa-wide``).

The object cases pin the per-pair round of the object engine, one
feature each: the two optimistic-donation target rules, loose
tit-for-tat, the piece policies, the neighborhood rarity view, sub-piece
blocks, bandwidth classes with super-seeding, a fault plan, and
lingering seeds with aborts.  Their swarms are small (a few hundred
peers at most) because that engine walks every pair in Python.

``soa_100k_seed1.sha256`` beside the goldens holds the fingerprint of
``perfbench/run.py --workload soa-100k --seed 1``; CI compares the
ledger entry of that run against it.  ``sharded_1m_seed1.sha256``
holds the fingerprint of perfbench's sharded-1m swarm at seed 1 on two
shards, which CI recomputes and compares.

Regenerate after an *intentional* behaviour change with::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/sim/test_fingerprint_goldens.py
"""

import json
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.sim.piece_selection as piece_selection
import repro.sim.seeds as seeds_module
import repro.sim.soa as soa_module
import repro.sim.swarm as swarm_module
from repro.faults.plan import FaultPlan, OutageWindow
from repro.sim.config import SimConfig
from repro.sim.soa import words_for
from repro.sim.swarm import Swarm

GOLDEN_JSON = Path(__file__).parent / "goldens" / "fingerprints.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"


def soa_departing_config() -> SimConfig:
    """soa-100k's swarm at 5k peers: completers leave at once."""
    peers = 5_000
    return SimConfig(
        num_pieces=60,
        max_conns=4,
        ns_size=25,
        arrival_process="poisson",
        arrival_rate=3.0 * peers / 100.0,
        initial_leechers=peers,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=peers // 100,
        seed_upload_slots=2,
        piece_selection="rarest",
        max_time=12.0,
        seed=1,
    )


def soa_wide_config() -> SimConfig:
    """soa-departing's swarm at 2k peers over 300 pieces: five words a
    bitfield, and rarest-first draws that count past 255 candidates."""
    peers = 2_000
    return soa_departing_config().with_changes(
        num_pieces=300,
        arrival_rate=3.0 * peers / 100.0,
        initial_leechers=peers,
        num_seeds=peers // 100,
        max_time=40.0,
    )


def soa_lingering_config() -> SimConfig:
    """Completers linger as seeds and then depart, leechers shake and
    abort: every row-deletion path, the seed scan included."""
    return SimConfig(
        num_pieces=40,
        max_conns=4,
        ns_size=20,
        arrival_process="poisson",
        arrival_rate=40.0,
        initial_leechers=1_500,
        initial_distribution="uniform",
        initial_fill=0.4,
        num_seeds=15,
        seed_upload_slots=2,
        piece_selection="rarest",
        completed_become_seeds=3.0,
        abort_rate=0.02,
        shake_threshold=0.6,
        max_time=25.0,
        seed=2,
    )


def sharded_config() -> SimConfig:
    return SimConfig(
        num_pieces=40,
        max_conns=4,
        ns_size=15,
        arrival_process="poisson",
        arrival_rate=30.0,
        initial_leechers=2_000,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=20,
        seed_upload_slots=2,
        piece_selection="rarest",
        completed_become_seeds=2.0,
        abort_rate=0.01,
        max_time=15.0,
        seed=3,
    )


def flash_config(num_pieces: int = 20) -> SimConfig:
    """perfbench's sharded-1m flash crowd at 20k peers, run past the
    bootstrap phase: almost every leecher starts with an empty bitfield
    (the paper's b + n <= 1 state), and completers leave at once.
    ``num_pieces=70`` spreads each bitfield over two words."""
    peers = 20_000
    return SimConfig(
        num_pieces=num_pieces,
        max_conns=4,
        ns_size=15,
        arrival_process="flash",
        arrival_rate=0.0,
        flash_size=peers,
        initial_leechers=0,
        num_seeds=peers // 100,
        seed_upload_slots=2,
        completed_become_seeds=0.0,
        piece_selection="rarest",
        max_time=20.0,
        seed=1,
    )


def seed_announce_config() -> SimConfig:
    """A small sharded swarm in which seeds are a fifth of the peers and
    completers linger as seeds.  With 30 % of each shard migrating a
    round, immigrant seeds announce into crowded shards; those left
    short by the first pass announce again while holding relations,
    which only the leecher rows record."""
    return SimConfig(
        num_pieces=30,
        max_conns=4,
        ns_size=20,
        arrival_process="poisson",
        arrival_rate=4.0,
        initial_leechers=100,
        initial_distribution="uniform",
        initial_fill=0.4,
        num_seeds=30,
        seed_upload_slots=2,
        piece_selection="rarest",
        completed_become_seeds=4.0,
        max_time=12.0,
        seed=4,
    )


def object_config(**changes) -> SimConfig:
    """A small Poisson swarm for the object engine: half-filled initial
    leechers, optimistic donations, connection churn and rarest-first.
    Each object case changes one feature of it."""
    base = SimConfig(
        num_pieces=40,
        max_conns=4,
        ns_size=12,
        arrival_process="poisson",
        arrival_rate=3.0,
        initial_leechers=80,
        initial_distribution="uniform",
        initial_fill=0.4,
        num_seeds=2,
        seed_upload_slots=2,
        optimistic_unchoke_prob=0.5,
        connection_setup_prob=0.9,
        connection_failure_prob=0.05,
        piece_selection="rarest",
        max_time=60.0,
        seed=5,
    )
    return base.with_changes(**changes)


#: Churn, extra connection breaks, handshake timeouts and both tracker
#: outage modes, drawn from the injector's own stream.
OBJECT_FAULTS = FaultPlan(
    churn_hazard=0.02,
    connection_break_prob=0.05,
    handshake_failure_prob=0.1,
    outages=(OutageWindow(8.0, 12.0, "stale"), OutageWindow(20.0, 23.0)),
)


OBJECT_CASES = {
    "object-starved": lambda: Swarm(object_config()),
    "object-empty": lambda: Swarm(
        object_config(optimistic_targets="empty", initial_distribution="empty")
    ),
    "object-loose-tft": lambda: Swarm(object_config(strict_tft=False)),
    "object-strict-rarest": lambda: Swarm(
        object_config(piece_selection="strict-rarest")
    ),
    "object-random": lambda: Swarm(object_config(piece_selection="random")),
    "object-windowed": lambda: Swarm(
        object_config(piece_selection="windowed")
    ),
    "object-neighborhood": lambda: Swarm(
        object_config(), rarity_view="neighborhood"
    ),
    "object-blocks": lambda: Swarm(object_config(blocks_per_piece=2)),
    "object-bandwidth-superseed": lambda: Swarm(
        object_config(
            bandwidth_classes=((0.5, 1), (0.5, 3)), super_seeding=True
        )
    ),
    "object-faults": lambda: Swarm(object_config(), faults=OBJECT_FAULTS),
    "object-lingering": lambda: Swarm(
        object_config(
            completed_become_seeds=3.0, abort_rate=0.02, shake_threshold=0.6
        )
    ),
    # 160 pieces and empty arrivals: rarest-first draws over more than
    # 128 candidates, the blocked branch of numpy's pairwise sum.
    "object-wide": lambda: Swarm(
        object_config(
            num_pieces=160, initial_distribution="empty"
        )
    ),
}


CASES = {
    **OBJECT_CASES,
    "soa-departing": lambda: Swarm(soa_departing_config(), backend="soa"),
    "soa-lingering": lambda: Swarm(soa_lingering_config(), backend="soa"),
    "soa-random": lambda: Swarm(
        soa_departing_config().with_changes(piece_selection="random"),
        backend="soa",
    ),
    "soa-strict-rarest": lambda: Swarm(
        soa_departing_config().with_changes(piece_selection="strict-rarest"),
        backend="soa",
    ),
    # Seeds offer only the pieces they have not injected yet.
    "soa-superseed": lambda: Swarm(
        soa_departing_config().with_changes(
            bandwidth_classes=((0.5, 1), (0.5, 3)), super_seeding=True
        ),
        backend="soa",
    ),
    "soa-wide": lambda: Swarm(soa_wide_config(), backend="soa"),
    "sharded-2": lambda: Swarm(
        sharded_config(), backend="sharded", shards=2, shard_mix=0.05
    ),
    "soa-flash": lambda: Swarm(flash_config(), backend="soa"),
    "sharded-flash": lambda: Swarm(flash_config(), backend="sharded", shards=2),
    "soa-flash-w2": lambda: Swarm(flash_config(num_pieces=70), backend="soa"),
    "sharded-seed-announce": lambda: Swarm(
        seed_announce_config(), backend="sharded", shards=2, shard_mix=0.3
    ),
}


def summary(result) -> dict:
    stats = result.connection_stats
    return {
        "fingerprint": result.fingerprint(),
        "events_processed": result.events_processed,
        "completed": len(result.metrics.completed),
        "aborted": len(result.metrics.aborted),
        "final_leechers": result.final_leechers,
        "final_seeds": result.final_seeds,
        "attempts": stats.attempts,
        "formed": stats.formed,
        "seed_uploads": result.seed_upload_count,
    }


@pytest.fixture(scope="module")
def goldens() -> dict:
    if REGEN:
        return {}
    assert GOLDEN_JSON.exists(), (
        "missing fingerprint goldens; regenerate with REPRO_REGEN_GOLDENS=1"
    )
    return json.loads(GOLDEN_JSON.read_text())


@pytest.fixture(scope="module")
def results() -> dict:
    """Each case runs once per module; both tests below read it."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = CASES[name]().run()
        return cache[name]

    return get


def _store(name: str, record: dict) -> None:
    current = json.loads(GOLDEN_JSON.read_text()) if GOLDEN_JSON.exists() else {}
    current[name] = record
    GOLDEN_JSON.parent.mkdir(exist_ok=True)
    GOLDEN_JSON.write_text(json.dumps(current, sort_keys=True, indent=1) + "\n")


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_fingerprint_golden(name, goldens, results):
    record = summary(results(name))
    if REGEN:
        _store(name, record)
        return
    assert record == goldens[name]


def test_cases_exercise_their_departure_paths(results):
    """Guard the goldens' coverage: a config edit that stops a case from
    reaching the path it is meant to pin fails here, not silently."""
    departing = results("soa-departing")
    assert len(departing.metrics.completed) > 1_000
    assert departing.final_seeds == soa_departing_config().num_seeds

    lingering = results("soa-lingering")
    assert len(lingering.metrics.aborted) > 100
    assert any(c.shaken for c in lingering.metrics.completed)
    # Lingering seeds depart: the seed count falls between some rounds.
    seeds = [row[2] for row in lingering.metrics.population_series]
    assert any(b < a for a, b in zip(seeds, seeds[1:]))

    sharded = results("sharded-2")
    assert sharded.comms["bytes_migrated"] > 0
    assert len(sharded.metrics.completed) > 0


def test_object_cases_reach_their_features(monkeypatch, results):
    """Guard the object goldens' coverage: faults churn and break
    connections, lingering seeds depart and leechers abort, and the wide
    case really draws rarest-first over more than 128 candidates."""
    faults = results("object-faults")
    assert len(faults.metrics.aborted) > 10
    assert faults.fault_stats.connections_broken > 0
    lingering = results("object-lingering")
    assert len(lingering.metrics.aborted) > 10
    seeds = [row[2] for row in lingering.metrics.population_series]
    assert any(b < a for a, b in zip(seeds, seeds[1:]))
    assert results("object-bandwidth-superseed").seed_upload_count > 0

    widest = []
    real = piece_selection.select_piece

    def spy(receiver, sender, policy, rng, **kwargs):
        if receiver.count >= kwargs.get("random_first_cutoff", 4):
            widest.append(len(receiver.exchangeable_pieces_from(sender)))
        return real(receiver, sender, policy, rng, **kwargs)

    monkeypatch.setattr(swarm_module, "select_piece", spy)
    monkeypatch.setattr(seeds_module, "select_piece", spy)
    OBJECT_CASES["object-wide"]().run()
    assert max(widest) > 128


def test_soa_policy_cases_reach_their_paths(monkeypatch):
    """Guard the soa policy goldens' coverage: every policy case draws
    pieces above and below the random-first cutoff, the super-seeding
    case lands offered pieces, and the wide case picks pieces past 255."""
    drawn = Counter()
    real = soa_module.SoaSwarm._select_pieces

    def spy(self, recv, send=None, offer_words=None):
        picks = real(self, recv, send, offer_words)
        below = self.store.counts[recv] < self.config.random_first_cutoff
        name = self.config.piece_selection
        drawn[name, "below"] += int((picks[below] >= 0).sum())
        drawn[name, "above"] += int((picks[~below] >= 0).sum())
        if offer_words is not None:
            drawn["offered"] += int((picks >= 0).sum())
        drawn["past 255"] += int((picks > 255).sum())
        return picks

    monkeypatch.setattr(soa_module.SoaSwarm, "_select_pieces", spy)
    for name in ("soa-random", "soa-strict-rarest", "soa-superseed"):
        assert len(CASES[name]().run().metrics.completed) > 500
    assert all(
        drawn[policy, side] > 0
        for policy in ("random", "strict-rarest", "rarest")
        for side in ("below", "above")
    ), drawn
    assert drawn["offered"] > 0
    drawn.clear()
    CASES["soa-wide"]().run()
    assert drawn["past 255"] > 0
    assert words_for(soa_wide_config().num_pieces) == 5


def test_flash_case_runs_through_the_bootstrap_phase(results):
    """The flash goldens pin rounds where nearly every leecher row holds
    no piece, then carry the swarm on to completions; the W = 2 case
    really spans two words."""
    swarm = Swarm(flash_config(), backend="soa")
    empty_share = []
    while len(empty_share) < 3 and swarm.step_round():
        store = swarm.store
        leech = store.alive & ~store.is_seed
        empty_share.append(float((store.counts[leech] == 0).mean()))
    assert max(empty_share) > 0.9
    for name in ("soa-flash", "sharded-flash", "soa-flash-w2"):
        assert len(results(name).metrics.completed) > 100
    assert words_for(flash_config(num_pieces=70).num_pieces) == 2


def test_flash_case_takes_every_announce_branch(monkeypatch, goldens):
    """The soa-flash golden guards each lookup of the tracker announce
    only if its run takes it: a pair drawn twice in one announcer's row,
    a pair drawn in both directions by two announcers, a candidate with
    more proposals than row space, and a relation check that reads a
    non-empty leecher row.  A spy on ``first_pairs`` sees every pass
    after its relation check and before its row-space filter."""
    swarm = CASES["soa-flash"]()
    store = swarm.store
    taken = Counter()
    real = soa_module.first_pairs

    def spy(owners, values, cols, row_of):
        keep = real(owners, values, cols, row_of)
        drawn = Counter(zip(owners.tolist(), values.tolist()))
        for a, c in zip(owners[~keep].tolist(), values[~keep].tolist()):
            taken["row repeat"] += drawn[a, c] > 1
            taken["reverse pair"] += (c, a) in drawn
        cap = store.capacity
        space = swarm._accept_cap - store.nbr_deg
        space[store.is_seed] = np.iinfo(np.int64).max
        space -= np.bincount(owners[keep], minlength=cap)
        load = np.bincount(values[keep], minlength=cap)
        taken["oversubscribed"] += int((load > space).sum())
        side = np.where(store.is_seed[owners], values, owners)
        taken["row read"] += int(
            (~store.is_seed[side] & (store.nbr_deg[side] > 0)).sum()
        )
        return keep

    monkeypatch.setattr(soa_module, "first_pairs", spy)
    result = swarm.run()
    branches = ("row repeat", "reverse pair", "oversubscribed", "row read")
    assert all(taken[name] > 0 for name in branches), taken
    if not REGEN:
        assert summary(result) == goldens["soa-flash"]


def test_seed_announce_case_announces_seeds_holding_relations(
    monkeypatch, tmp_path
):
    """The sharded-seed-announce golden guards the relation check of a
    seed announcer, which reads the candidate's row, only if its run
    announces seeds that already hold relations.  The shard workers fork
    after the spy is set, so each appends what it sees to a file."""
    seen = tmp_path / "seed-announcers"
    real = soa_module.SoaSwarm._announce_pass

    def spy(self, ann, need, alive):
        store = self.store
        seeds = ann[store.is_seed[ann]]
        with open(seen, "a") as out:
            out.write(f"{int((store.nbr_deg[seeds] > 0).sum())}\n")
        return real(self, ann, need, alive)

    monkeypatch.setattr(soa_module.SoaSwarm, "_announce_pass", spy)
    CASES["sharded-seed-announce"]().run()
    assert sum(int(line) for line in seen.read_text().split()) > 50
