"""Snapshot schema v4: full swarm state at a round boundary.

The document captured here is everything a fresh process needs to
continue a run so that the continuation is **bit-identical** to the
uninterrupted one — same RNG draws, same iteration orders, same
`SwarmResult` fingerprint.  Per component that means:

* **RNG streams** — the swarm's PCG64 state and (when a fault plan is
  attached) the injector's isolated stream, captured as the
  ``bit_generator.state`` dicts numpy exposes (plain ints; JSON-safe).
* **Engine** — clock, processed count, tie-breaker counter, and the
  pending heap *in its internal order* (see
  :meth:`repro.sim.engine.DiscreteEventEngine.snapshot_state`).
* **Peers** — bitfield masks, neighbor/partner sets (as sorted arrays;
  every RNG-consuming iteration over these sets is canonicalized to
  sorted order in the simulator), block progress (as an *ordered* array
  of pairs — partial-piece priority iterates dict insertion order),
  and full per-peer stats.
* **Tracker** — registry in ascending-id order (the live dict's
  insertion order is ascending id and ``dict.pop`` preserves order, so
  rebuilding by ascending id reproduces announce candidate order),
  id counter, bootstrap-trap set.
* **Potential-set cache** — cached member lists and the dirty set, so
  the first resumed round recomputes exactly the peers the
  uninterrupted run would have recomputed.
* **Metrics / counters** — every series the result fingerprint covers;
  the collector's ``population_series`` is the run's one population
  log.  Its completion table (:class:`~repro.sim.metrics.CompletionTable`)
  is the ``metrics.completed`` block: one array per column, each a
  binary section of the container, plus a ``stats`` list that holds
  one :class:`~repro.sim.peer.PeerStats` document per row for the
  object engine and stays empty for the array engines.

Order-sensitive state is stored in JSON arrays or sections, never in
object key order, which lets the container serialize with
``sort_keys=True``.

The soa backend (:mod:`repro.sim.soa`) writes a second document flavor
under the same schema version, marked with a top-level
``"backend": "soa"``: per-slot numpy arrays for every alive slot plus
the free-list order, which together rebuild the slot layout exactly
(slot indices feed the backend's RNG-consuming shuffles, so layout is
part of the deterministic state).  Its arrays — the peer-row columns,
``slots``, ``free``, ``nbr_deg``, the leecher neighbor cells ``nbr``
and the trading ``pairs`` — become binary sections of the container
(:mod:`repro.checkpoint.format`); everything else is JSON.
:func:`restore_swarm` dispatches on the marker; documents without it
are object-backend snapshots.

Schema changes MUST bump :data:`SCHEMA_VERSION`; the golden-format tests
(`tests/checkpoint/test_golden_format.py`,
`tests/checkpoint/test_soa_golden_format.py`) fail loudly when the
emitted document drifts from the committed fixtures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import CheckpointError
from repro.sim.bitfield import Bitfield
from repro.sim.config import SimConfig
from repro.sim.metrics import CompletionTable, MetricsCollector
from repro.sim.peer import Peer, PeerStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.sim.swarm import Swarm

__all__ = [
    "SCHEMA_VERSION",
    "snapshot_swarm",
    "snapshot_soa_swarm",
    "restore_swarm",
]

#: Version of the snapshot document layout (independent of the on-disk
#: container version in ``repro.checkpoint.format``).
SCHEMA_VERSION = 4


def _num(value):
    """Collapse numpy scalars to native Python numbers.

    ``np.float64`` is a ``float`` subclass and would serialize, but
    ``np.int64`` is not an ``int`` and json.dumps rejects it; normalize
    both so the schema never depends on which call site produced a
    number.
    """
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _pairs(series) -> list:
    """``[(a, b), ...]`` → JSON array-of-arrays with native numbers."""
    return [[_num(a), _num(b)] for a, b in series]


def _triples(series) -> list:
    return [[_num(a), _num(b), _num(c)] for a, b, c in series]


# ----------------------------------------------------------------------
# Peer stats
# ----------------------------------------------------------------------
def _snapshot_stats(stats: PeerStats) -> dict:
    return {
        "joined_at": _num(stats.joined_at),
        "completed_at": _num(stats.completed_at),
        "piece_times": [_num(t) for t in stats.piece_times],
        "piece_log": _pairs(stats.piece_log),
        "potential_series": _pairs(stats.potential_series),
        "connection_series": _pairs(stats.connection_series),
        "shaken_at": _num(stats.shaken_at),
    }


def _restore_stats(doc: dict) -> PeerStats:
    return PeerStats(
        joined_at=float(doc["joined_at"]),
        completed_at=(
            None if doc["completed_at"] is None else float(doc["completed_at"])
        ),
        piece_times=[float(t) for t in doc["piece_times"]],
        piece_log=[(float(t), int(p)) for t, p in doc["piece_log"]],
        potential_series=[(float(t), int(s)) for t, s in doc["potential_series"]],
        connection_series=[
            (float(t), int(c)) for t, c in doc["connection_series"]
        ],
        shaken_at=(
            None if doc["shaken_at"] is None else float(doc["shaken_at"])
        ),
    )


# ----------------------------------------------------------------------
# Peers
# ----------------------------------------------------------------------
def _snapshot_peer(peer: Peer) -> dict:
    return {
        "peer_id": peer.peer_id,
        "bitfield_mask": peer.bitfield.mask,
        "neighbors": sorted(peer.neighbors),
        "partners": sorted(peer.partners),
        "is_seed": peer.is_seed,
        "instrumented": peer.instrumented,
        "stats": _snapshot_stats(peer.stats),
        "seeded_pieces": sorted(peer.seeded_pieces),
        "shaken": peer.shaken,
        "seed_until": _num(peer.seed_until),
        "upload_capacity": _num(peer.upload_capacity),
        # Insertion order preserved on purpose: strict piece priority
        # iterates block_progress in dict order when picking a partial
        # piece to finish.
        "block_progress": [
            [int(piece), int(count)]
            for piece, count in peer.block_progress.items()
        ],
    }


def _restore_peer(doc: dict, num_pieces: int) -> Peer:
    peer = Peer(
        int(doc["peer_id"]),
        num_pieces,
        joined_at=float(doc["stats"]["joined_at"]),
        is_seed=bool(doc["is_seed"]),
        instrumented=bool(doc["instrumented"]),
    )
    peer.bitfield = Bitfield(num_pieces, int(doc["bitfield_mask"]))
    peer.neighbors = {int(n) for n in doc["neighbors"]}
    peer.partners = {int(p) for p in doc["partners"]}
    peer.stats = _restore_stats(doc["stats"])
    peer.seeded_pieces = {int(p) for p in doc["seeded_pieces"]}
    peer.shaken = bool(doc["shaken"])
    peer.seed_until = (
        None if doc["seed_until"] is None else float(doc["seed_until"])
    )
    peer.upload_capacity = (
        None if doc["upload_capacity"] is None else int(doc["upload_capacity"])
    )
    peer.block_progress = {
        int(piece): int(count) for piece, count in doc["block_progress"]
    }
    return peer


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _snapshot_metrics(metrics: MetricsCollector) -> dict:
    return {
        "max_conns": metrics.max_conns,
        "entropy_every": metrics.entropy_every,
        "occupancy_warmup": metrics.occupancy_warmup,
        "population_series": _triples(metrics.population_series),
        "entropy_series": _pairs(metrics.entropy_series),
        "aborted": _pairs(metrics.aborted),
        "rounds_observed": metrics.rounds_observed,
        "occupancy_sums": [float(v) for v in metrics._occupancy_sums],
        "occupancy_rounds": metrics._occupancy_rounds,
        "expected_total_rounds": metrics._expected_total_rounds,
        # One section per column; only object-engine rows carry stats.
        "completed": {
            **metrics.completions.to_columns(),
            "stats": [_snapshot_stats(s) for s in metrics.completions.stats],
        },
    }


def _restore_metrics(doc: dict) -> MetricsCollector:
    metrics = MetricsCollector(
        int(doc["max_conns"]),
        entropy_every=int(doc["entropy_every"]),
        occupancy_warmup=float(doc["occupancy_warmup"]),
    )
    metrics.population_series = [
        (float(t), int(le), int(se)) for t, le, se in doc["population_series"]
    ]
    metrics.entropy_series = [
        (float(t), float(e)) for t, e in doc["entropy_series"]
    ]
    metrics.aborted = [(float(t), int(n)) for t, n in doc["aborted"]]
    metrics.rounds_observed = int(doc["rounds_observed"])
    metrics._occupancy_sums = np.asarray(
        doc["occupancy_sums"], dtype=np.float64
    )
    metrics._occupancy_rounds = int(doc["occupancy_rounds"])
    metrics._expected_total_rounds = (
        None
        if doc["expected_total_rounds"] is None
        else int(doc["expected_total_rounds"])
    )
    completed = doc["completed"]
    metrics.completions = CompletionTable.from_columns(
        completed, [_restore_stats(s) for s in completed["stats"]]
    )
    return metrics


# ----------------------------------------------------------------------
# Swarm (top level)
# ----------------------------------------------------------------------
def snapshot_swarm(swarm: "Swarm") -> dict:
    """Full snapshot document for ``swarm`` (schema v4).

    Must be called at a round boundary (between engine events); the
    swarm's ``_maybe_checkpoint`` hook guarantees this.
    """
    tracker = swarm.tracker
    alive = [_snapshot_peer(peer) for peer in tracker.peers()]
    alive_ids = {doc["peer_id"] for doc in alive}
    # Instrumented peers survive departure (their stats feed the result
    # bundle); departed ones exist only on the swarm's list.
    departed = [
        _snapshot_peer(peer)
        for peer in swarm.instrumented_peers
        if peer.peer_id not in alive_ids
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "config": swarm.config.to_dict(),
        "swarm": {
            "rng": _sanitize_rng_state(swarm.rng.bit_generator.state),
            "rounds": swarm._rounds,
            "setup_done": swarm._setup_done,
            "seed_upload_count": swarm.seed_upload_count,
            "checkpoints_written": swarm.checkpoints_written,
            "piece_counts": [int(c) for c in swarm.piece_counts],
            "connection_stats": {
                "survived": swarm.connection_stats.survived,
                "dropped": swarm.connection_stats.dropped,
                "attempts": swarm.connection_stats.attempts,
                "formed": swarm.connection_stats.formed,
            },
            "instrument_first": swarm.instrument_first,
            "instrumented_avoid_seeds": swarm.instrumented_avoid_seeds,
            "instrumented_start_empty": swarm.instrumented_start_empty,
            "rarity_view": swarm.rarity_view,
            # List order matters: _spawn_peer appends in instrumentation
            # order and the result bundle exposes the list as-is.
            "instrumented_ids": [
                p.peer_id for p in swarm.instrumented_peers
            ],
        },
        "engine": swarm.engine.snapshot_state(),
        "tracker": {
            "next_id": tracker._next_id,
            "bootstrap_trapped": sorted(tracker._bootstrap_trapped),
        },
        "peers": alive,
        "departed_instrumented": departed,
        "metrics": _snapshot_metrics(swarm.metrics),
        "potential": {
            "cache": [
                [pid, list(members)]
                for pid, members in sorted(swarm._potential_sets._cache.items())
            ],
            "dirty": sorted(swarm._potential_sets._dirty),
        },
        "faults": (
            None
            if swarm.fault_injector is None
            else swarm.fault_injector.snapshot_state()
        ),
    }


# ----------------------------------------------------------------------
# SoA swarm (array backend)
# ----------------------------------------------------------------------
def snapshot_soa_swarm(swarm) -> dict:
    """Snapshot document for a :class:`~repro.sim.soa.SoaSwarm`.

    Same container and schema version as the object document, marked
    with a top-level ``"backend": "soa"`` for :func:`restore_swarm`'s
    dispatch.  Peer state is stored for alive slots only (ascending
    slot order); a free slot holds every column's reset value (a slot
    is reset when it is released), so alive rows plus the free-list
    order reconstruct the store exactly.
    The ``store`` block is :meth:`~repro.sim.soa.PeerStore.to_block`:
    one array per :data:`~repro.sim.soa.PEER_COLUMNS` column plus the
    adjacency.  Every array is a copy, so the document stays valid
    while the swarm runs on.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "backend": "soa",
        "config": swarm.config.to_dict(),
        "swarm": {
            "rng": _sanitize_rng_state(swarm.rng.bit_generator.state),
            "rounds": swarm._rounds,
            "setup_done": swarm._setup_done,
            "seed_upload_count": swarm.seed_upload_count,
            "checkpoints_written": swarm.checkpoints_written,
            "piece_counts": [int(c) for c in swarm.piece_counts],
            "connection_stats": {
                "survived": swarm.connection_stats.survived,
                "dropped": swarm.connection_stats.dropped,
                "attempts": swarm.connection_stats.attempts,
                "formed": swarm.connection_stats.formed,
            },
            "next_id": swarm._next_id,
            "n_leech": swarm._n_leech,
            "n_seeds": swarm._n_seeds,
            "pending_announce": [int(s) for s in swarm._pending_announce],
            # Row order is deterministic state: maintenance and exchange
            # iterate pairs in storage order.
            "pairs": swarm._pairs.copy(),
        },
        "engine": swarm.engine.snapshot_state(),
        "store": swarm.store.to_block(),
        "metrics": _snapshot_metrics(swarm.metrics),
        "faults": (
            None
            if swarm.fault_injector is None
            else swarm.fault_injector.snapshot_state()
        ),
    }


def _restore_soa_swarm(document: dict, swarm_cls=None, **swarm_kwargs):
    """Rebuild a ready-to-continue ``SoaSwarm`` from a soa document.

    ``swarm_cls`` lets the sharded backend restore the same document
    shape into a :class:`~repro.sim.sharded.ShardEngine` (an ``SoaSwarm``
    subclass with no extra snapshot state of its own).
    """
    from repro.faults.plan import FaultPlan
    from repro.sim.soa import PeerStore, SoaSwarm, check_slot_array

    if swarm_cls is None:
        swarm_cls = SoaSwarm
    config = SimConfig.from_dict(document["config"])
    sw = document["swarm"]
    faults_doc = document["faults"]
    plan = (
        None if faults_doc is None else FaultPlan.from_dict(faults_doc["plan"])
    )
    metrics = _restore_metrics(document["metrics"])

    swarm = swarm_cls(
        config,
        metrics=metrics,
        faults=plan,
        **swarm_kwargs,
    )
    swarm.rng.bit_generator.state = sw["rng"]
    if swarm.fault_injector is not None:
        swarm.fault_injector.restore_state(faults_doc)
    swarm.engine.restore_state(document["engine"])

    store, slots = PeerStore.from_block(document["store"], config)
    swarm.store = store

    swarm._pairs = np.array(check_slot_array(
        sw["pairs"], "pairs", store.capacity, columns=2
    ))
    swarm._id_to_slot = dict(zip(
        store.peer_id[slots].tolist(), slots.tolist()
    ))
    swarm._next_id = int(sw["next_id"])
    swarm._n_leech = int(sw["n_leech"])
    swarm._n_seeds = int(sw["n_seeds"])
    swarm._pending_announce = [int(s) for s in sw["pending_announce"]]
    swarm._alive_dirty = True
    swarm.piece_counts = np.asarray(sw["piece_counts"], dtype=np.int64)
    stats = sw["connection_stats"]
    swarm.connection_stats.survived = int(stats["survived"])
    swarm.connection_stats.dropped = int(stats["dropped"])
    swarm.connection_stats.attempts = int(stats["attempts"])
    swarm.connection_stats.formed = int(stats["formed"])
    swarm.seed_upload_count = int(sw["seed_upload_count"])
    swarm.checkpoints_written = int(sw["checkpoints_written"])
    swarm._rounds = int(sw["rounds"])
    swarm._setup_done = bool(sw["setup_done"])
    swarm.resumed_from_round = swarm._rounds
    return swarm


def _sanitize_rng_state(state: dict) -> dict:
    """numpy's PCG64 state dict, with any numpy scalars collapsed."""
    return {
        "bit_generator": state["bit_generator"],
        "state": {key: _num(value) for key, value in state["state"].items()},
        "has_uint32": _num(state["has_uint32"]),
        "uinteger": _num(state["uinteger"]),
    }


def restore_swarm(document: dict, **swarm_kwargs) -> "Swarm":
    """Rebuild a ready-to-continue :class:`Swarm` from a snapshot document.

    The returned swarm has ``_setup_done=True``; calling :meth:`run`
    continues from the snapshot round and produces a result whose
    fingerprint matches the uninterrupted run's.

    ``swarm_kwargs`` may carry run-control options that are *not* part
    of the snapshot (``profile``, ``checkpoint_path``,
    ``checkpoint_every``) — simulation-defining options come from the
    document itself.
    """
    from repro.faults.plan import FaultPlan
    from repro.sim.swarm import Swarm

    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CheckpointError(
            f"snapshot schema version {version!r} is not supported "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    backend = document.get("backend")
    if backend in ("soa", "sharded"):
        try:
            if backend == "soa" and "shards" not in swarm_kwargs:
                return _restore_soa_swarm(document, **swarm_kwargs)
            # Sharded documents, and soa documents resumed at a shard
            # count (a soa run is the one-shard sharded run).
            from repro.sim.sharded import restore_sharded_swarm

            return restore_sharded_swarm(document, **swarm_kwargs)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"snapshot document is structurally invalid: {exc!r}"
            )
    try:
        config = SimConfig.from_dict(document["config"])
        sw = document["swarm"]
        faults_doc = document["faults"]
        plan = (
            None
            if faults_doc is None
            else FaultPlan.from_dict(faults_doc["plan"])
        )
        metrics = _restore_metrics(document["metrics"])

        swarm = Swarm(
            config,
            instrument_first=int(sw["instrument_first"]),
            instrumented_avoid_seeds=bool(sw["instrumented_avoid_seeds"]),
            instrumented_start_empty=bool(sw["instrumented_start_empty"]),
            rarity_view=str(sw["rarity_view"]),
            metrics=metrics,
            faults=plan,
            **swarm_kwargs,
        )

        # RNG streams first: the constructor performs no draws, so the
        # restored position is exactly the snapshot position.
        swarm.rng.bit_generator.state = sw["rng"]
        if swarm.fault_injector is not None:
            swarm.fault_injector.restore_state(faults_doc)

        swarm.engine.restore_state(document["engine"])

        # Tracker registry: insert in ascending-id order (the snapshot
        # stores peers that way) so announce candidate iteration matches
        # the uninterrupted run's insertion-ordered dict.
        tracker = swarm.tracker
        tracker._peers = {}
        for peer_doc in document["peers"]:
            peer = _restore_peer(peer_doc, config.num_pieces)
            tracker._peers[peer.peer_id] = peer
        tracker._next_id = int(document["tracker"]["next_id"])
        tracker._bootstrap_trapped = {
            int(pid) for pid in document["tracker"]["bootstrap_trapped"]
        }

        # Instrumented list: alive entries must alias the tracker's peer
        # objects (they keep accumulating stats); departed ones are
        # rebuilt from their archived snapshots, preserving list order.
        departed = {
            doc["peer_id"]: doc for doc in document["departed_instrumented"]
        }
        swarm.instrumented_peers = [
            tracker._peers[pid]
            if pid in tracker._peers
            else _restore_peer(departed[pid], config.num_pieces)
            for pid in (int(p) for p in sw["instrumented_ids"])
        ]

        swarm.piece_counts = np.asarray(sw["piece_counts"], dtype=np.int64)
        # Mutate the cache containers IN PLACE: the tracker's neighbor
        # listener is the bound method ``_dirty.add`` of the original
        # set object — rebinding the attribute to a fresh set would
        # orphan the listener and silently drop invalidations.
        cache = swarm._potential_sets._cache
        cache.clear()
        cache.update(
            (int(pid), [int(m) for m in members])
            for pid, members in document["potential"]["cache"]
        )
        dirty = swarm._potential_sets._dirty
        dirty.clear()
        dirty.update(int(pid) for pid in document["potential"]["dirty"])
        stats = sw["connection_stats"]
        swarm.connection_stats.survived = int(stats["survived"])
        swarm.connection_stats.dropped = int(stats["dropped"])
        swarm.connection_stats.attempts = int(stats["attempts"])
        swarm.connection_stats.formed = int(stats["formed"])
        swarm.seed_upload_count = int(sw["seed_upload_count"])
        swarm.checkpoints_written = int(sw["checkpoints_written"])
        swarm._rounds = int(sw["rounds"])
        swarm._setup_done = bool(sw["setup_done"])
        swarm.resumed_from_round = swarm._rounds
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"snapshot document is structurally invalid: {exc!r}"
        )
    return swarm
