"""Swarm orchestrator: ties engine, tracker, peers and policies together.

One protocol **round** lasts ``piece_time`` and corresponds to one step
of the download-evolution chain (each active connection moves one piece
each way per round).  A round executes, in order:

1. lingering-seed departures (leechers that stayed as seeds past their
   time) — permanent origin seeds never leave;
2. connection maintenance — drop pairs that lost mutual interest or
   failed exogenously (:mod:`repro.sim.choking`);
3. potential-set computation for every leecher (the ``i`` coordinate);
4. slot filling — bilateral matching over potential sets;
5. tit-for-tat piece exchange — one piece each way per connection,
   selected rarest-first or randomly;
6. seed uploads (free pieces, no reciprocation) and optimistic-unchoke
   donations to empty-handed neighbors (the bootstrap channel);
7. per-peer stats, bootstrap-trap reporting, completions/departures,
   peer-set shaking, neighbor-set refills, and metrics.

Piece **rarity** for rarest-first is maintained incrementally as a
global replication count by default (O(1) per acquisition).  Real
clients estimate rarity from HAVE messages within their neighbor set;
``rarity_view="neighborhood"`` computes that exact limited view at
O(s * B) per peer per round for studies where the distinction matters.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ParameterError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultStats
from repro.sim.bitfield import Bitfield
from repro.sim.choking import (
    ConnectionStats,
    drop_stale_connections,
    fill_open_slots,
)
from repro.sim.config import SimConfig
from repro.sim.engine import DiscreteEventEngine, Event
from repro.sim.metrics import MetricsCollector
from repro.sim.peer import Peer
from repro.runtime.profiler import RoundProfiler
from repro.sim.peer_selection import (
    IncrementalPotentialSets,
    is_bootstrap_trapped,
)
from repro.sim.piece_selection import neighborhood_rarity, select_piece
from repro.sim.seeds import plan_seed_uploads
from repro.sim.shake import maybe_shake
from repro.sim.tracker import Tracker

__all__ = ["Swarm", "SwarmResult", "run_swarm"]


@dataclass
class SwarmResult:
    """Everything a run produced.

    Attributes:
        config: the configuration that produced this result.
        metrics: the collector with population/entropy/occupancy series.
        instrumented: full :class:`Peer` objects of instrumented peers
            (their stats survive departure).
        total_rounds: protocol rounds executed.
        final_leechers / final_seeds: population at the horizon.
        tracker_population_log: the tracker's (time, leechers, seeds)
            records — the paper's "tracker statistics".
        connection_stats: accumulated connection survival/formation
            counts, whose ratios are the measured ``p_r`` and ``p_n``.
        seed_upload_count: total pieces granted by seeds over the run.
        events_processed: discrete events the engine executed — the
            per-run work unit the runtime telemetry aggregates.
        wall_time: wall-clock seconds spent inside :meth:`Swarm.run`.
        fault_stats: counters of injected faults (None when the swarm
            ran without a :class:`~repro.faults.plan.FaultPlan`).
        round_profile: per-stage wall seconds from the
            :class:`~repro.runtime.profiler.RoundProfiler` (None unless
            the swarm ran with ``profile=True``).
        resumed_from_round: round the run was restored at when it came
            from a checkpoint (None for an uninterrupted run).  Excluded
            from the result fingerprint — the replayed trajectory is
            identical either way.
        checkpoints_written: snapshots this run wrote (also excluded
            from the fingerprint).
        backend: which swarm engine produced the result (``"object"``
            or ``"soa"``; also excluded from the fingerprint).
    """

    config: SimConfig
    metrics: MetricsCollector
    instrumented: List[Peer]
    total_rounds: int
    final_leechers: int
    final_seeds: int
    tracker_population_log: List[Tuple[float, int, int]]
    connection_stats: ConnectionStats
    seed_upload_count: int
    events_processed: int = 0
    wall_time: float = 0.0
    fault_stats: Optional[FaultStats] = None
    round_profile: Optional[Dict[str, float]] = None
    resumed_from_round: Optional[int] = None
    checkpoints_written: int = 0
    backend: str = "object"
    #: Per-shard round profiles keyed ``"shard0"``.. plus the
    #: coordinator's ``"coordinator"`` comms profile (sharded backend
    #: with ``profile=True`` only; excluded from the fingerprint like
    #: every other wall-clock observable).
    shard_profiles: Optional[Dict[str, Dict[str, float]]] = None
    #: Shared-memory fabric byte accounting (``bytes_broadcast``,
    #: ``bytes_migrated``, ``bytes_per_round``) for multi-shard runs;
    #: None elsewhere.  A wall-clock-adjacent observable, excluded from
    #: the fingerprint.
    comms: Optional[Dict[str, float]] = None

    def fingerprint(self) -> str:
        """SHA-256 over every deterministic output of the run.

        Two runs of the same trajectory — uninterrupted, or snapshotted
        and resumed at any round boundary — share this value; see
        :mod:`repro.checkpoint.fingerprint`.
        """
        from repro.checkpoint.fingerprint import result_fingerprint

        return result_fingerprint(self)


class CheckpointControl:
    """Checkpoint run-control shared by the swarm engines.

    An engine calls ``super().__init__(checkpoint_every,
    checkpoint_path)`` from its constructor and provides ``snapshot()``
    and a ``_rounds`` counter; the periodic hook and explicit writes
    both land in :meth:`write_checkpoint`.
    """

    def __init__(self, checkpoint_every: int, checkpoint_path: Optional[str]):
        if checkpoint_every < 0:
            raise ParameterError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if checkpoint_every > 0 and checkpoint_path is None:
            raise ParameterError(
                "checkpoint_every > 0 requires a checkpoint_path"
            )
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.checkpoints_written = 0
        #: Round a restore re-entered at (None for a fresh swarm).
        self.resumed_from_round: Optional[int] = None

    def _maybe_checkpoint(self) -> None:
        """The periodic hook: write when ``checkpoint_every`` divides
        the rounds completed so far."""
        if (
            self.checkpoint_every > 0
            and self._rounds % self.checkpoint_every == 0
        ):
            self.write_checkpoint()

    def write_checkpoint(self, path: Optional[str] = None) -> dict:
        """Atomically write the current snapshot; returns the document.

        Defaults to the configured ``checkpoint_path``.
        """
        from repro.checkpoint.format import write_checkpoint

        target = path if path is not None else self.checkpoint_path
        if target is None:
            raise ParameterError(
                "write_checkpoint() needs a path argument or a "
                "checkpoint_path configured at construction"
            )
        document = self.snapshot()
        write_checkpoint(document, target)
        self.checkpoints_written += 1
        return document


#: The engines ``Swarm(config, backend=...)`` builds: backend name ->
#: (module, class), imported on first use.  ``None`` is :class:`Swarm`.
_ENGINES = {
    "object": None,
    "soa": ("repro.sim.soa", "SoaSwarm"),
    "sharded": ("repro.sim.sharded", "ShardedSwarm"),
}

#: Valid values for the ``backend`` constructor argument.
BACKENDS = tuple(_ENGINES)


class Swarm(CheckpointControl):
    """A configurable BitTorrent swarm simulation.

    Args:
        config: the :class:`SimConfig`.
        backend: ``"object"`` (this class: per-peer Python objects, the
            fingerprint reference, full feature set), ``"soa"`` (the
            vectorized structure-of-arrays engine in
            :mod:`repro.sim.soa`; orders of magnitude faster at scale,
            statistically equivalent, supports the paper-scale config
            subset) or ``"sharded"`` (the SoA slab partitioned across
            ``shards=N`` worker processes — :mod:`repro.sim.sharded`;
            million-peer swarms, same config subset as ``"soa"``).
            For the other backends ``Swarm(...)`` returns that engine,
            built from the remaining keywords: a
            :class:`~repro.sim.soa.SoaSwarm`, or for ``"sharded"`` a
            :class:`~repro.sim.sharded.ShardedSwarm` — except that
            ``shards=1`` *is* the soa engine and returns a
            :class:`~repro.sim.soa.SoaSwarm`.  Neither subclasses
            :class:`Swarm`; the three engines share only
            :class:`CheckpointControl`.
        instrument_first: instrument the first N leechers to enter the
            swarm (initial population first, then arrivals) — they log
            per-round potential-set and connection series.
        instrumented_avoid_seeds: instrumented peers refuse seed uploads
            and optimistic donations, mirroring the paper's measurement
            client which "did not allow ... interact[ion] with the
            seeds" to isolate strict tit-for-tat behaviour.
        instrumented_start_empty: instrumented peers always join with no
            pieces, even when the surrounding initial population is
            pre-filled — the measurement client starts a fresh download.
        rarity_view: ``"global"`` (incremental swarm-wide counts) or
            ``"neighborhood"`` (exact per-peer limited view).
        metrics: optionally supply a pre-configured collector.
        faults: optional :class:`~repro.faults.plan.FaultPlan`.  The
            resulting injector draws from its own seed-derived stream,
            so a zero-intensity plan reproduces the fault-free run
            bit-for-bit (see ``docs/FAULTS.md``).
        profile: bucket per-round wall time by stage with a
            :class:`~repro.runtime.profiler.RoundProfiler`; the profile
            lands on :attr:`SwarmResult.round_profile`.  Disabled, the
            round loop pays only a few ``is None`` checks.
        checkpoint_every: write a snapshot every this many rounds (0
            disables checkpointing).
        checkpoint_path: where snapshots land (atomic overwrite of the
            same file; see :mod:`repro.checkpoint.format`).  Required
            when ``checkpoint_every > 0``.
    """

    def __new__(
        cls,
        config: Optional[SimConfig] = None,
        *,
        backend: str = "object",
        **kwargs,
    ):
        if backend not in _ENGINES:
            raise ParameterError(
                f"unknown swarm backend {backend!r}; valid backends are "
                f"{', '.join(repr(b) for b in BACKENDS)} "
                f"(e.g. Swarm(config, backend='soa') or "
                f"repro-bt run --backend soa)"
            )
        engine = _ENGINES[backend]
        if engine is None:
            return super().__new__(cls)
        # The engine is no Swarm, so Python skips Swarm.__init__ on it.
        module, name = engine
        return getattr(importlib.import_module(module), name)(config, **kwargs)

    def __init__(
        self,
        config: SimConfig,
        *,
        backend: str = "object",  # resolved by __new__
        instrument_first: int = 0,
        instrumented_avoid_seeds: bool = False,
        instrumented_start_empty: bool = True,
        rarity_view: str = "global",
        metrics: Optional[MetricsCollector] = None,
        faults: Optional[FaultPlan] = None,
        profile: bool = False,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
    ):
        super().__init__(checkpoint_every, checkpoint_path)
        self.backend = "object"
        if instrument_first < 0:
            raise ParameterError(
                f"instrument_first must be >= 0, got {instrument_first}"
            )
        if rarity_view not in ("global", "neighborhood"):
            raise ParameterError(
                f"rarity_view must be 'global' or 'neighborhood', "
                f"got {rarity_view!r}"
            )
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.engine = DiscreteEventEngine()
        self.tracker = Tracker(
            config.ns_size,
            self.rng,
            bias_bootstrap=config.tracker_bias_bootstrap,
            accept_cap=max(int(config.ns_size * config.ns_accept_factor),
                           config.ns_size),
        )
        self.metrics = metrics or MetricsCollector(config.max_conns)
        self.instrument_first = instrument_first
        self.instrumented_avoid_seeds = instrumented_avoid_seeds
        self.instrumented_start_empty = instrumented_start_empty
        self.rarity_view = rarity_view
        self.instrumented_peers: List[Peer] = []
        #: Global replication counts, maintained incrementally.
        self.piece_counts = np.zeros(config.num_pieces, dtype=np.int64)
        self._global_rarity: Optional[np.ndarray] = None
        self._rarity_round = -1
        #: Dirty-flag potential-set cache (subscribes to tracker
        #: mutations; bitfield/seed-flag changes are reported below).
        self._potential_sets = IncrementalPotentialSets(
            self.tracker, strict_tft=config.strict_tft
        )
        self.connection_stats = ConnectionStats()
        #: Per-stage round profiler (None unless ``profile=True``).
        self.profiler: Optional[RoundProfiler] = (
            RoundProfiler() if profile else None
        )
        #: Total pieces granted by seeds (capacity accounting).
        self.seed_upload_count = 0
        self._rounds = 0
        self._setup_done = False
        #: Fault injection (None when no plan is attached).
        self.fault_injector: Optional[FaultInjector] = None
        if faults is not None:
            self.fault_injector = FaultInjector(faults, config.seed)
            self.tracker.fault_injector = self.fault_injector
            # The injector learns the simulation clock from the engine's
            # pre-dispatch hook (tracker announces carry no time).
            self.engine.add_pre_dispatch_hook(self.fault_injector.observe)
        self.engine.register("round", self._on_round)
        self.engine.register("arrival", self._on_arrival)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Create the initial population and schedule the event skeleton."""
        if self._setup_done:
            raise SimulationError("setup() called twice")
        self._setup_done = True
        config = self.config

        for _ in range(config.num_seeds):
            self._spawn_peer(0.0, is_seed=True)

        for _ in range(config.initial_leechers):
            self._spawn_peer(0.0, initial_pieces=self._initial_mask())

        if config.arrival_process == "flash":
            for _ in range(config.flash_size):
                self._spawn_peer(0.0)
        elif config.arrival_process == "poisson" and config.arrival_rate > 0:
            self._schedule_next_arrival()

        expected_rounds = int(config.max_time / config.piece_time)
        self.metrics.set_expected_rounds(expected_rounds)
        self.engine.schedule_at(config.piece_time, Event("round"))

    def _initial_mask(self) -> Optional[int]:
        """Bitmask for an initial-population leecher per the config."""
        config = self.config
        if config.initial_distribution == "empty":
            return None
        prob = np.full(config.num_pieces, config.initial_fill)
        if config.initial_distribution == "skewed":
            prob[: config.skewed_pieces] *= config.skew_factor
        held = self.rng.random(config.num_pieces) < prob
        mask = 0
        for piece in np.flatnonzero(held):
            mask |= 1 << int(piece)
        # A complete "initial leecher" would depart instantly; drop one
        # random piece so it participates at least one round.
        if mask == (1 << config.num_pieces) - 1:
            drop = int(self.rng.integers(config.num_pieces))
            mask &= ~(1 << drop)
        return mask

    def _spawn_peer(
        self,
        time: float,
        *,
        is_seed: bool = False,
        initial_pieces: Optional[int] = None,
    ) -> Peer:
        instrument = (
            not is_seed and len(self.instrumented_peers) < self.instrument_first
        )
        peer = Peer(
            self.tracker.new_peer_id(),
            self.config.num_pieces,
            joined_at=time,
            is_seed=is_seed,
            instrumented=instrument,
        )
        if instrument and self.instrumented_start_empty:
            initial_pieces = None
        if initial_pieces:
            peer.bitfield = Bitfield(self.config.num_pieces, initial_pieces)
        if not is_seed and self.config.bandwidth_classes is not None:
            fractions = [frac for frac, _cap in self.config.bandwidth_classes]
            chosen = int(self.rng.choice(len(fractions), p=fractions))
            peer.upload_capacity = int(self.config.bandwidth_classes[chosen][1])
        self.tracker.register(peer)
        self.tracker.announce(peer)
        if is_seed:
            self.piece_counts += 1
        else:
            for piece in peer.bitfield.pieces():
                self.piece_counts[piece] += 1
        if instrument:
            self.instrumented_peers.append(peer)
        return peer

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def _schedule_next_arrival(self) -> None:
        delay = float(self.rng.exponential(1.0 / self.config.arrival_rate))
        when = self.engine.now + delay
        if when <= self.config.max_time:
            self.engine.schedule_at(when, Event("arrival"))

    def _on_arrival(self, time: float, event: Event) -> None:
        self._spawn_peer(time)
        self._schedule_next_arrival()

    # ------------------------------------------------------------------
    # The protocol round
    # ------------------------------------------------------------------
    def _on_round(self, time: float, event: Event) -> None:
        config = self.config
        self._rounds += 1
        profiler = self.profiler
        if profiler is not None:
            profiler.begin_round()

        self._depart_lingering_seeds(time)
        self._handle_aborts(time)
        self._inject_churn(time)
        leechers = list(self.tracker.leechers())

        if leechers:
            drop_stale_connections(
                leechers,
                self.tracker,
                self.rng,
                failure_prob=config.connection_failure_prob,
                strict_tft=config.strict_tft,
                stats=self.connection_stats,
                injector=self.fault_injector,
            )
            if profiler is not None:
                profiler.lap("maintenance")
            potential = self._potential_sets.compute(leechers)
            if profiler is not None:
                profiler.lap("potential")
            fill_open_slots(
                leechers,
                potential,
                self.tracker,
                config.max_conns,
                self.rng,
                setup_prob=config.connection_setup_prob,
                matching=config.matching,
                stats=self.connection_stats,
                injector=self.fault_injector,
            )
            if profiler is not None:
                profiler.lap("matching")
            acquisitions = self._exchange_pieces(leechers, time)
            if profiler is not None:
                profiler.lap("exchange")
            acquisitions += self._seed_uploads(time)
            acquisitions += self._optimistic_donations(leechers, time)
            if profiler is not None:
                profiler.lap("seeds")
            self._record_round_stats(leechers, potential, time)
            self._handle_completions(time)
            self._handle_shakes(time)
            self._refill_neighbor_sets(time)
        else:
            potential = {}
            if profiler is not None:
                profiler.lap("maintenance")

        self.tracker.log_population(time)
        self.metrics.on_round_end(time, self.tracker, {
            pid: len(members) for pid, members in potential.items()
        })
        if profiler is not None:
            profiler.lap("bookkeeping")

        next_time = time + config.piece_time
        if next_time <= config.max_time and (
            len(self.tracker) > 0 or self.engine.pending_events > 0
        ):
            self.engine.schedule_at(next_time, Event("round"))

        # Snapshot AFTER scheduling the follow-up round, so the captured
        # event queue already carries the continuation — a resumed run
        # re-enters the loop exactly where the interrupted one would.
        self._maybe_checkpoint()

    def _depart_lingering_seeds(self, time: float) -> None:
        for peer in list(self.tracker.seeds()):
            if peer.seed_until is not None and time >= peer.seed_until:
                self.tracker.deregister(peer.peer_id)
                self.piece_counts -= 1  # a full bitfield leaves

    def _handle_aborts(self, time: float) -> None:
        """Leechers abandon at rate ``abort_rate`` (the fluid theta).

        The per-leecher uniforms are drawn as one vectorized call; a
        batch of ``m`` draws consumes the generator stream identically
        to ``m`` sequential ``rng.random()`` calls, so the per-peer
        abort decisions are bit-identical to the old scalar loop.
        """
        rate = self.config.abort_rate
        if rate <= 0.0:
            return
        peers = list(self.tracker.leechers())
        if not peers:
            return
        draws = self.rng.random(len(peers))
        for peer, u in zip(peers, draws):
            if u < rate:
                self.metrics.on_peer_abort(peer, time)
                self.tracker.deregister(peer.peer_id)
                for piece in peer.bitfield.pieces():
                    self.piece_counts[piece] -= 1

    def _inject_churn(self, time: float) -> None:
        """Fault-injected churn: leechers abort at the plan's hazard rate.

        Draws come from the injector's own stream, so the swarm's RNG
        consumption — and hence every fault-free draw sequence — is
        untouched by attaching a plan.  One vectorized
        :meth:`~repro.faults.injector.FaultInjector.churn_mask` call
        replaces the per-peer draws with an identical stream order.
        """
        injector = self.fault_injector
        if injector is None or injector.plan.churn_hazard <= 0.0:
            return
        peers = list(self.tracker.leechers())
        if not peers:
            return
        mask = injector.churn_mask(len(peers))
        for peer, churned in zip(peers, mask):
            if churned:
                self.metrics.on_peer_abort(peer, time)
                self.tracker.deregister(peer.peer_id)
                for piece in peer.bitfield.pieces():
                    self.piece_counts[piece] -= 1

    # -- piece exchange ---------------------------------------------------
    def _rarity_for(self, peer: Peer):
        if self.rarity_view == "neighborhood":
            return neighborhood_rarity(peer, self.tracker)
        # Global view: snapshot at most once per round (piece counts
        # move within a round, but rarest-first is a heuristic ranking;
        # the one-round-stale view is the standard fidelity/cost trade).
        # The snapshot is the raw count array — O(B) copy instead of the
        # old O(B) dict build — which select_piece indexes directly;
        # every count matches the old ``{piece: count if count > 0}``
        # view, so selections are bit-identical.
        if self._rarity_round != self._rounds:
            self._rarity_round = self._rounds
            snapshot = self.piece_counts.copy()
            snapshot.setflags(write=False)
            self._global_rarity = snapshot
        return self._global_rarity

    def _grant_piece(self, receiver: Peer, piece: int, time: float) -> bool:
        """Apply one transfer toward ``piece``; False if it was a duplicate.

        At whole-piece granularity (``blocks_per_piece == 1``) the piece
        lands immediately.  At sub-piece granularity each call delivers
        one block; the piece joins the bitfield — and becomes tradable,
        per the paper's "a peer can start serving a block only after the
        entire piece is received and its correctness is verified" — only
        once all blocks have arrived.
        """
        if receiver.bitfield.has(piece):
            return False
        blocks = self.config.blocks_per_piece
        if blocks > 1:
            received = receiver.block_progress.get(piece, 0) + 1
            if received < blocks:
                receiver.block_progress[piece] = received
                return True
            receiver.block_progress.pop(piece, None)
        if not receiver.bitfield.add(piece):
            return False
        receiver.record_piece(time, piece)
        self.piece_counts[piece] += 1
        self._potential_sets.mark_neighborhood_dirty(receiver)
        return True

    def _select_for(
        self,
        receiver: Peer,
        sender: Peer,
        rarity: Dict[int, int],
    ) -> Optional[int]:
        """Piece choice for one transfer direction, block-aware.

        At sub-piece granularity, real clients finish partial pieces
        before starting new ones (strict piece priority); a partial
        piece the sender holds is therefore chosen first.
        """
        config = self.config
        if config.blocks_per_piece > 1 and receiver.block_progress:
            partials = [
                piece
                for piece in receiver.block_progress
                if sender.bitfield.has(piece)
            ]
            if partials:
                return int(partials[int(self.rng.integers(len(partials)))])
        return select_piece(
            receiver.bitfield,
            sender.bitfield,
            config.piece_selection,
            self.rng,
            rarity=rarity,
            random_first_cutoff=config.random_first_cutoff,
        )

    def _exchange_pieces(self, leechers: List[Peer], time: float) -> int:
        """Strict tit-for-tat swaps: one piece each way per connection.

        Under heterogeneous bandwidth each leecher's uploads per round
        are capped at its ``upload_capacity``; a strict-TFT swap needs
        one unit of budget on *both* sides.
        """
        config = self.config
        pairs: List[Tuple[Peer, Peer]] = []
        for peer in leechers:
            # Sorted partner order: pair order feeds the permutation
            # draw below and must not depend on set memory layout
            # (checkpoint restores rebuild these sets from scratch).
            for partner_id in sorted(peer.partners):
                if partner_id > peer.peer_id:
                    partner = self.tracker.get(partner_id)
                    if partner is not None and not partner.is_seed:
                        pairs.append((peer, partner))
        if not pairs:
            return 0
        budgets: Dict[int, int] = {}
        if config.bandwidth_classes is not None:
            for peer in leechers:
                if peer.upload_capacity is not None:
                    budgets[peer.peer_id] = peer.upload_capacity
        transferred = 0
        order = self.rng.permutation(len(pairs))
        for idx in order:
            a, b = pairs[idx]
            if budgets:
                if budgets.get(a.peer_id, 1) < 1 or budgets.get(b.peer_id, 1) < 1:
                    continue  # an endpoint's uplink is saturated this round
            rarity_a = self._rarity_for(a)
            rarity_b = self._rarity_for(b)
            gift_to_a = self._select_for(a, b, rarity_a)
            gift_to_b = self._select_for(b, a, rarity_b)
            if config.strict_tft and (gift_to_a is None or gift_to_b is None):
                # The earlier transfers of this round consumed the
                # remaining novelty: no one-sided gifts under strict TFT.
                continue
            if gift_to_a is not None:
                transferred += self._grant_piece(a, gift_to_a, time)
                if budgets and b.peer_id in budgets:
                    budgets[b.peer_id] -= 1  # b uploaded to a
            if gift_to_b is not None:
                transferred += self._grant_piece(b, gift_to_b, time)
                if budgets and a.peer_id in budgets:
                    budgets[a.peer_id] -= 1  # a uploaded to b
        return transferred

    def _seed_uploads(self, time: float) -> int:
        config = self.config
        blocked: Optional[Set[int]] = None
        if self.instrumented_avoid_seeds:
            blocked = {p.peer_id for p in self.instrumented_peers}
        granted = 0
        for seed in list(self.tracker.seeds()):
            grants = plan_seed_uploads(
                seed,
                self.tracker,
                config.seed_upload_slots,
                config.piece_selection,
                self.rng,
                super_seeding=config.super_seeding,
                rarity=self._rarity_for(seed),
                blocked_receivers=blocked,
                random_first_cutoff=config.random_first_cutoff,
            )
            for receiver_id, piece in grants:
                receiver = self.tracker.get(receiver_id)
                if receiver is not None:
                    granted += self._grant_piece(receiver, piece, time)
        self.seed_upload_count += granted
        return granted

    def _optimistic_donations(self, leechers: List[Peer], time: float) -> int:
        """Optimistic unchokes: free pieces for neighbors that can't pay.

        Each round, with probability ``optimistic_unchoke_prob``, a peer
        uploads one piece for free to a neighbor that cannot reciprocate
        ("through optimistic unchoking from other downloaders").  Like
        BitTorrent's optimistic-unchoke slot, this capacity is *in
        addition to* the ``k`` regular slots.

        Target selection follows ``config.optimistic_targets``:
        ``"starved"`` serves any interested neighbor with nothing novel
        to offer the donor (the protocol's actual behaviour — and the
        escape hatch for bootstrap- and last-phase-trapped peers whose
        piece sets are subsets of their neighborhood's); ``"empty"``
        restricts the channel to zero-piece newcomers.
        """
        config = self.config
        if config.optimistic_unchoke_prob <= 0.0:
            return 0
        donated = 0
        for donor in leechers:
            if donor.bitfield.count < 1:
                continue
            if self.rng.random() >= config.optimistic_unchoke_prob:
                continue
            eligible = []
            # Sorted neighbor order: ``eligible`` is indexed by an RNG
            # draw, so its order must survive checkpoint/restore.
            for nid in sorted(donor.neighbors):
                neighbor = self.tracker.get(nid)
                if neighbor is None or neighbor.is_seed:
                    continue
                if config.optimistic_targets == "empty":
                    if neighbor.bitfield.is_empty:
                        eligible.append(nid)
                else:
                    # Starved: wants something from the donor but has
                    # nothing novel to trade back.
                    if neighbor.bitfield.interested_in(
                        donor.bitfield
                    ) and not donor.bitfield.interested_in(neighbor.bitfield):
                        eligible.append(nid)
            if not eligible:
                continue
            receiver = self.tracker.get(
                int(eligible[self.rng.integers(len(eligible))])
            )
            if receiver is None:
                continue
            piece = select_piece(
                receiver.bitfield,
                donor.bitfield,
                config.piece_selection,
                self.rng,
                rarity=self._rarity_for(receiver),
                random_first_cutoff=config.random_first_cutoff,
            )
            if piece is not None:
                donated += self._grant_piece(receiver, piece, time)
        return donated

    # -- bookkeeping -------------------------------------------------------
    def _record_round_stats(
        self,
        leechers: List[Peer],
        potential: Dict[int, List[int]],
        time: float,
    ) -> None:
        for peer in leechers:
            size = len(potential.get(peer.peer_id, ()))
            peer.record_round(time, size)
            if self.config.tracker_bias_bootstrap:
                self.tracker.report_bootstrap_trapped(
                    peer.peer_id, is_bootstrap_trapped(peer, size)
                )

    def _handle_completions(self, time: float) -> None:
        config = self.config
        for peer in list(self.tracker.leechers()):
            if not peer.bitfield.is_complete:
                continue
            self.metrics.on_peer_complete(peer, time)
            if config.completed_become_seeds > 0:
                peer.is_seed = True
                peer.seed_until = time + config.completed_become_seeds
                # The seed flag removes the peer from every neighbor's
                # potential set; invalidate the whole neighborhood.
                self._potential_sets.mark_neighborhood_dirty(peer)
                # Sever trading connections symmetrically: seeds upload
                # outside the tit-for-tat slots.
                for partner_id in list(peer.partners):
                    partner = self.tracker.get(partner_id)
                    if partner is not None:
                        partner.partners.discard(peer.peer_id)
                peer.partners.clear()
            else:
                self.tracker.deregister(peer.peer_id)
                self.piece_counts -= 1

    def _handle_shakes(self, time: float) -> None:
        threshold = self.config.shake_threshold
        if threshold is None:
            return
        for peer in list(self.tracker.leechers()):
            maybe_shake(
                peer, self.tracker, threshold, time,
                injector=self.fault_injector,
            )

    def _refill_neighbor_sets(self, time: float) -> None:
        config = self.config
        interval_rounds = max(int(config.announce_interval / config.piece_time), 1)
        if self._rounds % interval_rounds != 0:
            return
        for peer in list(self.tracker.leechers()):
            if len(peer.neighbors) < config.ns_size:
                self.tracker.announce(peer)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Full snapshot document (schema v1) of the current state.

        Valid between engine events — in practice, at round boundaries;
        the periodic ``checkpoint_every`` hook calls this at the end of
        a round.  Imports are lazy to keep ``repro.sim`` importable
        without the checkpoint package (and to avoid an import cycle).
        """
        from repro.checkpoint.schema import snapshot_swarm

        return snapshot_swarm(self)

    @classmethod
    def resume(cls, snapshot: dict, **swarm_kwargs) -> "Swarm":
        """Rebuild a swarm from a snapshot document, ready to :meth:`run`.

        The continuation is bit-identical to the uninterrupted run: the
        resulting :class:`SwarmResult` has the same
        :meth:`~SwarmResult.fingerprint`.  ``swarm_kwargs`` carries
        run-control options only (``profile``, ``checkpoint_path``,
        ``checkpoint_every``); everything simulation-defining comes from
        the snapshot.
        """
        from repro.checkpoint.schema import restore_swarm

        return restore_swarm(snapshot, **swarm_kwargs)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> SwarmResult:
        """Run to the configured horizon and return the result bundle."""
        start = time.perf_counter()
        if not self._setup_done:
            self.setup()
        self.engine.run_until(self.config.max_time)
        leech, seeds = self.tracker.counts()
        return SwarmResult(
            config=self.config,
            metrics=self.metrics,
            instrumented=self.instrumented_peers,
            total_rounds=self._rounds,
            final_leechers=leech,
            final_seeds=seeds,
            tracker_population_log=list(self.tracker.population_log),
            connection_stats=self.connection_stats,
            seed_upload_count=self.seed_upload_count,
            events_processed=self.engine.processed_events,
            wall_time=time.perf_counter() - start,
            fault_stats=(
                self.fault_injector.stats if self.fault_injector else None
            ),
            round_profile=(
                self.profiler.as_dict() if self.profiler is not None else None
            ),
            resumed_from_round=self.resumed_from_round,
            checkpoints_written=self.checkpoints_written,
            backend="object",
        )


def run_swarm(config: SimConfig, **swarm_kwargs) -> SwarmResult:
    """Convenience wrapper: build, set up, and run a swarm.

    Accepts every :class:`Swarm` constructor keyword, including
    ``backend="soa"`` for the vectorized engine and
    ``backend="sharded", shards=N`` for the multiprocess engine.
    """
    swarm = Swarm(config, **swarm_kwargs)
    return swarm.run()
