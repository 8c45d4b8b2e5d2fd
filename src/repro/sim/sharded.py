"""Sharded swarm: the SoA slab partitioned across worker processes.

:class:`ShardedSwarm` runs the PR-8 structure-of-arrays round kernels
on ``N`` forked worker processes, each owning one shard of the peer
population, while the coordinator process owns everything global: the
arrival process, global piece-replication counts (the rarest-first
view), peer-id allocation, cross-shard migration routing, the metrics
collector, and coordinated checkpoints.

Design contract (mirrors ``docs/RUNTIME.md``):

* **Lockstep rounds over one pipe per worker.** Workers are forked:
  the ``fork`` start method is the engine's one environment
  assumption, checked at construction.  Every shard advances
  exactly one protocol round per coordinator cycle.  The step message
  carries the global replication counts (for rarest-first), the
  shard's immigrant peer rows, its arrivals and its emigrant quota;
  the reply is the shard's whole round report, emigrant rows included.
  Rows are the :data:`~repro.sim.soa.PEER_COLUMNS` table, the same
  columns and encoding as the checkpoint store block, so a migration
  batch *is* a slice of a snapshot, and it pickles as raw column
  buffers.
* **Splittable seeding.** Shard ``i`` of generation ``g`` seeds its
  engine from ``derive_seed(seed, SHARD_NS, 1 + g, shards, i)``; the
  coordinator's tracker stream is ``derive_seed(seed, SHARD_NS, 0)``.
  Fault injectors derive from the shard seed, so each shard draws an
  independent fault stream (the PR-1 seeding contract).
* **``shards=1`` is the soa engine.** ``ShardedSwarm(config,
  shards=1)`` — and so ``Swarm(config, backend="sharded", shards=1)`` —
  returns a plain in-process :class:`~repro.sim.soa.SoaSwarm`: no
  coordinator, no fork, the same result (``backend == "soa"``) and soa
  checkpoints.  ``shards >= 2`` changes the trajectory (per-shard
  neighbor sets, coordinator-owned arrivals) and is held to the
  statistical equivalence gates instead.
* **Checkpoint = shard snapshots + coordinator block.** The sharded
  document embeds one soa-flavored document per shard, so elastic
  re-sharding is checkpoint -> repartition (rows rehashed by
  ``peer_id % M``) -> resume, and a worker death rolls every shard
  back to the last coordinated snapshot and replays — fingerprint
  identical to the uninterrupted run (the PR-2 recovery guarantee).
  A soa checkpoint (one shard) resumes at ``M >= 2`` the same way,
  lifted into a one-shard coordinated document first.
"""

from __future__ import annotations

import multiprocessing
import time as _time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CheckpointError, ParameterError, SimulationError
from repro.faults.plan import FaultPlan, FaultStats
from repro.runtime.profiler import SHARD_COORD_STAGES, RoundProfiler
from repro.runtime.seeding import derive_seed
from repro.sim.config import SimConfig
from repro.sim.engine import Event
from repro.sim.metrics import MetricsCollector
from repro.sim.soa import (
    PeerStore,
    SoaSwarm,
    peer_rows,
    share_cores,
    unpack_rows,
    words_for,
)
from repro.sim.swarm import CheckpointControl, ConnectionStats, SwarmResult

__all__ = ["ShardEngine", "ShardedSwarm", "restore_sharded_swarm", "SHARD_NS"]

#: Seed-derivation namespace for the sharded backend (PR-1 contract:
#: every independent stream hangs off the root seed under a distinct
#: path, so no shard shares a stream with the tracker or the faults).
SHARD_NS = 0x5AAD

class _WorkerDied(Exception):
    """A shard worker process died mid-protocol (crash or SIGKILL)."""

    def __init__(self, shard: int):
        super().__init__(f"shard worker {shard} died")
        self.shard = shard


def _split(total: int, shards: int, index: int) -> int:
    """Size of partition ``index`` when ``total`` splits over ``shards``."""
    return total // shards + (1 if index < total % shards else 0)


def _shard_record(
    n_leech: int,
    n_seeds: int,
    piece_counts: np.ndarray,
    stats: Tuple[int, int, int, int],
    seed_uploads: int,
    *,
    time: Optional[float] = None,
    conn_counts: Optional[np.ndarray] = None,
    completed: Optional[dict] = None,
    aborted: Optional[list] = None,
) -> dict:
    """The coordinator's record of one shard: a round report, or (with
    the round-only fields left out) a summary of restored state.

    ``stats`` is the (survived, dropped, attempts, formed) connection
    tally; ``completed`` is the round's completion-table batch (one
    array per column, or None) and ``aborted`` its abort records.
    """
    return {
        "time": time,
        "n_leech": n_leech,
        "n_seeds": n_seeds,
        "piece_counts": piece_counts,
        "conn_counts": conn_counts,
        "stats": stats,
        "seed_uploads": seed_uploads,
        "completed": completed,
        "aborted": list(aborted or ()),
    }


# ----------------------------------------------------------------------
# Migration row helpers
# ----------------------------------------------------------------------
def _concat_rows(parts: List[dict]) -> Optional[dict]:
    parts = [p for p in parts if p is not None and p["peer_id"].size]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return {
        name: np.concatenate([p[name] for p in parts]) for name in parts[0]
    }


def _rows_nbytes(rows: Optional[dict]) -> int:
    """Bytes a migrant batch moves over the pipe (its column buffers)."""
    if rows is None:
        return 0
    return sum(column.nbytes for column in rows.values())


def _select_rows(rows: dict, mask: np.ndarray) -> Optional[dict]:
    if not mask.any():
        return None
    return {name: column[mask] for name, column in rows.items()}


# ----------------------------------------------------------------------
# The per-shard engine
# ----------------------------------------------------------------------
class ShardEngine(SoaSwarm):
    """One shard's round engine: an SoA swarm driven by a coordinator.

    Differences from a standalone :class:`SoaSwarm`:

    * rarest-first reads the coordinator-broadcast *global* replication
      counts instead of the shard-local ones;
    * the round event chain never dies while the coordinator keeps
      stepping (an empty shard may be repopulated by migration);
    * arrivals are injected by the coordinator with explicit globally
      unique peer ids (the shard never draws arrival times itself);
    * every round emits a report (populations, replication counts,
      trading-scope connection counts, the round's completion columns
      and abort records) for the coordinator's metrics collector, which
      records the round; the shard's own collector only gathers the
      round's abort records and hands them over, keeping none.
    """

    def __init__(self, config: SimConfig, **kwargs):
        super().__init__(config, **kwargs)
        self._global_counts: Optional[np.ndarray] = None
        self._round_report: Optional[dict] = None
        self._round_completed: Optional[dict] = None

    # -- coordinator-facing hooks --------------------------------------
    def _rarity_snapshot(self) -> np.ndarray:
        if self._global_counts is not None:
            return self._global_counts
        return super()._rarity_snapshot()

    def _on_round(self, time: float, event: Event) -> None:
        super()._on_round(time, event)
        # Keep the lockstep alive even when this shard is empty: the
        # global swarm may still be running and migration or arrivals
        # can repopulate us.  (Shards schedule no arrival events, so an
        # empty queue here means the parent declined to reschedule.)
        next_time = time + self.config.piece_time
        if self.engine.pending_events == 0 and next_time <= self.config.max_time:
            self.engine.schedule_at(next_time, Event("round"))

    def _record_completions(self, done: np.ndarray, time: float) -> None:
        # The coordinator's collector records the round's batch.
        self._round_completed = self._completion_columns(done)

    def _log_round(self, time: float, pot_full: np.ndarray) -> None:
        metrics = self.metrics
        self._round_report = self.state_summary(
            time=time,
            conn_counts=self._trading_conn_counts(pot_full),
            completed=self._round_completed,
            aborted=metrics.aborted,
        )
        self._round_completed = None
        metrics.aborted = []

    # -- cross-shard peer exchange -------------------------------------
    def spawn_arrivals(self, times: np.ndarray, ids: np.ndarray) -> None:
        """Admit coordinator-assigned arrivals (empty leechers)."""
        count = times.size
        if count == 0:
            return
        store = self.store
        slots = store.allocate(count)
        self._alive_dirty = True
        store.peer_id[slots] = ids
        self._id_to_slot.update(
            zip(np.asarray(ids).tolist(), slots.tolist())
        )
        store.joined_at[slots] = times
        self._n_leech += count
        config = self.config
        if config.bandwidth_classes is not None:
            fractions = [f for f, _ in config.bandwidth_classes]
            caps = np.array(
                [int(c) for _, c in config.bandwidth_classes], dtype=np.int64
            )
            chosen = self.rng.choice(len(fractions), size=count, p=fractions)
            store.upload_capacity[slots] = caps[chosen]
        self._pending_announce.extend(slots.tolist())

    def absorb_rows(self, rows: dict) -> None:
        """Admit immigrant peers; they re-announce next round."""
        count = rows["peer_id"].size
        if count == 0:
            return
        store = self.store
        slots = store.allocate(count)
        self._alive_dirty = True
        store.put_rows(slots, rows)
        self._id_to_slot.update(
            zip(store.peer_id[slots].tolist(), slots.tolist())
        )
        self.piece_counts += unpack_rows(
            store.bits[slots], self.config.num_pieces
        ).sum(axis=0)
        seeds = int(store.is_seed[slots].sum())
        self._n_seeds += seeds
        self._n_leech += count - seeds
        self._pending_announce.extend(slots.tolist())

    def extract_emigrants(self, count: int) -> Optional[dict]:
        """Remove up to ``count`` random alive peers, returning their rows."""
        alive = self._alive_slots()
        count = min(int(count), int(alive.size))
        if count <= 0:
            return None
        pick = alive[np.sort(self.rng.permutation(alive.size)[:count])]
        rows = self.store.rows(pick)
        self._remove_peers(pick)
        return rows

    # -- the lockstep entry point --------------------------------------
    def lockstep_round(
        self,
        global_counts: Optional[np.ndarray],
        immigrants: Optional[dict],
        arrivals: Optional[Tuple[np.ndarray, np.ndarray]],
        emigrate: int,
    ) -> dict:
        """Run exactly one round under the coordinator's instructions.

        Migration runs outside the round's own stages, so its time (the
        immigrants' rows and the emigrants' departure) is charged to
        the profiler's ``store`` stage here.
        """
        self._global_counts = global_counts
        start = _time.perf_counter()
        if immigrants is not None:
            self.absorb_rows(immigrants)
        migrating = _time.perf_counter() - start
        if arrivals is not None:
            self.spawn_arrivals(arrivals[0], arrivals[1])
        if self.engine.step() is None:
            raise SimulationError("shard round queue drained unexpectedly")
        report = self._round_report
        self._round_report = None
        start = _time.perf_counter()
        report["emigrants"] = (
            self.extract_emigrants(emigrate) if emigrate > 0 else None
        )
        migrating += _time.perf_counter() - start
        if self.profiler is not None:
            self.profiler.charge("store", migrating)
        return report

    def state_summary(self, **round_fields) -> dict:
        """The shard-state record of current state; ``round_fields``
        fill its round-only entries (see :func:`_shard_record`)."""
        stats = self.connection_stats
        return _shard_record(
            self._n_leech,
            self._n_seeds,
            self.piece_counts.copy(),
            (stats.survived, stats.dropped, stats.attempts, stats.formed),
            self.seed_upload_count,
            **round_fields,
        )


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _shard_worker(conn, shards: int) -> None:
    """Shard worker main loop: one command in, one reply out.

    The worker is one of ``shards`` forked processes, so its kernels
    take its share of the cores (:func:`~repro.sim.soa.share_cores`).
    """
    share_cores(shards)
    engine: Optional[ShardEngine] = None
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return  # coordinator went away; die quietly
            command, payload = message
            if command == "stop":
                return
            try:
                if command == "init":
                    engine = ShardEngine(
                        payload["config"],
                        faults=payload["faults"],
                        profile=payload["profile"],
                    )
                    engine._next_id = payload["id_start"]
                    engine.setup()
                    conn.send(("ok", engine.state_summary()))
                elif command == "restore":
                    from repro.checkpoint.schema import _restore_soa_swarm

                    engine = _restore_soa_swarm(
                        payload["document"],
                        swarm_cls=ShardEngine,
                        profile=payload["profile"],
                    )
                    conn.send(("ok", engine.state_summary()))
                elif command == "adopt":
                    engine = ShardEngine(
                        payload["config"],
                        faults=payload["faults"],
                        profile=payload["profile"],
                    )
                    engine._setup_done = True
                    engine._rounds = payload["rounds"]
                    if payload["rows"] is not None:
                        engine.absorb_rows(payload["rows"])
                    engine.engine.schedule_at(
                        payload["next_round_time"], Event("round")
                    )
                    conn.send(("ok", engine.state_summary()))
                elif command == "step":
                    busy_start = _time.perf_counter()
                    report = engine.lockstep_round(
                        payload["counts"],
                        payload["immigrants"],
                        payload["arrivals"],
                        payload["emigrate"],
                    )
                    report["busy"] = _time.perf_counter() - busy_start
                    conn.send(("report", report))
                elif command == "snapshot":
                    from repro.checkpoint.schema import snapshot_soa_swarm

                    conn.send(("doc", snapshot_soa_swarm(engine)))
                elif command == "final":
                    conn.send(("final", {
                        "fault_stats": (
                            engine.fault_injector.stats
                            if engine.fault_injector is not None
                            else None
                        ),
                        "profile": (
                            engine.profiler.as_dict()
                            if engine.profiler is not None
                            else None
                        ),
                        "events": engine.engine.processed_events,
                    }))
                else:  # pragma: no cover - protocol misuse
                    conn.send(("error", f"unknown command {command!r}"))
            except Exception:  # noqa: BLE001 - report, then die
                conn.send(("error", traceback.format_exc()))
                return
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
class ShardedSwarm(CheckpointControl):
    """Coordinator for a swarm partitioned across shard processes.

    Args:
        config: the :class:`SimConfig` (same knobs as every backend).
        shards: worker count.  ``1`` is the soa engine: construction
            returns a plain :class:`SoaSwarm` (``shard_mix`` is still
            validated, the sharding knobs are otherwise unused);
            ``>= 2`` forks one process per shard.
        shard_mix: per-round probability that an alive peer migrates to
            a uniformly random other shard (coordinator-drawn, batched
            at round boundaries).  ``0`` disables migration.
        max_worker_restarts: how many worker deaths to survive by
            rolling back to the last coordinated snapshot (or round 0
            when none exists) before giving up.
        metrics / faults / profile / checkpoint_every / checkpoint_path:
            as for :class:`~repro.sim.swarm.Swarm`.
    """

    def __new__(
        cls,
        config: SimConfig,
        *,
        shards: int = 2,
        shard_mix: float = 0.02,
        max_worker_restarts: int = 3,
        **kwargs,
    ):
        if shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards}")
        if not 0.0 <= shard_mix <= 1.0:
            raise ParameterError(
                f"shard_mix must be in [0, 1], got {shard_mix}"
            )
        if shards == 1:
            # Not a ShardedSwarm, so Python skips __init__ on it.
            return SoaSwarm(config, **kwargs)
        return super().__new__(cls)

    def __init__(
        self,
        config: SimConfig,
        *,
        shards: int = 2,
        shard_mix: float = 0.02,
        max_worker_restarts: int = 3,
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
        SoaSwarm._check_supported(
            config, instrument_first, instrumented_avoid_seeds, rarity_view
        )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ParameterError(
                "the sharded engine forks its shard workers, and this "
                "platform has no 'fork' start method; run the same "
                "config with backend=\"soa\" (or shards=1) instead"
            )
        super().__init__(checkpoint_every, checkpoint_path)
        self.backend = "sharded"
        self.config = config
        self.shards = int(shards)
        self.shard_mix = float(shard_mix)
        self.max_worker_restarts = int(max_worker_restarts)
        self.metrics = metrics or MetricsCollector(config.max_conns)
        self.fault_plan = faults
        self.profile = bool(profile)
        self.worker_restarts = 0
        self.shard_profiles: Optional[Dict[str, Dict[str, float]]] = None

        self._procs: list = []
        self._conns: list = []
        self._started = False
        self._finished = False
        self._restore_docs: Optional[List[dict]] = None
        self._adopt_rows: Optional[List[Optional[dict]]] = None
        self._last_document: Optional[dict] = None
        self._bytes_broadcast = 0
        self._bytes_migrated = 0
        self._comms_profiler: Optional[RoundProfiler] = None
        self._init_coordinator_state()

    # ------------------------------------------------------------------
    # Coordinator state
    # ------------------------------------------------------------------
    def _init_coordinator_state(self) -> None:
        config = self.config
        self._generation = 0
        self._tracker_rng = np.random.default_rng(
            derive_seed(config.seed, SHARD_NS, 0)
        )
        self._rounds = 0
        self._next_round_time = config.piece_time
        self._global_next_id = 0
        self._next_arrival: Optional[float] = None
        self._pending_rows: List[Optional[dict]] = [None] * self.shards
        self._shard_state: List[Optional[dict]] = [None] * self.shards
        self._carried = {
            "survived": 0, "dropped": 0, "attempts": 0, "formed": 0,
            "seed_uploads": 0, "events": 0,
        }
        self._carried_faults: Optional[FaultStats] = (
            FaultStats() if self.fault_plan is not None else None
        )

    def _shard_seed(self, index: int) -> int:
        return derive_seed(
            self.config.seed, SHARD_NS, 1 + self._generation,
            self.shards, index,
        )

    def _shard_config(self, index: int) -> SimConfig:
        """Shard ``index``'s partition of the global configuration."""
        config = self.config
        flash = (
            _split(config.flash_size, self.shards, index)
            if config.arrival_process == "flash"
            else 0
        )
        return config.with_changes(
            seed=self._shard_seed(index),
            num_seeds=_split(config.num_seeds, self.shards, index),
            initial_leechers=_split(
                config.initial_leechers, self.shards, index
            ),
            arrival_process=(
                "flash" if config.arrival_process == "flash" else "none"
            ),
            # Rate is unused under "none" but sizes the shard's slab
            # for the arrivals the coordinator will route its way.
            arrival_rate=config.arrival_rate / self.shards,
            flash_size=flash,
        )

    def _adopt_config(self, index: int) -> SimConfig:
        """An empty shard config for repartitioned (adopted) peers."""
        return self.config.with_changes(
            seed=self._shard_seed(index),
            num_seeds=0,
            initial_leechers=0,
            arrival_process="none",
            arrival_rate=self.config.arrival_rate / self.shards,
            flash_size=0,
        )

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_processes(self) -> None:
        context = multiprocessing.get_context("fork")
        self._procs = []
        self._conns = []
        for _ in range(self.shards):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker,
                args=(child_conn, self.shards),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._procs.append(process)
            self._conns.append(parent_conn)

    def _send(self, index: int, message) -> None:
        try:
            self._conns[index].send(message)
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise _WorkerDied(index) from exc

    def _recv(self, index: int):
        try:
            kind, payload = self._conns[index].recv()
        except (EOFError, OSError) as exc:
            raise _WorkerDied(index) from exc
        if kind == "error":
            raise SimulationError(
                f"shard worker {index} failed:\n{payload}"
            )
        return payload

    def worker_pids(self) -> List[int]:
        """PIDs of the live shard workers (for fault-injection tests)."""
        return [process.pid for process in self._procs]

    def close(self) -> None:
        """Stop and reap every worker (idempotent)."""
        for index, conn in enumerate(self._conns):
            try:
                conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for process in self._procs:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=2.0)
        self._procs = []
        self._conns = []

    def fabric_segment_names(self) -> List[str]:
        """Always ``[]``: the engine creates no shared-memory segment.

        Kept because ``perfbench/workloads.py`` still calls it.
        """
        return []

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            if self._procs:
                self.close()
        except Exception:  # noqa: BLE001
            pass

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Fork the workers and start every shard.

        Idempotent: :meth:`step_round`, :meth:`snapshot` and :meth:`run`
        call it too, so an explicit ``setup()`` only moves the fork
        earlier.
        """
        if self._started:
            return
        self._started = True
        self._spawn_processes()
        if self.profile and self._comms_profiler is None:
            self._comms_profiler = RoundProfiler(SHARD_COORD_STAGES)
        if self._restore_docs is not None:
            for index, document in enumerate(self._restore_docs):
                self._send(index, ("restore", {
                    "document": document, "profile": self.profile,
                }))
        elif self._adopt_rows is not None:
            for index in range(self.shards):
                self._send(index, ("adopt", {
                    "config": self._adopt_config(index),
                    "faults": self.fault_plan,
                    "profile": self.profile,
                    "rows": self._adopt_rows[index],
                    "rounds": self._rounds,
                    "next_round_time": self._next_round_time,
                }))
        else:
            id_start = 0
            for index in range(self.shards):
                shard_config = self._shard_config(index)
                self._send(index, ("init", {
                    "config": shard_config,
                    "faults": self.fault_plan,
                    "profile": self.profile,
                    "id_start": id_start,
                }))
                id_start += (
                    shard_config.num_seeds
                    + shard_config.initial_leechers
                    + shard_config.flash_size
                )
            self._global_next_id = id_start
            if (
                self.config.arrival_process == "poisson"
                and self.config.arrival_rate > 0
            ):
                self._next_arrival = float(
                    self._tracker_rng.exponential(
                        1.0 / self.config.arrival_rate
                    )
                )
                if self._next_arrival > self.config.max_time:
                    self._next_arrival = None
            self.metrics.set_expected_rounds(
                int(self.config.max_time / self.config.piece_time)
            )
        for index in range(self.shards):
            summary = self._recv(index)
            if self._shard_state[index] is None:
                self._shard_state[index] = summary
        self._adopt_rows = None

    # ------------------------------------------------------------------
    # The lockstep round cycle
    # ------------------------------------------------------------------
    def _global_population(self) -> int:
        total = 0
        for state in self._shard_state:
            total += state["n_leech"] + state["n_seeds"]
        for rows in self._pending_rows:
            if rows is not None:
                total += int(rows["peer_id"].size)
        return total

    def _global_counts(self) -> np.ndarray:
        counts = np.zeros(self.config.num_pieces, dtype=np.int64)
        for state in self._shard_state:
            counts += state["piece_counts"]
        return counts

    def _advance_cycle(self) -> bool:
        """One coordinated round across every shard.

        RNG discipline: every coordinator draw happens in the
        message-build phase, in fixed order (arrival times, arrival
        shard assignment, per-shard emigrant quotas ascending, then
        emigrant destinations in source-shard order next cycle).
        Coordinator state other than the RNG mutates only after all
        replies arrived, so a worker death never leaves a half-applied
        round: recovery restores the RNG with everything else.
        """
        config = self.config
        time = self._next_round_time
        if time > config.max_time:
            return False
        has_future_arrival = self._next_arrival is not None
        if self._global_population() == 0 and not has_future_arrival:
            return False

        # -- arrivals since the previous round, routed to shards
        arrival_times: List[List[float]] = [[] for _ in range(self.shards)]
        arrival_ids: List[List[int]] = [[] for _ in range(self.shards)]
        while self._next_arrival is not None and self._next_arrival <= time:
            shard = int(self._tracker_rng.integers(0, self.shards))
            arrival_times[shard].append(self._next_arrival)
            arrival_ids[shard].append(self._global_next_id)
            self._global_next_id += 1
            gap = float(
                self._tracker_rng.exponential(1.0 / config.arrival_rate)
            )
            self._next_arrival += gap
            if self._next_arrival > config.max_time:
                self._next_arrival = None

        # -- emigrant quotas (none on the final round: in-flight rows
        #    would have nowhere to land)
        last_round = time + config.piece_time > config.max_time
        quotas = [0] * self.shards
        if self.shards > 1 and self.shard_mix > 0.0 and not last_round:
            for index in range(self.shards):
                state = self._shard_state[index]
                population = state["n_leech"] + state["n_seeds"]
                if population > 0:
                    quotas[index] = int(
                        self._tracker_rng.binomial(population, self.shard_mix)
                    )

        prof = self._comms_profiler
        if prof is not None:
            prof.begin_round()
        counts = self._global_counts()
        # Delivered once per shard: each worker receives the full array.
        self._bytes_broadcast += self.shards * counts.nbytes
        for index in range(self.shards):
            arrivals = None
            if arrival_times[index]:
                arrivals = (
                    np.asarray(arrival_times[index], dtype=np.float64),
                    np.asarray(arrival_ids[index], dtype=np.int64),
                )
            pending = self._pending_rows[index]
            self._bytes_migrated += _rows_nbytes(pending)
            self._send(index, ("step", {
                "counts": counts,
                "immigrants": pending,
                "arrivals": arrivals,
                "emigrate": quotas[index],
            }))
        if prof is not None:
            prof.lap("comms")
        wait_start = _time.perf_counter()
        reports = [self._recv(index) for index in range(self.shards)]
        if prof is not None:
            # The barrier wait minus the slowest worker's compute is
            # transport overhead; the compute itself is the shards' work.
            waited = _time.perf_counter() - wait_start
            busy = max(report["busy"] for report in reports)
            prof.charge("comms", max(waited - busy, 0.0))
            prof.mark()

        # -- all replies in hand: commit the round
        self._pending_rows = [None] * self.shards
        outbound: List[List[dict]] = [[] for _ in range(self.shards)]
        for index, report in enumerate(reports):
            del report["busy"]
            emigrants = report.pop("emigrants")
            self._bytes_migrated += _rows_nbytes(emigrants)
            self._shard_state[index] = report
            if emigrants is not None and self.shards > 1:
                destinations = self._tracker_rng.integers(
                    0, self.shards - 1, size=emigrants["peer_id"].size
                )
                destinations[destinations >= index] += 1
                for target in range(self.shards):
                    part = _select_rows(emigrants, destinations == target)
                    if part is not None:
                        outbound[target].append(part)
        for target in range(self.shards):
            self._pending_rows[target] = _concat_rows(outbound[target])
        if prof is not None:
            prof.lap("comms")

        n_leech = sum(report["n_leech"] for report in reports)
        n_seeds = sum(report["n_seeds"] for report in reports)
        for report in reports:
            if report["completed"] is not None:
                self.metrics.record_completions(
                    report["time"], **report["completed"]
                )
            for abort_time, pieces in report["aborted"]:
                self.metrics.record_abort(abort_time, pieces)
        conn_parts = [
            report["conn_counts"] for report in reports
            if report["conn_counts"] is not None
        ]
        conn_counts = np.concatenate(conn_parts) if conn_parts else None
        self.metrics.record_round(
            time,
            n_leech,
            n_seeds,
            degrees=self._global_counts(),
            conn_counts=conn_counts,
        )
        if prof is not None:
            prof.lap("bookkeeping")

        self._rounds += 1
        self._next_round_time = time + config.piece_time
        self._maybe_checkpoint()
        return True

    def step_round(self) -> bool:
        """Advance one coordinated round; ``False`` when the run ended."""
        self.setup()
        while True:
            try:
                return self._advance_cycle()
            except _WorkerDied:
                self._recover()

    # ------------------------------------------------------------------
    # Crash recovery (the PR-2 machinery, shard-shaped)
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Roll every shard back to the last coordinated snapshot.

        All workers are torn down — shards advance in lockstep, so a
        single dead worker leaves the others one message ahead of any
        recoverable cut.  Replay from the snapshot (or from round 0
        when checkpointing is off) is deterministic, so the finished
        run is fingerprint-identical to an uninterrupted one.
        """
        self.worker_restarts += 1
        if self.worker_restarts > self.max_worker_restarts:
            raise SimulationError(
                f"a shard worker died and the restart budget "
                f"({self.max_worker_restarts}) is exhausted"
            )
        self.close()
        if self._last_document is not None:
            self._load_coordinator_block(self._last_document)
            self._restore_docs = list(self._last_document["shard_docs"])
            self._adopt_rows = None
        else:
            checkpoints = self.checkpoints_written
            self._init_coordinator_state()
            self.checkpoints_written = checkpoints
            self._restore_docs = None
            self._adopt_rows = None
            metrics = self.metrics
            metrics.mirror(MetricsCollector(
                metrics.max_conns,
                entropy_every=metrics.entropy_every,
                occupancy_warmup=metrics.occupancy_warmup,
            ))
        self._started = False
        self.setup()

    def _load_coordinator_block(self, document: dict) -> None:
        """Reset coordinator state from a sharded snapshot document."""
        from repro.checkpoint.schema import _restore_metrics

        coord = document["coordinator"]
        self._generation = int(coord["generation"])
        self._tracker_rng = np.random.default_rng(0)
        self._tracker_rng.bit_generator.state = coord["rng"]
        self._rounds = int(coord["rounds"])
        self._next_round_time = float(coord["next_round_time"])
        self._global_next_id = int(coord["global_next_id"])
        self._next_arrival = (
            None if coord["next_arrival"] is None
            else float(coord["next_arrival"])
        )
        words = words_for(self.config.num_pieces)
        # In-flight migrant batches: slices of a store block, so the
        # same column check applies; copies, so the document can go.
        self._pending_rows = [
            None if rows is None else {
                name: column.copy() for name, column in
                peer_rows(rows, len(rows["peer_id"]), words).items()
            }
            for rows in coord["pending_rows"]
        ]
        self._shard_state = [
            _shard_record(
                int(state["n_leech"]),
                int(state["n_seeds"]),
                np.asarray(state["piece_counts"], dtype=np.int64),
                tuple(int(v) for v in state["stats"]),
                int(state["seed_uploads"]),
            )
            for state in coord["shard_state"]
        ]
        self._carried = {
            key: int(value) for key, value in coord["carried"].items()
        }
        self._carried_faults = (
            None if coord["carried_faults"] is None
            else _fault_stats_from_dict(coord["carried_faults"])
        )
        self.metrics.mirror(_restore_metrics(coord["metrics"]))

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Coordinated snapshot: coordinator block + one doc per shard."""
        from repro.checkpoint.schema import (
            SCHEMA_VERSION,
            _sanitize_rng_state,
            _snapshot_metrics,
        )

        self.setup()
        for index in range(self.shards):
            self._send(index, ("snapshot", None))
        shard_docs = [self._recv(index) for index in range(self.shards)]
        return {
            "schema_version": SCHEMA_VERSION,
            "backend": "sharded",
            "shards": self.shards,
            "config": self.config.to_dict(),
            "faults_plan": (
                None if self.fault_plan is None
                else self.fault_plan.to_dict()
            ),
            "coordinator": {
                "generation": self._generation,
                "rng": _sanitize_rng_state(
                    self._tracker_rng.bit_generator.state
                ),
                "rounds": self._rounds,
                "next_round_time": self._next_round_time,
                "global_next_id": self._global_next_id,
                "next_arrival": self._next_arrival,
                "pending_rows": [
                    None if rows is None else {
                        name: column.copy() for name, column in rows.items()
                    }
                    for rows in self._pending_rows
                ],
                "shard_state": [
                    {
                        "n_leech": state["n_leech"],
                        "n_seeds": state["n_seeds"],
                        "piece_counts": [
                            int(c) for c in state["piece_counts"]
                        ],
                        "stats": [int(v) for v in state["stats"]],
                        "seed_uploads": int(state["seed_uploads"]),
                    }
                    for state in self._shard_state
                ],
                "carried": dict(self._carried),
                "carried_faults": (
                    None if self._carried_faults is None
                    else self._carried_faults.to_dict()
                ),
                "metrics": _snapshot_metrics(self.metrics),
            },
            "shard_docs": shard_docs,
        }

    def write_checkpoint(self, path: Optional[str] = None) -> dict:
        """Write a coordinated snapshot; worker recovery rolls back to it."""
        self._last_document = super().write_checkpoint(path)
        return self._last_document

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self) -> SwarmResult:
        """Run to the horizon; returns the aggregated result bundle."""
        if self._finished:
            raise SimulationError("run() called twice")
        start = _time.perf_counter()
        self.setup()
        try:
            while self.step_round():
                pass
            result = self._finalize(start)
        finally:
            self.close()
        self._finished = True
        return result

    def _finalize(self, start: float) -> SwarmResult:
        for index in range(self.shards):
            self._send(index, ("final", None))
        finals = [self._recv(index) for index in range(self.shards)]

        stats = ConnectionStats()
        stats.survived = self._carried["survived"]
        stats.dropped = self._carried["dropped"]
        stats.attempts = self._carried["attempts"]
        stats.formed = self._carried["formed"]
        seed_uploads = self._carried["seed_uploads"]
        events = self._carried["events"]
        n_leech = 0
        n_seeds = 0
        for state in self._shard_state:
            survived, dropped, attempts, formed = state["stats"]
            stats.survived += survived
            stats.dropped += dropped
            stats.attempts += attempts
            stats.formed += formed
            seed_uploads += state["seed_uploads"]
            n_leech += state["n_leech"]
            n_seeds += state["n_seeds"]
        fault_stats = None
        if self.fault_plan is not None:
            fault_stats = FaultStats()
            if self._carried_faults is not None:
                fault_stats.merge(self._carried_faults)
            for final in finals:
                if final["fault_stats"] is not None:
                    fault_stats.merge(final["fault_stats"])
        profiles = {}
        aggregate: Dict[str, float] = {}
        for index, final in enumerate(finals):
            events += final["events"]
            if final["profile"] is not None:
                profiles[f"shard{index}"] = dict(final["profile"])
                for stage, seconds in final["profile"].items():
                    aggregate[stage] = aggregate.get(stage, 0.0) + seconds
        if self._comms_profiler is not None:
            coord_profile = self._comms_profiler.as_dict()
            profiles["coordinator"] = dict(coord_profile)
            for stage, seconds in coord_profile.items():
                aggregate[stage] = aggregate.get(stage, 0.0) + seconds
        comms = {
            "bytes_broadcast": self._bytes_broadcast,
            "bytes_migrated": self._bytes_migrated,
            "bytes_per_round": (
                (self._bytes_broadcast + self._bytes_migrated)
                / max(self._rounds, 1)
            ),
        }
        self.shard_profiles = profiles or None
        return self._result(
            start,
            instrumented=[],
            final_leechers=n_leech,
            final_seeds=n_seeds,
            connection_stats=stats,
            seed_upload_count=seed_uploads,
            events_processed=events,
            fault_stats=fault_stats,
            round_profile=aggregate or None,
            shard_profiles=self.shard_profiles,
            comms=comms,
        )


# ----------------------------------------------------------------------
# Restore / repartition
# ----------------------------------------------------------------------
def _fault_stats_from_dict(doc: dict) -> FaultStats:
    return FaultStats(**{
        key: int(value) for key, value in doc.items() if key != "total"
    })


def restore_sharded_swarm(
    document: dict,
    *,
    shards: Optional[int] = None,
    **swarm_kwargs,
):
    """Rebuild a sharded swarm from a coordinated snapshot.

    ``shards`` resumes at a *different* worker count (elastic
    re-sharding): peer rows from every shard document (plus in-flight
    migrants) are repartitioned by ``peer_id % shards``, relations are
    severed (every peer re-announces), and cumulative shard statistics
    fold into the coordinator's carried totals.  Same-count resume is
    exact and fingerprint-preserving; a repartitioned resume is a new
    (deterministic) trajectory.

    A soa document — what ``shards=1`` writes — restores as the soa
    engine itself, or at ``shards >= 2`` is lifted into a one-shard
    coordinated document and repartitioned.
    """
    from repro.checkpoint.schema import _restore_soa_swarm

    if document.get("backend") == "soa":
        if shards is None or int(shards) == 1:
            return _restore_soa_swarm(document, **swarm_kwargs)
        document = _sharded_document_from_soa(document)

    config = SimConfig.from_dict(document["config"])
    doc_shards = int(document["shards"])
    target = doc_shards if shards is None else int(shards)
    if target < 1:
        raise CheckpointError(f"shards must be >= 1, got {target}")
    plan = (
        None if document.get("faults_plan") is None
        else FaultPlan.from_dict(document["faults_plan"])
    )
    # Shard documents restore inside the workers; check their store
    # blocks here so a damaged one fails now, as a CheckpointError.
    for shard_doc in document["shard_docs"]:
        PeerStore.check_block(shard_doc["store"], config)
    if target == doc_shards:
        swarm = ShardedSwarm(
            config, shards=target, faults=plan, **swarm_kwargs,
        )
        swarm._load_coordinator_block(document)
        swarm._restore_docs = list(document["shard_docs"])
        swarm.resumed_from_round = swarm._rounds
        return swarm
    return _repartition(document, config, plan, target, swarm_kwargs)


def _sharded_document_from_soa(document: dict) -> dict:
    """Lift a soa snapshot into a one-shard coordinated document.

    The soa engine's RNG becomes the coordinator's tracker stream and
    its queued arrival (if any) the coordinator's next arrival.
    """
    sw = document["swarm"]
    stats = sw["connection_stats"]
    faults = document["faults"]
    arrivals = [
        time for time, _seq, kind, _payload in document["engine"]["queue"]
        if kind == "arrival"
    ]
    piece_time = SimConfig.from_dict(document["config"]).piece_time
    return {
        "schema_version": document["schema_version"],
        "backend": "sharded",
        "shards": 1,
        "config": document["config"],
        "faults_plan": None if faults is None else faults["plan"],
        "coordinator": {
            "generation": 0,
            "rng": sw["rng"],
            "rounds": int(sw["rounds"]),
            "next_round_time": (int(sw["rounds"]) + 1) * piece_time,
            "global_next_id": int(sw["next_id"]),
            "next_arrival": min(arrivals) if arrivals else None,
            "pending_rows": [None],
            "shard_state": [{
                "n_leech": int(sw["n_leech"]),
                "n_seeds": int(sw["n_seeds"]),
                "piece_counts": list(sw["piece_counts"]),
                "stats": [
                    stats["survived"], stats["dropped"],
                    stats["attempts"], stats["formed"],
                ],
                "seed_uploads": int(sw["seed_upload_count"]),
            }],
            "carried": {
                "survived": 0, "dropped": 0, "attempts": 0, "formed": 0,
                "seed_uploads": 0, "events": 0,
            },
            "carried_faults": None,
            "metrics": document["metrics"],
        },
        "shard_docs": [document],
    }


def _repartition(
    document: dict,
    config: SimConfig,
    plan: Optional[FaultPlan],
    target: int,
    swarm_kwargs: dict,
) -> ShardedSwarm:
    """Checkpoint -> repartition -> resume at a new shard count."""
    if target < 2:
        raise CheckpointError(
            "re-sharding to shards=1 is not supported; resume with the "
            "original shard count or >= 2 workers"
        )
    swarm = ShardedSwarm(config, shards=target, faults=plan, **swarm_kwargs)
    swarm._load_coordinator_block(document)
    swarm._generation += 1

    # Fold every old shard's cumulative counters into the carried base;
    # fresh workers restart their counters from zero.
    carried = swarm._carried
    carried_faults = swarm._carried_faults
    for state in swarm._shard_state:
        survived, dropped, attempts, formed = state["stats"]
        carried["survived"] += survived
        carried["dropped"] += dropped
        carried["attempts"] += attempts
        carried["formed"] += formed
        carried["seed_uploads"] += state["seed_uploads"]
    for shard_doc in document["shard_docs"]:
        carried["events"] += int(shard_doc["engine"]["processed"])
        faults_doc = shard_doc.get("faults")
        if faults_doc is not None and plan is not None:
            if carried_faults is None:
                carried_faults = FaultStats()
            carried_faults.merge(_fault_stats_from_dict(faults_doc["stats"]))
    swarm._carried_faults = carried_faults

    # Gather every alive peer (plus in-flight migrants) and rehash.
    words = words_for(config.num_pieces)
    parts = [
        peer_rows(doc["store"], len(doc["store"]["slots"]), words)
        for doc in document["shard_docs"]
    ]
    merged = _concat_rows(parts + swarm._pending_rows)
    adopt: List[Optional[dict]] = [None] * target
    shard_state: List[dict] = []
    for index in range(target):
        part = None
        if merged is not None:
            part = _select_rows(
                merged, (merged["peer_id"] % target) == index
            )
        adopt[index] = part
        if part is None:
            n_seeds = 0
            n_leech = 0
            counts = np.zeros(config.num_pieces, dtype=np.int64)
        else:
            n_seeds = int(part["is_seed"].sum())
            n_leech = int(part["peer_id"].size) - n_seeds
            counts = unpack_rows(
                np.ascontiguousarray(part["bits"]), config.num_pieces
            ).sum(axis=0).astype(np.int64)
        shard_state.append(
            _shard_record(n_leech, n_seeds, counts, (0, 0, 0, 0), 0)
        )
    swarm._pending_rows = [None] * target
    swarm._shard_state = shard_state
    swarm._adopt_rows = adopt
    swarm.resumed_from_round = swarm._rounds
    return swarm
