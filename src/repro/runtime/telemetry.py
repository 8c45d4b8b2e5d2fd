"""Lightweight execution telemetry for the experiment runtime.

:class:`Telemetry` accumulates, per experiment run: wall-clock time,
tasks executed, events processed (trajectories sampled or simulator
events, whichever the tasks report), transition-kernel cache hit/miss
counters aggregated across every worker process, and — since the
executor grew crash recovery — per-task failure accounting: failed
attempts, retries, permanently failed tasks, and a structured
:class:`TaskFailure` record per abandoned task.  It is cheap enough to
collect unconditionally; the CLI surfaces it behind
``repro-bt run --timing``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["TaskFailure", "Telemetry"]


@dataclass(frozen=True)
class TaskFailure:
    """Record of one task the executor gave up on.

    Attributes:
        index: the task's position in the submitted batch.
        attempts: how many attempts were made before giving up.
        error: ``"ExcType: message"`` of the final failure.
        fn: name of the task callable.
    """

    index: int
    attempts: int
    error: str
    fn: str = ""

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "attempts": self.attempts,
            "error": self.error,
            "fn": self.fn,
        }


@dataclass
class Telemetry:
    """Counters for one experiment execution.

    Attributes:
        wall_time: total wall-clock seconds spent inside the executor.
        tasks: tasks executed (replications, sweep points, sim runs).
        workers: worker processes the executor was configured with.
        events: work units the tasks reported — chain trajectories for
            model tasks, processed simulator events for swarm tasks.
        cache_hits / cache_misses: kernel-cache lookups aggregated over
            all workers (hits grow with replications per parameter set).
        sparse_cache_hits / sparse_cache_misses: compiled sparse-operator
            lookups aggregated over all workers (a miss means a worker
            compiled the CSR operator from scratch).
        cache_evictions: kernel-cache entries dropped to respect the
            cache's entry/byte bounds, aggregated over all workers.
        task_failures: task attempts that raised or crashed a worker.
        retries: attempts re-submitted after a failure (on a re-derived
            attempt seed when the task declares one).
        tasks_failed: tasks abandoned after exhausting their attempts
            (> 0 only under ``on_error="partial"``).
        resumes: task attempts that picked up an existing checkpoint
            instead of computing from round zero (crashed/preempted
            work recovered, or a relaunched sweep skipping ahead).
        failure_log: one :class:`TaskFailure` per abandoned task.
        round_profile: per-stage simulator wall seconds accumulated from
            :class:`~repro.runtime.profiler.RoundProfiler` runs (empty
            unless a profiled swarm contributed).
        backend: the swarm backend that produced the simulator work
            (``"object"``, ``"soa"`` or ``"sharded"``; empty when no
            swarm ran).  Merging records from *different* backends
            joins the distinct labels with ``"+"`` (sorted), so a mixed
            sweep reports e.g. ``"object+soa"`` instead of silently
            keeping whichever label arrived first.
    """

    wall_time: float = 0.0
    tasks: int = 0
    workers: int = 1
    events: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    sparse_cache_hits: int = 0
    sparse_cache_misses: int = 0
    cache_evictions: int = 0
    task_failures: int = 0
    retries: int = 0
    tasks_failed: int = 0
    resumes: int = 0
    failure_log: List[TaskFailure] = field(default_factory=list, repr=False)
    batches: int = field(default=0, repr=False)
    round_profile: Dict[str, float] = field(default_factory=dict)
    backend: str = ""

    def merge(self, other: "Telemetry") -> "Telemetry":
        """Fold another telemetry record into this one (in place)."""
        self.wall_time += other.wall_time
        self.tasks += other.tasks
        self.workers = max(self.workers, other.workers)
        self.events += other.events
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.sparse_cache_hits += other.sparse_cache_hits
        self.sparse_cache_misses += other.sparse_cache_misses
        self.cache_evictions += other.cache_evictions
        self.task_failures += other.task_failures
        self.retries += other.retries
        self.tasks_failed += other.tasks_failed
        self.resumes += other.resumes
        self.failure_log.extend(other.failure_log)
        self.batches += other.batches
        for stage, seconds in other.round_profile.items():
            self.round_profile[stage] = (
                self.round_profile.get(stage, 0.0) + seconds
            )
        if other.backend:
            if self.backend and self.backend != other.backend:
                labels = set(self.backend.split("+"))
                labels.update(other.backend.split("+"))
                self.backend = "+".join(sorted(labels))
            else:
                self.backend = other.backend
        return self

    def add_round_profile(self, profile: Dict[str, float]) -> None:
        """Accumulate one swarm's per-stage round profile."""
        for stage, seconds in profile.items():
            self.round_profile[stage] = (
                self.round_profile.get(stage, 0.0) + seconds
            )

    @property
    def cache_hit_rate(self) -> float:
        """Hit fraction of all kernel-cache lookups (0 when none)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def tasks_per_second(self) -> float:
        return self.tasks / self.wall_time if self.wall_time > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON-ready counters."""
        return {
            "wall_time": self.wall_time,
            "tasks": self.tasks,
            "workers": self.workers,
            "events": self.events,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": self.cache_hit_rate,
            "sparse_cache_hits": self.sparse_cache_hits,
            "sparse_cache_misses": self.sparse_cache_misses,
            "cache_evictions": self.cache_evictions,
            "task_failures": self.task_failures,
            "retries": self.retries,
            "tasks_failed": self.tasks_failed,
            "resumes": self.resumes,
            "failure_log": [failure.to_dict() for failure in self.failure_log],
            "round_profile": dict(self.round_profile),
            "backend": self.backend,
        }

    def format(self) -> str:
        """Printable summary (the ``--timing`` CLI block)."""
        text = (
            f"timing: {self.wall_time:.3f}s wall, {self.tasks} task(s) on "
            f"{self.workers} worker(s) ({self.tasks_per_second:.1f} tasks/s), "
            f"{self.events} event(s); kernel cache: {self.cache_hits} hit(s) / "
            f"{self.cache_misses} miss(es) ({100.0 * self.cache_hit_rate:.0f}% hit rate)"
        )
        if self.sparse_cache_hits or self.sparse_cache_misses:
            text += (
                f"; sparse operators: {self.sparse_cache_hits} hit(s) / "
                f"{self.sparse_cache_misses} miss(es)"
            )
        if self.cache_evictions:
            text += f"; cache evictions: {self.cache_evictions}"
        if self.task_failures or self.tasks_failed:
            text += (
                f"; faults: {self.task_failures} failed attempt(s), "
                f"{self.retries} retried, {self.tasks_failed} abandoned"
            )
        if self.resumes:
            text += f"; checkpoints: {self.resumes} task(s) resumed"
        if self.backend:
            text += f"; backend: {self.backend}"
        if self.round_profile:
            total = sum(self.round_profile.values())
            stages = ", ".join(
                f"{stage} {seconds:.3f}s"
                f" ({100.0 * seconds / total if total > 0 else 0.0:.0f}%)"
                for stage, seconds in self.round_profile.items()
            )
            label = f" [{self.backend}]" if self.backend else ""
            text += f"\nround profile{label} ({total:.3f}s sim): {stages}"
        return text
