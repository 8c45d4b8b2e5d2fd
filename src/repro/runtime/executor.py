"""The parallel experiment executor.

:class:`ExperimentExecutor` fans independent tasks — model
replications, simulator runs, sweep points — out over a
``concurrent.futures`` process pool, and collapses to a deterministic
in-process loop for ``workers=1``.  Three invariants make parallel and
serial runs bit-identical:

1. every task carries its own seed, derived from the experiment's root
   seed with :func:`repro.runtime.seeding.derive_seed` — no task reads
   a shared random stream;
2. results are collected *in task order*, never completion order, so
   downstream floating-point reductions see the same operand order;
3. tasks are pure functions of their arguments (module-level callables
   with picklable payloads).

Each task additionally reports the kernel-cache counter delta it caused
in its worker process; the executor folds those deltas — plus wall time
and task counts — into a :class:`~repro.runtime.telemetry.Telemetry`
record that experiment results expose as ``result.timing``.

Crash recovery
--------------

With ``max_attempts > 1`` the executor retries failed tasks with
exponential backoff.  A retry is deterministic: when the task declares
where its seed lives (``TaskSpec.seed_index``), attempt ``a`` re-derives
it as ``derive_seed(original_seed, _ATTEMPT_SALT, a)``, so the retry
explores a fresh — but reproducible — random stream, and ``workers=1``
and ``workers=4`` agree on the final results even through failures.

A *crashed* worker (segfault, OOM kill, ``os._exit``) breaks the whole
``ProcessPoolExecutor``; the executor cannot tell the culprit task from
collateral victims, so it rebuilds the pool and re-runs every affected
task in an isolation round (one single-worker pool per task, attempt
count unchanged).  In isolation the crasher can only take itself down,
its failure is attributed correctly, and innocent tasks keep their
attempt budget — which is what keeps parallel results identical to
serial ones.

With ``on_error="partial"`` a task that exhausts its attempts yields
``None`` in the result list instead of aborting the whole run; the
failure is recorded as a :class:`~repro.runtime.telemetry.TaskFailure`
in the telemetry, so experiments can complete on partial results with
exact failure accounting.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import os
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ParameterError
from repro.runtime.cache import shared_cache
from repro.runtime.seeding import derive_seed
from repro.runtime.telemetry import TaskFailure, Telemetry

__all__ = ["TaskSpec", "ExperimentExecutor"]

#: Path component separating retry streams from first-attempt streams
#: (and from every sibling task path derived off the same root seed).
_ATTEMPT_SALT = 0x7E7237


@dataclass(frozen=True)
class TaskSpec:
    """One unit of work for the executor.

    Attributes:
        fn: a *module-level* callable (workers unpickle it by reference).
        args / kwargs: picklable payload passed through verbatim; any
            per-task seed belongs in here, pre-derived via
            :func:`~repro.runtime.seeding.derive_seed`.
        seed_index: optional position in ``args`` holding the task's
            seed.  Declaring it opts the task into deterministic
            retry-with-reseed: attempt ``a > 1`` replaces the seed with
            ``derive_seed(seed, _ATTEMPT_SALT, a)``.  Tasks without a
            ``seed_index`` are retried with identical arguments.
        checkpoint_interval: rounds between snapshots for checkpointable
            tasks (0 = not checkpointable).  When the executor has a
            ``checkpoint_dir``, such tasks receive ``checkpoint_path``
            and ``checkpoint_every`` keyword arguments, and retried
            attempts keep their *original* seed: a retry resumes the
            interrupted trajectory from its latest snapshot, so a fresh
            attempt stream would fork it (see ``docs/CHECKPOINT.md``).
        checkpoint_key: stable name for this task's checkpoint file;
            defaults to ``b{batch}-t{index}``, which is reproducible
            across process relaunches as long as the runner submits the
            same batches in the same order.
    """

    fn: Callable
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    seed_index: Optional[int] = None
    checkpoint_interval: int = 0
    checkpoint_key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.seed_index is not None and not (
            0 <= self.seed_index < len(self.args)
        ):
            raise ParameterError(
                f"seed_index {self.seed_index} out of range for "
                f"{len(self.args)} positional argument(s)"
            )
        if self.checkpoint_interval < 0:
            raise ParameterError(
                f"checkpoint_interval must be >= 0, "
                f"got {self.checkpoint_interval}"
            )

    def for_attempt(self, attempt: int) -> "TaskSpec":
        """The spec to execute on the given 1-based attempt.

        Checkpointable tasks are exempt from retry-reseed: their retry
        resumes the original stream from the latest snapshot, and the
        zero-extra-draws guarantee of the resume path is what the
        seed-accounting regression tests pin down.
        """
        if (
            attempt <= 1
            or self.seed_index is None
            or self.checkpoint_interval > 0
        ):
            return self
        args = list(self.args)
        args[self.seed_index] = derive_seed(
            int(args[self.seed_index]), _ATTEMPT_SALT, attempt
        )
        return TaskSpec(self.fn, tuple(args), dict(self.kwargs),
                        seed_index=self.seed_index)


def _execute_task(task: TaskSpec) -> tuple:
    """Run one task and measure the kernel-cache traffic it caused.

    Runs in the worker process (or inline for ``workers=1``).  Returns
    ``(result, stats_delta)``; the :class:`~repro.runtime.cache.CacheStats`
    delta makes the counters (kernel lookups *and* sparse-operator
    compilations) exact even though forked workers inherit the parent's
    totals.
    """
    before = shared_cache().stats()
    result = task.fn(*task.args, **task.kwargs)
    after = shared_cache().stats()
    return result, after.delta(before)


def _process_pool(workers: int) -> concurrent.futures.ProcessPoolExecutor:
    """A pool of ``workers`` forked processes.

    The start method is explicit, not the platform default: the
    cache-stat deltas a task reports assume its worker inherited the
    parent's cache totals, which only ``fork`` gives.  A platform
    without ``fork`` gets a :class:`~repro.errors.ParameterError`.
    """
    # Imported here: ``import repro`` loads this module, and only a
    # pool needs multiprocessing.
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        raise ParameterError(
            "the executor forks its worker processes, and this platform "
            "has no 'fork' start method; run with workers=1 instead"
        )
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("fork")
    )


class ExperimentExecutor:
    """Deterministic fan-out of experiment tasks over worker processes.

    Args:
        workers: process-pool size.  ``1`` (the default) executes tasks
            inline in submission order — no pool, no pickling — and is
            the reference behaviour parallel runs must reproduce
            bit-for-bit.  ``None`` or ``0`` selects ``os.cpu_count()``.
        max_attempts: attempts per task (1 = no retries, the default).
        retry_backoff: base sleep before a retry; attempt ``a`` waits
            ``retry_backoff * 2**(a - 2)`` seconds (0 disables).
        on_error: ``"raise"`` (default) propagates the final failure of
            any task; ``"partial"`` records it and yields ``None`` for
            that slot, letting the run complete on partial results.
        checkpoint_dir: directory for task checkpoints.  Tasks with a
            ``checkpoint_interval`` get ``checkpoint_path`` /
            ``checkpoint_every`` keyword arguments injected; an attempt
            that finds an existing snapshot resumes it (counted in
            ``telemetry.resumes``) instead of recomputing finished
            rounds — including attempts dispatched by a relaunched
            process after the previous one was killed outright.

    The executor is reusable: successive :meth:`run` calls accumulate
    into :attr:`telemetry`, so a runner that fans out model replications
    and then simulator sweeps reports one combined record.

    Example:
        >>> from repro.runtime import ExperimentExecutor, TaskSpec
        >>> executor = ExperimentExecutor(workers=1)
        >>> executor.run([TaskSpec(divmod, (7, 3))])
        [(2, 1)]
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        *,
        max_attempts: int = 1,
        retry_backoff: float = 0.0,
        on_error: str = "raise",
        checkpoint_dir: Optional[str] = None,
    ):
        if workers is None or workers == 0:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ParameterError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if retry_backoff < 0:
            raise ParameterError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        if on_error not in ("raise", "partial"):
            raise ParameterError(
                f"on_error must be 'raise' or 'partial', got {on_error!r}"
            )
        self.workers = workers
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self.on_error = on_error
        self.checkpoint_dir = checkpoint_dir
        self.telemetry = Telemetry(workers=workers)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[TaskSpec]) -> List[Any]:
        """Execute ``tasks``; results in task order (``None`` = abandoned).

        Raises the final error of the first (lowest-index) exhausted
        task under ``on_error="raise"``; under ``"partial"`` abandoned
        slots come back as ``None`` with a
        :class:`~repro.runtime.telemetry.TaskFailure` in the telemetry.
        """
        tasks = list(tasks)
        start = time.perf_counter()
        outcomes: List[Optional[tuple]] = [None] * len(tasks)
        batch = Telemetry(workers=self.workers, batches=1)
        tasks = self._prepare_checkpoints(tasks, batch)
        try:
            if self.workers == 1 or len(tasks) <= 1:
                self._run_serial(tasks, outcomes, batch)
            elif self.max_attempts == 1 and self.on_error == "raise":
                # Fast path: chunked pool.map amortises IPC for large
                # replication fans (collection order stays task order).
                chunksize = max(1, len(tasks) // (self.workers * 4))
                with _process_pool(min(self.workers, len(tasks))) as pool:
                    outcomes[:] = pool.map(
                        _execute_task, tasks, chunksize=chunksize
                    )
            else:
                self._run_resilient(tasks, outcomes, batch)
        finally:
            batch.wall_time = time.perf_counter() - start
            batch.tasks = len(tasks)
            self.telemetry.merge(batch)

        results = []
        hits = misses = sparse_hits = sparse_misses = evictions = 0
        for outcome in outcomes:
            if outcome is None:
                results.append(None)
                continue
            result, delta = outcome
            results.append(result)
            hits += delta.hits
            misses += delta.misses
            sparse_hits += delta.sparse_hits
            sparse_misses += delta.sparse_misses
            evictions += delta.evictions
        self.telemetry.cache_hits += hits
        self.telemetry.cache_misses += misses
        self.telemetry.sparse_cache_hits += sparse_hits
        self.telemetry.sparse_cache_misses += sparse_misses
        self.telemetry.cache_evictions += evictions
        return results

    # -- checkpoint wiring -----------------------------------------------
    def _prepare_checkpoints(
        self, tasks: List[TaskSpec], batch: Telemetry
    ) -> List[TaskSpec]:
        """Inject checkpoint kwargs into checkpointable tasks.

        Filenames are derived from ``(batch number, task index)`` unless
        the task names its own key, so a relaunched process that submits
        the same batches derives the same paths — that is the whole
        resume-after-SIGKILL story.  Tasks whose snapshot already exists
        at submission are counted as resumes up front (their very first
        attempt will pick the snapshot up).
        """
        if self.checkpoint_dir is None or not any(
            task.checkpoint_interval > 0 for task in tasks
        ):
            return tasks
        from repro.checkpoint.store import CheckpointStore

        store = CheckpointStore(self.checkpoint_dir)
        batch_id = self.telemetry.batches  # batches completed so far
        prepared: List[TaskSpec] = []
        for index, task in enumerate(tasks):
            if task.checkpoint_interval <= 0:
                prepared.append(task)
                continue
            key = task.checkpoint_key or f"b{batch_id}-t{index}"
            path = store.path_for(key)
            if path.is_file():
                batch.resumes += 1
            kwargs = dict(task.kwargs)
            kwargs["checkpoint_path"] = str(path)
            kwargs["checkpoint_every"] = task.checkpoint_interval
            prepared.append(
                TaskSpec(
                    task.fn,
                    task.args,
                    kwargs,
                    seed_index=task.seed_index,
                    checkpoint_interval=task.checkpoint_interval,
                    checkpoint_key=key,
                )
            )
        return prepared

    def _note_retry_resume(self, task: TaskSpec, batch: Telemetry) -> None:
        """Count a retry that will resume from an existing snapshot."""
        if task.checkpoint_interval <= 0:
            return
        path = task.kwargs.get("checkpoint_path")
        if path and os.path.isfile(path):
            batch.resumes += 1

    # -- serial reference ------------------------------------------------
    def _run_serial(
        self,
        tasks: List[TaskSpec],
        outcomes: List[Optional[tuple]],
        batch: Telemetry,
    ) -> None:
        """In-process loop with inline retries (the reference semantics).

        Only raised exceptions are survivable here: a task that kills
        its process kills the run (there is no worker to sacrifice).
        Use ``workers > 1`` for hard-crash isolation.
        """
        for index, task in enumerate(tasks):
            for attempt in range(1, self.max_attempts + 1):
                try:
                    if attempt > 1:
                        self._note_retry_resume(task, batch)
                    outcomes[index] = _execute_task(task.for_attempt(attempt))
                    break
                except Exception as exc:
                    batch.task_failures += 1
                    if attempt < self.max_attempts:
                        batch.retries += 1
                        self._backoff(attempt + 1)
                        continue
                    self._abandon(batch, index, attempt, exc, task)

    # -- resilient pooled mode -------------------------------------------
    def _run_resilient(
        self,
        tasks: List[TaskSpec],
        outcomes: List[Optional[tuple]],
        batch: Telemetry,
    ) -> None:
        """Pooled execution that survives raised errors *and* dead workers.

        Rounds of per-task futures; a round whose pool broke (a worker
        died) re-runs its unresolved tasks in *isolation* — one
        single-worker pool each — so the crasher is identified and
        charged an attempt while collateral tasks keep their budget.
        """
        pending: List[Tuple[int, int]] = [(i, 1) for i in range(len(tasks))]
        isolate = False
        round_number = 1
        while pending:
            retry: List[Tuple[int, int]] = []
            if round_number > 1:
                self._backoff(round_number)
            if isolate:
                for index, attempt in pending:
                    if attempt > 1:
                        self._note_retry_resume(tasks[index], batch)
                    spec = tasks[index].for_attempt(attempt)
                    solo = _process_pool(1)
                    try:
                        with solo:
                            outcomes[index] = solo.submit(
                                _execute_task, spec
                            ).result()
                    except Exception as exc:
                        self._attempt_failed(
                            batch, index, attempt, exc, tasks[index], retry
                        )
                isolate = False
            else:
                pool = _process_pool(min(self.workers, len(pending)))
                for i, a in pending:
                    if a > 1:
                        self._note_retry_resume(tasks[i], batch)
                futures = [
                    (i, a, pool.submit(_execute_task, tasks[i].for_attempt(a)))
                    for i, a in pending
                ]
                broken: List[Tuple[int, int]] = []
                for index, attempt, future in futures:
                    try:
                        outcomes[index] = future.result()
                    except BrokenExecutor:
                        # Collateral or culprit — indistinguishable from
                        # here; settle it in an isolation round without
                        # charging anyone an attempt yet.
                        broken.append((index, attempt))
                    except Exception as exc:
                        self._attempt_failed(
                            batch, index, attempt, exc, tasks[index], retry
                        )
                pool.shutdown(wait=False)
                if broken:
                    retry = broken + retry
                    isolate = True
            pending = sorted(retry)
            round_number += 1

    # -- failure bookkeeping ---------------------------------------------
    def _attempt_failed(
        self,
        batch: Telemetry,
        index: int,
        attempt: int,
        exc: Exception,
        task: TaskSpec,
        retry: List[Tuple[int, int]],
    ) -> None:
        batch.task_failures += 1
        if attempt < self.max_attempts:
            batch.retries += 1
            retry.append((index, attempt + 1))
        else:
            self._abandon(batch, index, attempt, exc, task)

    def _abandon(
        self,
        batch: Telemetry,
        index: int,
        attempt: int,
        exc: Exception,
        task: TaskSpec,
    ) -> None:
        batch.tasks_failed += 1
        batch.failure_log.append(
            TaskFailure(
                index=index,
                attempts=attempt,
                error=f"{type(exc).__name__}: {exc}",
                fn=getattr(task.fn, "__name__", repr(task.fn)),
            )
        )
        if self.on_error == "raise":
            raise exc

    def _backoff(self, attempt: int) -> None:
        if self.retry_backoff > 0:
            time.sleep(self.retry_backoff * 2 ** min(attempt - 2, 10))

    def map(
        self, fn: Callable, payloads: Sequence[tuple], **common_kwargs: Any
    ) -> List[Any]:
        """Sugar: run ``fn(*payload, **common_kwargs)`` per payload."""
        return self.run(
            [TaskSpec(fn, tuple(payload), dict(common_kwargs)) for payload in payloads]
        )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def record_events(self, count: int) -> None:
        """Credit ``count`` processed events (trajectories, sim events)."""
        self.telemetry.events += int(count)

    @contextlib.contextmanager
    def tracked(self) -> Iterator[None]:
        """Fold parent-process work into the telemetry.

        Wrap runner code that computes *outside* the task fan (e.g. the
        model curve of Figure 3/4(a)) so its wall time and kernel-cache
        traffic still appear in ``result.timing``.
        """
        before = shared_cache().stats()
        start = time.perf_counter()
        try:
            yield
        finally:
            delta = shared_cache().stats().delta(before)
            self.telemetry.merge(
                Telemetry(
                    wall_time=time.perf_counter() - start,
                    workers=self.workers,
                    cache_hits=delta.hits,
                    cache_misses=delta.misses,
                    sparse_cache_hits=delta.sparse_hits,
                    sparse_cache_misses=delta.sparse_misses,
                    cache_evictions=delta.evictions,
                )
            )
