"""Parallel experiment runtime: executor, kernel cache, telemetry, seeding.

The figure runners, the stability and seeding studies, and the paper
claim tests all execute their replications and sweep points through this
subsystem:

``repro.runtime.executor``
    :class:`ExperimentExecutor` — fans :class:`TaskSpec` work units over
    a ``concurrent.futures`` process pool, with a deterministic
    in-process fallback for ``workers=1``.  Parallel and serial runs
    are bit-identical (per-task derived seeds, task-order collection).

``repro.runtime.cache``
    :class:`KernelCache` — memoizes transition kernels and stationary
    efficiency solutions keyed on frozen parameter values, shared by
    every replication in a process.

``repro.runtime.telemetry``
    :class:`Telemetry` — wall time, task/event counts, and aggregated
    cache hit/miss counters, surfaced as ``result.timing`` and via
    ``repro-bt run --timing``.

``repro.runtime.seeding``
    :func:`derive_seed` / :class:`SeedTree` — numpy-free splittable
    seed derivation, the mechanism behind the determinism guarantee.
"""

from repro.runtime.cache import (
    CacheStats,
    KernelCache,
    reset_shared_cache,
    shared_cache,
)
from repro.runtime.executor import ExperimentExecutor, TaskSpec
from repro.runtime.seeding import SeedTree, derive_seed, seed_path
from repro.runtime.telemetry import TaskFailure, Telemetry

__all__ = [
    "CacheStats",
    "KernelCache",
    "shared_cache",
    "reset_shared_cache",
    "ExperimentExecutor",
    "TaskSpec",
    "SeedTree",
    "derive_seed",
    "seed_path",
    "TaskFailure",
    "Telemetry",
]
