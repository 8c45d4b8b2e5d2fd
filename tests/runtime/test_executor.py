"""Tests for the parallel executor (`repro.runtime.executor`).

The heart of the runtime contract: a run with ``workers=N`` must be
*bit-identical* to the serial ``workers=1`` reference, for experiment
results and for raw task fans alike.
"""

import concurrent.futures
import multiprocessing
import os

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.runtime.executor import ExperimentExecutor, TaskSpec
from repro.runtime.seeding import derive_seed
from repro.runtime.tasks import solve_task


def _model_params(ns_size=10):
    from repro.core.parameters import ModelParameters

    return ModelParameters(
        num_pieces=25, max_conns=4, ns_size=ns_size, alpha=0.2, gamma=0.2
    )


def _ratio_tasks(root_seed=0, runs=6):
    params = _model_params()
    return [
        TaskSpec(
            solve_task,
            (params, "potential_ratio", "batch"),
            {"runs": 4, "seed": derive_seed(root_seed, 0, run)},
        )
        for run in range(runs)
    ]


class TestExperimentExecutor:
    def test_workers_validation(self):
        with pytest.raises(ParameterError):
            ExperimentExecutor(workers=-2)

    def test_zero_means_all_cores(self):
        import os

        executor = ExperimentExecutor(workers=0)
        assert executor.workers == (os.cpu_count() or 1)

    def test_results_in_task_order(self):
        executor = ExperimentExecutor(workers=1)
        results = executor.run([TaskSpec(divmod, (n, 3)) for n in range(8)])
        assert results == [divmod(n, 3) for n in range(8)]

    def test_parallel_matches_serial_on_task_fan(self):
        serial = ExperimentExecutor(workers=1).run(_ratio_tasks())
        parallel = ExperimentExecutor(workers=4).run(_ratio_tasks())
        assert len(serial) == len(parallel)
        for (s_payload, s_work), (p_payload, p_work) in zip(serial, parallel):
            assert np.array_equal(s_payload.ratio, p_payload.ratio, equal_nan=True)
            assert np.array_equal(s_payload.observations, p_payload.observations)
            assert s_work == p_work

    def test_parallel_matches_serial_on_experiment(self):
        from repro.experiments import run_fig1a

        kwargs = dict(
            pss_values=(4, 8), num_pieces=30, runs=5, seed=3, method="batch"
        )
        serial = run_fig1a(workers=1, **kwargs)
        parallel = run_fig1a(workers=4, **kwargs)
        assert np.array_equal(serial.pieces, parallel.pieces)
        for pss in kwargs["pss_values"]:
            assert np.array_equal(
                serial.ratios[pss], parallel.ratios[pss], equal_nan=True
            )

    def test_map_sugar(self):
        executor = ExperimentExecutor(workers=1)
        assert executor.map(divmod, [(7, 3), (9, 4)]) == [(2, 1), (2, 1)]

    def test_telemetry_counts_tasks_and_batches(self):
        executor = ExperimentExecutor(workers=1)
        executor.run(_ratio_tasks(runs=3))
        executor.run(_ratio_tasks(runs=2))
        assert executor.telemetry.tasks == 5
        assert executor.telemetry.batches == 2
        assert executor.telemetry.wall_time > 0

    def test_telemetry_reports_cache_hits(self):
        # 6 replications over one parameter set: 1 miss, then hits.
        from repro.runtime.cache import reset_shared_cache

        reset_shared_cache()
        executor = ExperimentExecutor(workers=1)
        executor.run(_ratio_tasks(runs=6))
        assert executor.telemetry.cache_misses == 1
        assert executor.telemetry.cache_hits == 5
        assert executor.telemetry.cache_hit_rate == pytest.approx(5 / 6)

    def test_parallel_telemetry_aggregates_worker_deltas(self):
        executor = ExperimentExecutor(workers=4)
        executor.run(_ratio_tasks(runs=6))
        lookups = executor.telemetry.cache_hits + executor.telemetry.cache_misses
        assert lookups == 6

    def test_record_events(self):
        executor = ExperimentExecutor(workers=1)
        executor.record_events(10)
        executor.record_events(5)
        assert executor.telemetry.events == 15

    def test_tracked_folds_parent_work(self):
        from repro.runtime.cache import reset_shared_cache, shared_cache

        reset_shared_cache()
        executor = ExperimentExecutor(workers=1)
        with executor.tracked():
            shared_cache().chain(_model_params())
            shared_cache().chain(_model_params())
        assert executor.telemetry.cache_misses == 1
        assert executor.telemetry.cache_hits == 1
        assert executor.telemetry.wall_time > 0


def _timeline(seed):
    payload, work = solve_task(
        _model_params(), "timeline", "batch", runs=4, seed=seed
    )
    assert work == 4
    return payload.mean_steps


class TestTasks:
    def test_first_passage_task_deterministic(self):
        assert np.array_equal(
            _timeline(derive_seed(1, 0)), _timeline(derive_seed(1, 0))
        )

    def test_distinct_seeds_give_distinct_trajectories(self):
        assert not np.array_equal(
            _timeline(derive_seed(1, 0)), _timeline(derive_seed(1, 1))
        )


# ----------------------------------------------------------------------
# The process model: every pool forks, or the run refuses.
# ----------------------------------------------------------------------
def exit_in_worker(seed):
    """Hard-kills its worker for seed 13, breaking the whole pool."""
    if seed == 13:
        os._exit(17)
    return seed


class RecordingPool(concurrent.futures.ProcessPoolExecutor):
    """A real pool that records the start method it was built with."""

    methods: list = []

    def __init__(self, *args, mp_context=None, **kwargs):
        RecordingPool.methods.append(
            None if mp_context is None else mp_context.get_start_method()
        )
        super().__init__(*args, mp_context=mp_context, **kwargs)


#: One executor per pool site: the chunked fast path, the resilient
#: round, and the single-worker isolation round after a worker death.
POOL_PATHS = {
    "fast": (
        dict(workers=2), [TaskSpec(divmod, (n, 3)) for n in range(4)]
    ),
    "resilient": (
        dict(workers=2, max_attempts=2),
        [TaskSpec(divmod, (n, 3)) for n in range(4)],
    ),
    "isolation": (
        dict(workers=2, max_attempts=2, on_error="partial"),
        [TaskSpec(exit_in_worker, (s,), seed_index=0) for s in (1, 13, 3)],
    ),
}


@pytest.mark.parametrize("path", sorted(POOL_PATHS))
def test_every_pool_forks_its_workers(monkeypatch, path):
    monkeypatch.setattr(RecordingPool, "methods", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    kwargs, tasks = POOL_PATHS[path]
    ExperimentExecutor(**kwargs).run(tasks)
    assert RecordingPool.methods and set(RecordingPool.methods) == {"fork"}
    if path == "isolation":
        # The broken round's pool, then one solo pool per unresolved task.
        assert len(RecordingPool.methods) >= 2


@pytest.mark.parametrize("path", sorted(POOL_PATHS))
def test_missing_fork_start_method_is_a_parameter_error(monkeypatch, path):
    """Each pool site refuses a platform without ``fork`` and points at
    ``workers=1``; the isolation site is reached with ``fork`` present
    for the first pool only, so its refusal is not charged to a task."""
    calls = []

    def start_methods():
        calls.append(None)
        if path == "isolation" and len(calls) == 1:
            return ["fork", "spawn", "forkserver"]
        return ["spawn", "forkserver"]

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", start_methods)
    kwargs, tasks = POOL_PATHS[path]
    with pytest.raises(ParameterError, match="workers=1"):
        ExperimentExecutor(**kwargs).run(tasks)
    assert len(calls) == (2 if path == "isolation" else 1)
    # The serial reference needs no pool and still runs.
    assert ExperimentExecutor(workers=1).run(tasks[:1]) == [
        tasks[0].fn(*tasks[0].args)
    ]
