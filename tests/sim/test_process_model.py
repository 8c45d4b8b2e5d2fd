"""The soa kernels' threads and the processes that fork around them.

The cell kernels run their row blocks on ``_THREADS`` threads that each
kernel call starts and joins, so no thread is alive between calls and a
process may fork at any round boundary.  A forked shard worker or
executor pool worker is one of several processes on the same cores, so
it runs its kernels on its share of them.
"""

import os
import threading

from test_fingerprint_goldens import soa_departing_config

import repro.sim.sharded as sharded_module
import repro.sim.soa as soa_module
from repro.runtime.executor import ExperimentExecutor, TaskSpec
from repro.sim.soa import share_cores, usable_cores
from repro.sim.swarm import Swarm


def test_no_thread_outlives_a_soa_round(monkeypatch):
    """Rounds whose kernels span many blocks on several threads leave
    the process with the threads it had before them."""
    monkeypatch.setattr(soa_module, "_CHUNK_CELLS", 1 << 8)
    monkeypatch.setattr(soa_module, "_THREADS", 2)
    swarm = Swarm(soa_departing_config(), backend="soa")
    swarm.setup()
    before = threading.active_count()
    for _ in range(3):
        assert swarm.step_round()
        assert threading.active_count() == before


def test_share_cores_divides_the_usable_cores(monkeypatch):
    monkeypatch.setattr(soa_module, "_THREADS", soa_module._THREADS)
    cores = usable_cores()
    for processes in (1, 2, 3, cores, 4 * cores):
        share_cores(processes)
        assert soa_module._THREADS == max(1, cores // processes)


def test_shard_workers_take_their_share_of_the_cores(monkeypatch, tmp_path):
    """Each of two forked shard workers sets its kernel threads to
    ``max(1, cores // 2)`` before it takes a command."""

    def report(shards):
        share_cores(shards)
        (tmp_path / str(os.getpid())).write_text(str(soa_module._THREADS))

    monkeypatch.setattr(sharded_module, "share_cores", report)
    config = soa_departing_config().with_changes(
        initial_leechers=400, num_seeds=4, arrival_rate=4.0, max_time=2.0
    )
    Swarm(config, backend="sharded", shards=2).run()
    reports = [int(path.read_text()) for path in tmp_path.iterdir()]
    assert reports == [max(1, usable_cores() // 2)] * 2


def kernel_threads(_index: int) -> int:
    """The soa kernel thread count of the process that runs the task."""
    return soa_module._THREADS


def test_executor_pool_workers_take_their_share_of_the_cores():
    tasks = [TaskSpec(kernel_threads, (index,)) for index in range(4)]
    results = ExperimentExecutor(workers=2).run(tasks)
    assert results == [max(1, usable_cores() // 2)] * 4


def test_inline_executor_keeps_the_parent_thread_count():
    tasks = [TaskSpec(kernel_threads, (0,)), TaskSpec(kernel_threads, (1,))]
    results = ExperimentExecutor(workers=1).run(tasks)
    assert results == [soa_module._THREADS] * 2
