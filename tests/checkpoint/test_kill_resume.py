"""Kill-mid-sweep resume: SIGKILL, relaunch, bit-identical results.

Two kill scenarios, both ending in a diff against the serial
uninterrupted run:

* a *pool worker* is SIGKILLed after its task's first snapshot lands;
  the executor's crash recovery (PR 3) re-runs the task, which finds
  the snapshot and resumes instead of recomputing finished rounds;
* the *whole process* is SIGKILLed mid-sweep (a subprocess, so pytest
  survives); a second process relaunches the identical sweep with the
  same ``checkpoint_dir`` and must complete from the snapshots, with
  the resume counted in telemetry and every series bit-identical to a
  sweep that never died.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

from ckpt_helpers import replay_config
from repro.runtime.executor import ExperimentExecutor, TaskSpec
from repro.experiments.fig3bc import run_fig3bc
from repro.sim.swarm import Swarm, run_swarm


def kill_worker_after_first_snapshot(config, *, checkpoint_path=None,
                                     checkpoint_every=0):
    """Task for the pool: dies by SIGKILL once, resumes on re-dispatch.

    First dispatch (no snapshot on disk yet): run until the periodic
    hook writes one, then SIGKILL our own worker process — the harshest
    interruption a pool can see.  Any later dispatch finds the snapshot
    and resumes to completion.
    """
    from repro.checkpoint.store import run_swarm_with_checkpoints

    if not os.path.isfile(checkpoint_path):
        swarm = Swarm(
            config,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )
        swarm.setup()
        while swarm.checkpoints_written == 0:
            if swarm.engine.step() is None:
                break
        os.kill(os.getpid(), signal.SIGKILL)
    result = run_swarm_with_checkpoints(
        config,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
    )
    return result.fingerprint(), result.resumed_from_round


def test_sigkilled_pool_worker_resumes_from_snapshot(tmp_path):
    configs = [replay_config(seed=31), replay_config(seed=32)]
    executor = ExperimentExecutor(
        workers=2, max_attempts=2, checkpoint_dir=str(tmp_path)
    )
    outcomes = executor.run(
        [
            TaskSpec(
                kill_worker_after_first_snapshot,
                (config,),
                checkpoint_interval=4,
                checkpoint_key=f"kill-{config.seed}",
            )
            for config in configs
        ]
    )
    for config, (fingerprint, resumed_from) in zip(configs, outcomes):
        assert resumed_from is not None, "task must resume, not restart"
        assert fingerprint == run_swarm(config).fingerprint()


def _sweep_kwargs(checkpoint_dir=None):
    kwargs = dict(
        arrival_rate=4.0,
        initial_leechers=60,
        max_time=40.0,
        seed=5,
        entropy_every=4,
        workers=1,
    )
    if checkpoint_dir is not None:
        kwargs["checkpoint_dir"] = str(checkpoint_dir)
        kwargs["checkpoint_every"] = 4
    return kwargs


def test_sigkilled_sweep_process_resumes_on_relaunch(tmp_path):
    """The acceptance scenario: kill the sweep outright, relaunch, diff.

    The victim process steps the exact swarm ``run_fig3bc``
    would run (same config, same metrics, same checkpoint key) and
    SIGKILLs itself after two snapshots; the relaunch goes through the
    real sweep entry point.
    """
    ckpt = Path(tmp_path) / "stability-B3.ckpt"
    script = textwrap.dedent(
        f"""
        import os, signal
        from repro.sim.metrics import MetricsCollector
        from repro.sim.swarm import Swarm
        from repro.stability.experiments import stability_config

        config = stability_config(
            3, arrival_rate=4.0, initial_leechers=60, max_time=40.0, seed=5
        )
        swarm = Swarm(
            config,
            metrics=MetricsCollector(config.max_conns, entropy_every=4),
            checkpoint_path={str(ckpt)!r},
            checkpoint_every=4,
        )
        swarm.setup()
        while swarm.checkpoints_written < 2:
            if swarm.engine.step() is None:
                break
        os.kill(os.getpid(), signal.SIGKILL)
        """
    )
    import repro

    env = os.environ.copy()
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    victim = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
    )
    assert victim.returncode == -signal.SIGKILL, victim.stderr
    assert ckpt.is_file(), "the victim died before writing its snapshots"

    resumed_result = run_fig3bc(
        [3], **_sweep_kwargs(checkpoint_dir=tmp_path)
    )
    assert resumed_result.timing.resumes == 1
    resumed = resumed_result.runs[3]
    assert resumed.result.resumed_from_round is not None
    assert resumed.result.resumed_from_round >= 8  # two 4-round snapshots

    serial = run_fig3bc([3], **_sweep_kwargs()).runs[3]
    assert resumed.result.fingerprint() == serial.result.fingerprint()
    assert resumed.population.tolist() == serial.population.tolist()
    assert resumed.entropy.tolist() == serial.entropy.tolist()
    assert resumed.times.tolist() == serial.times.tolist()
    assert resumed.diverged == serial.diverged
    assert resumed.entropy_recovered == serial.entropy_recovered
