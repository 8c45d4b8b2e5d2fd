"""Figure 3/4(a): impact of the maximum connections ``k`` on efficiency.

Model line: the balance-equation fixed point of Section 5, with the
per-``k`` connection-survival probability from the lifetime model (the
paper's own explanation of why durations — and hence ``p_r`` — change
with ``k``).  Simulation line: the time-averaged connection occupancy
of a dense steady swarm, per ``k``.

Expected shape: a pronounced efficiency gain from ``k = 1`` to
``k = 2`` and little beyond; the model upper-bounds the simulation,
with the largest relative gap (paper: >8%) at ``k = 1``.

The per-``k`` swarm runs are independent executor tasks; the model's
stationary solutions come from the shared kernel cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.efficiency.efficiency import efficiency_curve
from repro.efficiency.lifetime import ConnectionLifetimeModel
from repro.errors import ParameterError
from repro.experiments.registry import register_experiment
from repro.experiments.result import to_jsonable
from repro.experiments.common import checkpoint_interval, make_executor
from repro.runtime.executor import TaskSpec
from repro.runtime.telemetry import Telemetry
from repro.sim.config import SimConfig
from repro.sim.metrics import MetricsCollector
from repro.sim.swarm import Swarm

__all__ = ["Fig3aResult", "run_fig3a", "sim_efficiency"]


@dataclass
class Fig3aResult:
    """Series for Figure 3/4(a).

    Attributes:
        k_values: the swept ``k``.
        model_eta: balance-equation efficiencies.
        sim_eta: simulated efficiencies.
        p_reenc: per-``k`` survival probabilities the model line used.
        timing: execution telemetry of the producing run.
    """

    k_values: np.ndarray
    model_eta: np.ndarray
    sim_eta: np.ndarray
    p_reenc: np.ndarray
    timing: Optional[Telemetry] = field(default=None, compare=False)

    def format(self) -> str:
        rows = [
            [int(k), float(m), float(s), float(pr)]
            for k, m, s, pr in zip(
                self.k_values, self.model_eta, self.sim_eta, self.p_reenc
            )
        ]
        return "Figure 3/4(a): efficiency vs number of connections\n" + format_table(
            ["k", "model eta", "sim eta", "p_r(k)"], rows
        )

    def to_dict(self) -> dict:
        return {
            "experiment": "F3a",
            "k_values": to_jsonable(self.k_values),
            "model_eta": to_jsonable(self.model_eta),
            "sim_eta": to_jsonable(self.sim_eta),
            "p_reenc": to_jsonable(self.p_reenc),
            "timing": self.timing.to_dict() if self.timing else None,
        }


def sim_efficiency(
    max_conns: int,
    *,
    num_pieces: int = 60,
    ns_size: int = 30,
    initial_leechers: int = 80,
    arrival_rate: float = 4.0,
    max_time: float = 150.0,
    seed: int = 0,
    backend: str = "object",
    profile: bool = False,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 0,
) -> tuple:
    """Measure the simulated ``eta`` for one ``k``.

    Uses a dense, continuously refreshed swarm so the occupancy
    distribution reaches (quasi) steady state; the collector discards
    the warmup quarter before averaging.  With a ``checkpoint_path``
    (injected by the executor for checkpointable tasks) the run
    snapshots periodically and resumes from an existing snapshot.

    Returns:
        ``(eta, events, round_profile)`` — the efficiency, the engine's
        processed-event count for telemetry, and the per-stage round
        wall times (None unless ``profile=True``).
    """
    config = SimConfig(
        num_pieces=num_pieces,
        max_conns=max_conns,
        ns_size=ns_size,
        arrival_process="poisson",
        arrival_rate=arrival_rate,
        initial_leechers=initial_leechers,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=1,
        seed_upload_slots=2,
        optimistic_unchoke_prob=0.5,
        connection_setup_prob=0.8,
        connection_failure_prob=0.1,
        matching="blind",
        piece_selection="rarest",
        max_time=max_time,
        seed=seed,
    )
    metrics = MetricsCollector(
        max_conns, entropy_every=1_000_000, occupancy_warmup=0.25
    )
    if checkpoint_path is not None:
        from repro.checkpoint.store import run_swarm_with_checkpoints

        result = run_swarm_with_checkpoints(
            config,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            metrics=metrics,
            backend=backend,
            profile=profile,
        )
        return (
            result.metrics.efficiency(),
            result.events_processed,
            result.round_profile,
        )
    swarm = Swarm(config, metrics=metrics, backend=backend, profile=profile)
    result = swarm.run()
    return metrics.efficiency(), result.events_processed, result.round_profile


@register_experiment(
    "F3a",
    figure="Figure 3/4(a)",
    description="efficiency vs max connections, model vs simulation",
    quick_kwargs={
        "k_values": (1, 2, 3, 4),
        "sim_kwargs": {
            "initial_leechers": 50,
            "arrival_rate": 3.0,
            "max_time": 80.0,
        },
    },
)
def run_fig3a(
    k_values: Sequence[int] = tuple(range(1, 9)),
    *,
    lifetime: ConnectionLifetimeModel | None = None,
    num_pieces: int = 60,
    seed: int = 0,
    sim_kwargs: dict | None = None,
    workers: int = 1,
    backend: str = "object",
    profile: bool = False,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 0,
) -> Fig3aResult:
    """Reproduce Figure 3/4(a): model and simulated efficiency per ``k``.

    With ``profile`` the swarms run with their per-stage round profiler
    and the stage totals fold into the returned telemetry (``--timing``).
    """
    if not k_values:
        raise ParameterError("k_values must be non-empty")
    if lifetime is None:
        lifetime = ConnectionLifetimeModel.for_file(num_pieces)
    executor = make_executor(workers=workers, checkpoint_dir=checkpoint_dir)
    with executor.tracked():
        model_points = efficiency_curve(list(k_values), lifetime=lifetime)
    sim_kwargs = dict(sim_kwargs or {})
    sim_kwargs.setdefault("num_pieces", num_pieces)
    sim_kwargs.setdefault("backend", backend)
    executor.telemetry.backend = sim_kwargs["backend"]
    interval = checkpoint_interval(checkpoint_dir, checkpoint_every)
    outcomes = executor.run(
        [
            TaskSpec(
                sim_efficiency,
                (k,),
                {"seed": seed + idx, "profile": profile, **sim_kwargs},
                checkpoint_interval=interval,
                checkpoint_key=f"fig3a-k{k}",
            )
            for idx, k in enumerate(k_values)
        ]
    )
    sim_etas = []
    for eta, events, round_profile in outcomes:
        sim_etas.append(eta)
        executor.record_events(events)
        if round_profile:
            executor.telemetry.add_round_profile(round_profile)
    return Fig3aResult(
        k_values=np.asarray(list(k_values)),
        model_eta=np.asarray([p.eta for p in model_points]),
        sim_eta=np.asarray(sim_etas),
        p_reenc=np.asarray([p.p_reenc for p in model_points]),
        timing=executor.telemetry,
    )
