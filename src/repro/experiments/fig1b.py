"""Figure 1(b): evolution timeline — model vs. simulation.

For each peer-set size (paper: 5 and 50, with B = 200 and k = 7), plot
the time (in piece-exchange rounds) at which a peer first holds ``b``
pieces, both from the model chain and from instrumented peers in the
discrete-event swarm.  Expected shape: a near-linear trading phase;
PSS = 5 runs much longer, with a bootstrap plateau at the start and a
last-phase tail; the model tracks the simulation tightly for PSS = 50
and looser (but with the same phases) for PSS = 5.

The model curve of each PSS (one
:func:`~repro.runtime.tasks.solve_task`) and its simulator run are
independent executor tasks, so the per-PSS solves and swarm runs
execute concurrently under ``workers > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.api import ModelParams
from repro.core.parameters import ModelParameters, alpha_from_swarm
from repro.errors import ParameterError
from repro.experiments.common import (
    make_executor,
    model_options,
    resolve_model_method,
)
from repro.experiments.registry import register_experiment
from repro.experiments.result import to_jsonable
from repro.runtime.executor import TaskSpec
from repro.runtime.tasks import solve_task
from repro.runtime.telemetry import Telemetry
from repro.sim.config import SimConfig
from repro.sim.swarm import Swarm

__all__ = ["Fig1bResult", "run_fig1b", "sim_timeline"]


@dataclass
class Fig1bResult:
    """Series for Figure 1(b).

    Attributes:
        pieces: x-axis, ``0..B``.
        model: per PSS, mean first-passage rounds from the model.
        sim: per PSS, mean first-passage rounds from the simulator
            (NaN where no instrumented peer reached that count).
        sim_completed: per PSS, how many instrumented peers finished.
        model_method: how the model curves were computed
            (``"batch"``, ``"exact"`` or ``"meanfield"``).
        timing: execution telemetry of the producing run.
    """

    pieces: np.ndarray
    model: Dict[int, np.ndarray]
    sim: Dict[int, np.ndarray]
    sim_completed: Dict[int, int]
    model_method: str = "batch"
    timing: Optional[Telemetry] = field(default=None, compare=False)

    def format(self, *, max_rows: int = 21) -> str:
        pss_values = sorted(self.model)
        idx = np.linspace(0, self.pieces.size - 1, max_rows).round().astype(int)
        headers = ["pieces"]
        for s in pss_values:
            headers += [f"model PSS={s}", f"sim PSS={s}"]
        rows = []
        for i in idx:
            row = [int(self.pieces[i])]
            for s in pss_values:
                row.append(float(self.model[s][i]))
                row.append(float(self.sim[s][i]))
            rows.append(row)
        return "Figure 1(b): evolution timeline (rounds to b pieces)\n" + \
            format_table(headers, rows)

    def to_dict(self) -> dict:
        return {
            "experiment": "F1b",
            "pieces": to_jsonable(self.pieces),
            "model": to_jsonable(self.model),
            "sim": to_jsonable(self.sim),
            "sim_completed": to_jsonable(self.sim_completed),
            "model_method": self.model_method,
            "timing": self.timing.to_dict() if self.timing else None,
        }


def sim_timeline(
    config: SimConfig,
    *,
    instrument: int = 8,
    avoid_seeds: bool = True,
    profile: bool = False,
) -> tuple:
    """Average first-passage rounds to each piece count from a swarm run.

    Instrumented peers start empty; each completed one contributes its
    per-piece acquisition times (relative to its join, in rounds).

    Returns:
        ``(mean_rounds, completed_count, events, round_profile)`` where
        ``mean_rounds`` has ``B + 1`` entries (entry 0 is 0; unreached
        counts are NaN), ``events`` is the simulator's processed-event
        count, and ``round_profile`` is the per-stage wall-time dict
        (None unless ``profile=True``).
    """
    swarm = Swarm(
        config,
        instrument_first=instrument,
        instrumented_avoid_seeds=avoid_seeds,
        profile=profile,
    )
    result = swarm.run()
    num_pieces = config.num_pieces
    sums = np.zeros(num_pieces + 1)
    counts = np.zeros(num_pieces + 1)
    completed = 0
    for peer in result.instrumented:
        times = peer.stats.piece_times
        if len(times) < num_pieces:
            continue  # only completed downloads give a full timeline
        completed += 1
        joined = peer.stats.joined_at
        for b, t in enumerate(times[:num_pieces], start=1):
            rounds = (t - joined) / config.piece_time
            sums[b] += rounds
            counts[b] += 1
    with np.errstate(invalid="ignore"):
        mean = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    mean[0] = 0.0
    return mean, completed, result.events_processed, result.round_profile


@register_experiment(
    "F1b",
    figure="Figure 1(b)",
    description="evolution timeline, model vs simulation (PSS 5 and 50)",
    quick_kwargs={
        "num_pieces": 60,
        "model_runs": 12,
        "sim_instrument": 4,
        "max_time": 300.0,
        "pss_values": (5, 30),
    },
)
def run_fig1b(
    pss_values: Sequence[int] = (5, 50),
    *,
    num_pieces: int = 200,
    max_conns: int = 7,
    model_runs: int = 48,
    sim_instrument: int = 8,
    seed: int = 0,
    p_reenc: float = 0.7,
    p_new: float = 0.7,
    arrival_rate: float = 1.5,
    max_time: float = 800.0,
    workers: int = 1,
    profile: bool = False,
    method: str = "batch",
) -> Fig1bResult:
    """Reproduce Figure 1(b): model and simulation timelines per PSS.

    Model and simulator share their friction parameters: the sim's
    exogenous churn is ``1 - p_reenc`` and its handshake success is
    ``p_new``; the model's bootstrap/last-phase escape probabilities
    ``alpha`` (and ``gamma``, same inflow process) are derived from the
    swarm via the paper's formula ``alpha = lambda * w * s / N``.

    Args:
        model_runs: Monte-Carlo trajectories per PSS (``batch`` only).
        profile: run the swarms with a per-stage
            :class:`~repro.runtime.profiler.RoundProfiler` and fold the
            buckets into the returned telemetry (``--timing``).
        method: model-curve method — ``"batch"`` (the default;
            ``model_runs`` trajectories per PSS on the vectorized
            :class:`~repro.core.batch.BatchChainSampler`), ``"exact"``
            (noise-free expected first-passage rounds from the sparse
            fundamental-matrix solve) or ``"meanfield"`` (deterministic
            large-swarm ODE limit).  The simulator side always samples.
    """
    if not pss_values:
        raise ParameterError("pss_values must be non-empty")
    method = resolve_model_method(method)
    pieces = np.arange(num_pieces + 1)
    executor = make_executor(workers=workers)
    model: Dict[int, np.ndarray] = {}
    sim: Dict[int, np.ndarray] = {}
    sim_completed: Dict[int, int] = {}

    model_params: Dict[int, ModelParameters] = {}
    sim_configs: Dict[int, SimConfig] = {}
    for offset, pss in enumerate(pss_values):
        initial_leechers = max(60, 4 * pss)
        alpha = alpha_from_swarm(
            arrival_rate,
            0.5,  # w: an arriving peer is tradable once half-filled on average
            pss,
            initial_leechers,
        )
        model_params[pss] = ModelParams(
            num_pieces=num_pieces,
            max_conns=max_conns,
            ns_size=pss,
            alpha=alpha,
            gamma=alpha,
            p_reenc=p_reenc,
            p_new=p_new,
        )
        sim_configs[pss] = SimConfig(
            num_pieces=num_pieces,
            max_conns=max_conns,
            ns_size=pss,
            arrival_process="poisson",
            arrival_rate=arrival_rate,
            initial_leechers=initial_leechers,
            initial_distribution="uniform",
            initial_fill=0.5,
            num_seeds=1,
            seed_upload_slots=2,
            optimistic_unchoke_prob=0.5,
            connection_setup_prob=p_new,
            connection_failure_prob=1.0 - p_reenc,
            matching="blind",
            piece_selection="rarest",
            max_time=max_time,
            seed=seed + 1000 + offset,
        )

    # One fan for everything: one model task per PSS, then one
    # simulator run per PSS; the executor interleaves them freely but
    # returns results in task order.
    tasks = [
        TaskSpec(
            solve_task,
            (model_params[pss], "timeline", method),
            model_options(method, model_runs, seed, offset),
        )
        for offset, pss in enumerate(pss_values)
    ]
    tasks += [
        TaskSpec(
            sim_timeline,
            (sim_configs[pss],),
            {"instrument": sim_instrument, "profile": profile},
        )
        for pss in pss_values
    ]
    outcomes = executor.run(tasks)

    for offset, pss in enumerate(pss_values):
        payload, work = outcomes[offset]
        executor.record_events(work)
        model[pss] = payload.mean_steps
        mean, completed, events, round_profile = outcomes[len(pss_values) + offset]
        sim[pss] = mean
        sim_completed[pss] = completed
        executor.record_events(events)
        if round_profile:
            executor.telemetry.add_round_profile(round_profile)
    return Fig1bResult(
        pieces=pieces,
        model=model,
        sim=sim,
        sim_completed=sim_completed,
        model_method=method.value,
        timing=executor.telemetry,
    )
