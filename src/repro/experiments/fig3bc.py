"""Figures 3/4(b) and 3/4(c): effect of ``B`` on stability.

One runner produces both panels (they come from the same pair of runs):
starting from a high-skew initial state under a sustained Poisson
arrival stream,

* panel (b): the number of peers in the system over time — grows
  without bound for ``B = 3``, stabilises for ``B = 10``;
* panel (c): the entropy ``E`` over time — collapses toward 0 for
  ``B = 3``, recovers toward 1 for ``B = 10``.

The per-``B`` stability runs are independent executor tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.errors import ParameterError
from repro.experiments.registry import register_experiment
from repro.experiments.result import to_jsonable
from repro.experiments.common import checkpoint_interval, make_executor
from repro.runtime.executor import TaskSpec
from repro.runtime.telemetry import Telemetry
from repro.stability.experiments import (
    StabilityRun,
    run_stability_experiment,
    stability_config,
)

__all__ = ["Fig3bcResult", "run_fig3bc"]


@dataclass
class Fig3bcResult:
    """Series for Figures 3/4(b) and (c).

    Attributes:
        runs: per ``B``, the full :class:`StabilityRun`.
        timing: execution telemetry of the producing run.
    """

    runs: Dict[int, StabilityRun]
    timing: Optional[Telemetry] = field(default=None, compare=False)

    def population(self, num_pieces: int) -> np.ndarray:
        return self.runs[num_pieces].population

    def entropy(self, num_pieces: int) -> np.ndarray:
        return self.runs[num_pieces].entropy

    def format(self, *, max_rows: int = 16) -> str:
        piece_counts = sorted(self.runs)
        # All runs share the round cadence; align on the shortest.
        min_len = min(self.runs[b].times.size for b in piece_counts)
        idx = np.linspace(0, min_len - 1, min(max_rows, min_len)).round().astype(int)
        headers = ["time"]
        for b in piece_counts:
            headers += [f"peers B={b}", f"entropy B={b}"]
        rows = []
        base_times = self.runs[piece_counts[0]].times
        for i in idx:
            row = [float(base_times[i])]
            for b in piece_counts:
                run = self.runs[b]
                row.append(int(run.population[i]))
                row.append(float(run.entropy[i]) if run.entropy.size else float("nan"))
            rows.append(row)
        verdicts = ", ".join(
            f"B={b}: {'DIVERGED' if self.runs[b].diverged else 'stable'}/"
            f"entropy {'recovered' if self.runs[b].entropy_recovered else 'collapsed'}"
            for b in piece_counts
        )
        return (
            "Figure 3/4(b,c): population and entropy under high initial skew\n"
            + format_table(headers, rows)
            + f"\nverdicts: {verdicts}"
        )

    def to_dict(self) -> dict:
        return {
            "experiment": "F3bc",
            "runs": {
                str(b): {
                    "times": to_jsonable(run.times),
                    "population": to_jsonable(run.population),
                    "entropy": to_jsonable(run.entropy),
                    "diverged": run.diverged,
                    "entropy_recovered": run.entropy_recovered,
                }
                for b, run in self.runs.items()
            },
            "timing": self.timing.to_dict() if self.timing else None,
        }


@register_experiment(
    "F3bc",
    figure="Figure 3/4(b,c)",
    description="population and entropy vs time for B=3 vs B=10",
    quick_kwargs={
        "initial_leechers": 200,
        "arrival_rate": 12.0,
        "max_time": 100.0,
        "entropy_every": 4,
    },
)
def run_fig3bc(
    piece_counts: Sequence[int] = (3, 10),
    *,
    arrival_rate: float = 20.0,
    initial_leechers: int = 400,
    max_time: float = 150.0,
    seed: int = 0,
    entropy_every: int = 2,
    workers: int = 1,
    backend: str = "object",
    profile: bool = False,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 0,
) -> Fig3bcResult:
    """Reproduce Figures 3/4(b,c): one stability run per piece count.

    Run ``i`` of ``piece_counts`` uses ``seed + i``.  The CLI
    ``stability`` command goes through this runner too.  With a
    ``checkpoint_dir``, each per-``B`` task snapshots every
    ``checkpoint_every`` rounds under the stable key
    ``stability-B{B}``, and a relaunched run resumes every interrupted
    task from its latest snapshot, bit-identically.  With ``profile``
    the swarms run with their per-stage round profiler and the stage
    totals fold into the returned telemetry (``--timing``).
    """
    if not piece_counts:
        raise ParameterError("piece_counts must be non-empty")
    configs = [
        stability_config(
            num_pieces,
            arrival_rate=arrival_rate,
            initial_leechers=initial_leechers,
            max_time=max_time,
            seed=seed + offset,
        )
        for offset, num_pieces in enumerate(piece_counts)
    ]
    interval = checkpoint_interval(checkpoint_dir, checkpoint_every)
    executor = make_executor(workers=workers, checkpoint_dir=checkpoint_dir)
    executor.telemetry.backend = backend
    outcomes = executor.run(
        [
            TaskSpec(
                run_stability_experiment,
                (config,),
                {
                    "entropy_every": entropy_every,
                    "backend": backend,
                    "profile": profile,
                },
                checkpoint_interval=interval,
                checkpoint_key=f"stability-B{num_pieces}",
            )
            for config, num_pieces in zip(configs, piece_counts)
        ]
    )
    runs: Dict[int, StabilityRun] = {}
    for num_pieces, run in zip(piece_counts, outcomes):
        runs[num_pieces] = run
        executor.record_events(run.result.events_processed)
        if run.result.round_profile:
            executor.telemetry.add_round_profile(run.result.round_profile)
    return Fig3bcResult(runs=runs, timing=executor.telemetry)
