"""Seeding study — the paper's Section-7.2 future work, implemented.

"A seed is a peer that has acquired a complete file and still chooses
to participate in the swarm. ... we plan to study seeding as a separate
work in future."  This runner performs that study on the simulator:

* **capacity sweep** — seeds as a piece-distribution source whose
  capacity scales with count x slots (the [12]/[9] treatment the paper
  cites): measure download times and bootstrap exposure per capacity;
* **super-seeding** — the "advanced seeding technique" footnote: the
  seed offers each piece at most once until the whole file has been
  injected, maximising early piece diversity per uploaded byte;
* **post-completion lingering** — finished leechers staying as seeds
  for a while instead of departing immediately (relaxing the model's
  exit assumption).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.errors import ParameterError
from repro.experiments.result import to_jsonable
from repro.experiments.common import make_executor
from repro.runtime.executor import TaskSpec
from repro.runtime.telemetry import Telemetry
from repro.sim.config import SimConfig
from repro.sim.swarm import run_swarm

__all__ = ["SeedingPoint", "SeedingResult", "run_seeding_study"]


@dataclass(frozen=True)
class SeedingPoint:
    """One seeding configuration's outcome.

    Attributes:
        label: human-readable configuration tag.
        completed: downloads finished within the horizon.
        mean_duration: average completion time (rounds).
        p90_duration: 90th-percentile completion time.
        mean_first_piece: average rounds from join to the first piece —
            the bootstrap-phase exposure that seed capacity governs.
        seed_uploads: total pieces the seed(s) uploaded.
        completions_per_seed_upload: seeding efficiency — downloads
            completed per piece of seed capacity spent (super-seeding's
            selling point).
    """

    label: str
    completed: int
    mean_duration: float
    p90_duration: float
    mean_first_piece: float
    seed_uploads: int
    completions_per_seed_upload: float


@dataclass
class SeedingResult:
    """All points of the seeding study."""

    points: List[SeedingPoint]
    timing: Optional[Telemetry] = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            "experiment": "seeding",
            "points": [to_jsonable(vars(p)) for p in self.points],
            "timing": self.timing.to_dict() if self.timing else None,
        }

    def format(self) -> str:
        return "Seeding study (Section 7.2)\n" + format_table(
            ["configuration", "completed", "mean T", "p90 T", "first piece",
             "seed uploads", "done/upload"],
            [
                [p.label, p.completed, round(p.mean_duration, 1),
                 round(p.p90_duration, 1), round(p.mean_first_piece, 2),
                 p.seed_uploads, round(p.completions_per_seed_upload, 3)]
                for p in self.points
            ],
        )

    def by_label(self) -> Dict[str, SeedingPoint]:
        return {p.label: p for p in self.points}


def _measure(label: str, config: SimConfig, backend: str = "object") -> tuple:
    """One seeding configuration (executor work unit).

    Returns ``(point, events)`` — the measured point plus the engine's
    processed-event count for telemetry.
    """
    result = run_swarm(config, backend=backend)
    table = result.metrics.completions
    joined = table.column("joined_at")
    durations = table.column("completed_at") - joined
    # The first mark of each peer's piece timeline.  It is NaN only for
    # an object-engine peer that finished without acquiring a piece
    # (an array-engine peer is stamped when it first holds one).
    first_pieces = table.column("first_piece_at") - joined
    first_pieces = first_pieces[~np.isnan(first_pieces)]
    if durations.size:
        mean_duration = float(np.mean(durations))
        p90 = float(np.percentile(durations, 90))
    else:
        mean_duration = p90 = float("nan")
    mean_first = (
        float(np.mean(first_pieces)) if first_pieces.size else float("nan")
    )
    per_upload = (
        len(durations) / result.seed_upload_count
        if result.seed_upload_count
        else float("nan")
    )
    point = SeedingPoint(
        label=label,
        completed=len(durations),
        mean_duration=mean_duration,
        p90_duration=p90,
        mean_first_piece=mean_first,
        seed_uploads=result.seed_upload_count,
        completions_per_seed_upload=per_upload,
    )
    return point, result.events_processed


def run_seeding_study(
    *,
    num_pieces: int = 60,
    capacities: Sequence[int] = (2, 4, 8),
    include_super_seeding: bool = True,
    include_lingering: bool = True,
    arrival_rate: float = 2.0,
    initial_leechers: int = 50,
    max_time: float = 150.0,
    seed: int = 0,
    workers: int = 1,
    backend: str = "object",
) -> SeedingResult:
    """Run the seeding study and return all measured points.

    The base swarm joins *empty* (no pre-filled population), so every
    piece in circulation descends from seed uploads — the regime where
    seeding policy matters most.  Expected findings: download times
    improve with seed capacity at sharply diminishing returns (the
    swarm's own replication does the heavy lifting once every piece is
    in circulation), per-upload seeding efficiency *falls* with
    capacity, lingering ex-leechers dominate everything (free capacity
    that scales with the swarm), and super-seeding matches plain
    seeding speed while spending fewer seed uploads.
    """
    if not capacities:
        raise ParameterError("capacities must be non-empty")
    base = SimConfig(
        num_pieces=num_pieces,
        max_conns=4,
        ns_size=25,
        arrival_process="poisson",
        arrival_rate=arrival_rate,
        initial_leechers=initial_leechers,
        initial_distribution="empty",
        num_seeds=1,
        seed_upload_slots=2,
        optimistic_unchoke_prob=0.5,
        piece_selection="rarest",
        max_time=max_time,
        seed=seed,
    )
    tasks: List[TaskSpec] = []
    for capacity in capacities:
        tasks.append(
            TaskSpec(
                _measure,
                (
                    f"capacity={capacity}",
                    base.with_changes(seed_upload_slots=capacity),
                ),
                {"backend": backend},
            )
        )
    viable = max(capacities)
    policy_capacity = min(4, viable)
    if include_super_seeding:
        tasks.append(
            TaskSpec(
                _measure,
                (
                    f"super-seeding (capacity={policy_capacity})",
                    base.with_changes(
                        seed_upload_slots=policy_capacity, super_seeding=True
                    ),
                ),
                {"backend": backend},
            )
        )
    if include_lingering:
        tasks.append(
            TaskSpec(
                _measure,
                (
                    f"lingering seeds (capacity={policy_capacity}, 10 rounds)",
                    base.with_changes(
                        seed_upload_slots=policy_capacity,
                        completed_become_seeds=10.0,
                    ),
                ),
                {"backend": backend},
            )
        )
    executor = make_executor(workers=workers)
    executor.telemetry.backend = backend
    points: List[SeedingPoint] = []
    for point, events in executor.run(tasks):
        points.append(point)
        executor.record_events(events)
    return SeedingResult(points=points, timing=executor.telemetry)
