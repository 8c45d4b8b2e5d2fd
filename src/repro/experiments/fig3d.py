"""Figure 3/4(d): shaking the peer set vs. the last-piece problem.

The paper's mitigation experiment (Section 7.1): at 90% completion a
peer drops its whole neighbor set and asks the tracker for a fresh
random one.  The figure plots the time-to-download (TTD) of each of the
last blocks (190-200 of 200) for the normal protocol and the shaking
variant; shaking flattens the tail.

TTD of block ordinal ``j`` is the gap between the acquisition times of
the ``j``-th and ``(j-1)``-th pieces, averaged over completed peers.
The normal and shaken swarms run as independent executor tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.analysis.reporting import format_table
from repro.errors import ParameterError
from repro.experiments.registry import register_experiment
from repro.experiments.result import to_jsonable
from repro.experiments.common import checkpoint_interval, make_executor
from repro.runtime.executor import TaskSpec
from repro.runtime.telemetry import Telemetry
from repro.sim.config import SimConfig
from repro.sim.swarm import run_swarm

__all__ = ["Fig3dResult", "run_fig3d", "mean_ttd_by_ordinal"]


@dataclass
class Fig3dResult:
    """Series for Figure 3/4(d).

    Attributes:
        ordinals: block ordinals plotted (the last ``window``).
        ttd: per variant name ("normal" / "shake"), mean TTD at each
            ordinal (rounds).
        completed: per variant, completed downloads contributing.
        timing: execution telemetry of the producing run.
    """

    ordinals: np.ndarray
    ttd: Dict[str, np.ndarray]
    completed: Dict[str, int]
    timing: Optional[Telemetry] = field(default=None, compare=False)

    def format(self) -> str:
        rows = [
            [int(o), float(self.ttd["normal"][i]), float(self.ttd["shake"][i])]
            for i, o in enumerate(self.ordinals)
        ]
        note = (
            f"(completed downloads: normal={self.completed['normal']}, "
            f"shake={self.completed['shake']})"
        )
        return (
            "Figure 3/4(d): TTD of the last blocks, normal vs shake\n"
            + format_table(["block", "normal", "shake"], rows)
            + "\n"
            + note
        )

    def to_dict(self) -> dict:
        return {
            "experiment": "F3d",
            "ordinals": to_jsonable(self.ordinals),
            "ttd": to_jsonable(self.ttd),
            "completed": to_jsonable(self.completed),
            "timing": self.timing.to_dict() if self.timing else None,
        }


def mean_ttd_by_ordinal(
    config: SimConfig,
    *,
    window: int,
    profile: bool = False,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 0,
) -> tuple:
    """Run one swarm and average per-ordinal TTD over completed peers.

    With a ``checkpoint_path`` (injected by the executor for
    checkpointable tasks) the swarm snapshots periodically and resumes
    from an existing snapshot instead of recomputing finished rounds.

    Returns:
        ``(ordinals, mean_ttd, completed_count, events, round_profile)``
        — ordinals are 1-based piece counts covering the last
        ``window`` pieces; ``events`` is the engine's processed-event
        count; ``round_profile`` is the per-stage round wall-time dict
        (None unless ``profile=True``).
    """
    if window < 1 or window >= config.num_pieces:
        raise ParameterError(
            f"window must be in 1..{config.num_pieces - 1}, got {window}"
        )
    if checkpoint_path is not None:
        from repro.checkpoint.store import run_swarm_with_checkpoints

        result = run_swarm_with_checkpoints(
            config,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            profile=profile,
        )
    else:
        result = run_swarm(config, profile=profile)
    num_pieces = config.num_pieces
    ordinals = np.arange(num_pieces - window + 1, num_pieces + 1)
    sums = np.zeros(window)
    count = 0
    table = result.metrics.completions
    for joined, stats in zip(table.column("joined_at").tolist(), table.stats):
        times = stats.piece_times
        if len(times) < num_pieces:
            continue
        gaps = np.diff(np.concatenate([[joined], np.asarray(times)]))
        sums += gaps[-window:] / config.piece_time
        count += 1
    mean = sums / count if count else np.full(window, np.nan)
    return ordinals, mean, count, result.events_processed, result.round_profile


@register_experiment(
    "F3d",
    figure="Figure 3/4(d)",
    description="last-block TTD: normal vs shaken peer set",
    quick_kwargs={
        "num_pieces": 80,
        "window": 8,
        "initial_leechers": 40,
        "max_time": 350.0,
    },
)
def run_fig3d(
    *,
    num_pieces: int = 200,
    window: int = 10,
    shake_threshold: float = 0.9,
    ns_size: int = 8,
    max_conns: int = 4,
    arrival_rate: float = 1.0,
    initial_leechers: int = 60,
    max_time: float = 700.0,
    seed: int = 0,
    workers: int = 1,
    profile: bool = False,
    checkpoint_dir: Optional[str] = None,
    checkpoint_every: int = 0,
) -> Fig3dResult:
    """Reproduce Figure 3/4(d): TTD of the last ``window`` blocks.

    The swarm uses a deliberately small neighbor set so the last-piece
    problem manifests (the paper's own Figure 1 analysis: small peer
    sets produce the last download phase).  With ``profile`` the swarms
    run with their per-stage round profiler and the stage totals fold
    into the returned telemetry (``--timing``).
    """
    base = SimConfig(
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
        optimistic_targets="empty",
        piece_selection="rarest",
        announce_interval=1000.0,  # no periodic refills: starvation bites
        ns_accept_factor=1.0,      # hard cap: static clustered neighborhoods
        max_time=max_time,
        seed=seed,
    )
    variants = {
        "normal": base,
        "shake": base.with_changes(shake_threshold=shake_threshold),
    }
    interval = checkpoint_interval(checkpoint_dir, checkpoint_every)
    executor = make_executor(workers=workers, checkpoint_dir=checkpoint_dir)
    outcomes = executor.run(
        [
            TaskSpec(
                mean_ttd_by_ordinal,
                (config,),
                {"window": window, "profile": profile},
                checkpoint_interval=interval,
                checkpoint_key=f"fig3d-{name}",
            )
            for name, config in variants.items()
        ]
    )
    ttd: Dict[str, np.ndarray] = {}
    completed: Dict[str, int] = {}
    ordinals = None
    for name, (ordinals, mean, count, events, round_profile) in zip(
        variants, outcomes
    ):
        ttd[name] = mean
        completed[name] = count
        executor.record_events(events)
        if round_profile:
            executor.telemetry.add_round_profile(round_profile)
    return Fig3dResult(
        ordinals=ordinals, ttd=ttd, completed=completed, timing=executor.telemetry
    )
