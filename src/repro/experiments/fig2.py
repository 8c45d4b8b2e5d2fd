"""Figure 2: the three download-evolution archetypes.

Regenerates, from simulated swarms, the three instances the paper
selected from its real-world traces:

* 2(a, b) — smooth download: potential set large throughout;
* 2(c, d) — significant last phase: potential set collapses late;
* 2(e, f) — significant bootstrap: potential set stuck at 0 early.

Each archetype yields one :class:`~repro.traces.schema.ClientTrace`
with exactly the two plotted series (cumulative bytes, potential-set
size).  The three archetype swarms are independent executor tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis.reporting import format_series
from repro.experiments.registry import register_experiment
from repro.experiments.result import to_jsonable
from repro.experiments.common import make_executor
from repro.runtime.executor import TaskSpec
from repro.runtime.telemetry import Telemetry
from repro.sim.config import SimConfig
from repro.traces.analysis import classify_trace, phase_segments
from repro.traces.schema import ClientTrace
from repro.traces.synthetic import ARCHETYPES, generate_archetype

__all__ = ["Fig2Result", "run_fig2"]

_KINDS = ("smooth", "last", "bootstrap")


@dataclass
class Fig2Result:
    """The three archetype traces for Figure 2.

    Attributes:
        traces: per archetype name, the matching trace.
        configs: per archetype name, the swarm config that produced it.
        labels: per archetype name, the classifier's label (equals the
            archetype name by construction).
        timing: execution telemetry of the producing run.
    """

    traces: Dict[str, ClientTrace]
    configs: Dict[str, SimConfig]
    labels: Dict[str, str]
    timing: Optional[Telemetry] = field(default=None, compare=False)

    def format(self, *, max_rows: int = 16) -> str:
        blocks = []
        for kind in _KINDS:
            trace = self.traces[kind]
            spec = ARCHETYPES[kind]
            segments = phase_segments(trace)
            blocks.append(
                f"Figure {spec.figure_panels} [{kind}] - label={self.labels[kind]} "
                f"(bootstrap {segments.bootstrap:.0f}, efficient "
                f"{segments.efficient:.0f}, last {segments.last:.0f})"
            )
            blocks.append(
                format_series(
                    "  cumulative bytes",
                    trace.times(),
                    trace.bytes_series(),
                    max_rows=max_rows,
                    x_label="t",
                    y_label="bytes",
                )
            )
            blocks.append(
                format_series(
                    "  potential-set size",
                    trace.times(),
                    trace.potential_series(),
                    max_rows=max_rows,
                    x_label="t",
                    y_label="pss",
                )
            )
        return "\n".join(blocks)

    def to_dict(self) -> dict:
        return {
            "experiment": "F2",
            "labels": dict(self.labels),
            "series": {
                kind: {
                    "times": to_jsonable(trace.times()),
                    "bytes": to_jsonable(trace.bytes_series()),
                    "potential": to_jsonable(trace.potential_series()),
                }
                for kind, trace in self.traces.items()
            },
            "timing": self.timing.to_dict() if self.timing else None,
        }


def _archetype_task(
    kind: str, seed: int, max_attempts: int, profile: bool = False
) -> tuple:
    """Generate and classify one archetype (executor work unit).

    Returns ``(trace, config, label, round_profile)``; the profile sums
    every attempt's per-stage round seconds (None unless ``profile``).
    """
    round_profile: Optional[Dict[str, float]] = {} if profile else None
    trace, config = generate_archetype(
        kind, seed=seed, max_attempts=max_attempts, round_profile=round_profile
    )
    return trace, config, classify_trace(trace), round_profile


@register_experiment(
    "F2",
    figure="Figure 2",
    description="download archetypes: smooth / last phase / bootstrap",
)
def run_fig2(
    *,
    seed: int = 0,
    max_attempts: int = 8,
    workers: int = 1,
    profile: bool = False,
) -> Fig2Result:
    """Generate all three Figure-2 archetypes.

    With ``profile`` the swarms run with their per-stage round profiler
    and the stage totals fold into the returned telemetry (``--timing``).
    """
    executor = make_executor(workers=workers)
    outcomes = executor.run(
        [
            TaskSpec(_archetype_task, (kind, seed, max_attempts, profile))
            for kind in _KINDS
        ]
    )
    traces: Dict[str, ClientTrace] = {}
    configs: Dict[str, SimConfig] = {}
    labels: Dict[str, str] = {}
    for kind, (trace, config, label, round_profile) in zip(_KINDS, outcomes):
        traces[kind] = trace
        configs[kind] = config
        labels[kind] = label
        executor.record_events(len(trace.samples))
        if round_profile:
            executor.telemetry.add_round_profile(round_profile)
    return Fig2Result(
        traces=traces, configs=configs, labels=labels, timing=executor.telemetry
    )
