"""Per-round stage profiling for the swarm simulator.

:class:`RoundProfiler` buckets the wall time of each protocol round by
stage, so "what should we optimise next?" is answered by data instead
of guesswork.  The six buckets mirror the round structure documented in
:mod:`repro.sim.swarm`:

``maintenance``
    lingering-seed departures, aborts, injected churn, and stale-
    connection teardown;
``potential``
    potential-set computation (the ``i`` coordinate);
``matching``
    bilateral slot filling over potential sets;
``exchange``
    tit-for-tat piece swaps;
``seeds``
    seed uploads and optimistic-unchoke donations;
``bookkeeping``
    per-peer stats, completions, shakes, neighbor refills, and metrics.

The profiler is opt-in (``Swarm(..., profile=True)``); when disabled
the swarm pays only a handful of ``is None`` checks per round, and a
profiled run's fingerprint equals the unprofiled one's
(``tests/sim/test_swarm.py::TestRoundProfile``).  Profiles
ride on :class:`~repro.sim.swarm.SwarmResult` and fold into
:class:`~repro.runtime.telemetry.Telemetry` (``repro-bt run --timing``).
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

__all__ = ["RoundProfiler", "STAGES", "SOA_STAGES", "SHARD_COORD_STAGES"]

#: Stage names in round-execution order (object backend).
STAGES = (
    "maintenance",
    "potential",
    "matching",
    "exchange",
    "seeds",
    "bookkeeping",
)

#: Stage names of the vectorized soa backend's round pipeline:
#: ``store`` (departures, aborts, churn, stale-connection teardown),
#: ``interest`` (the whole-swarm packed-bitfield interest matrix),
#: ``selection`` (slot-filling proposals and the rank-filter matching),
#: ``exchange`` (batched tit-for-tat piece transfers), ``seeds`` (seed
#: uploads and optimistic donations), ``bookkeeping`` (completions,
#: shakes, refills, metrics).
SOA_STAGES = (
    "store",
    "interest",
    "selection",
    "exchange",
    "seeds",
    "bookkeeping",
)

#: Stage names of the sharded coordinator's cycle: ``comms`` (building
#: and sending the step messages, routing the migrant rows, and the
#: barrier wait net of the slowest worker's compute time) and ``bookkeeping`` (metrics fold, population
#: log, checkpoint cadence).  Worker-side round stages keep the
#: ``SOA_STAGES`` names, so a merged sharded profile shows both layers.
SHARD_COORD_STAGES = (
    "comms",
    "bookkeeping",
)


class RoundProfiler:
    """Accumulates per-stage wall time across simulator rounds.

    Usage inside the round loop::

        profiler.begin_round()     # marks the stage clock
        ...maintenance work...
        profiler.lap("maintenance")
        ...potential-set work...
        profiler.lap("potential")

    Each :meth:`lap` charges the time since the previous mark to the
    named stage and re-marks, so stages need no explicit "start".
    """

    __slots__ = ("stages", "totals", "rounds", "_mark")

    STAGES = STAGES

    def __init__(self, stages: Tuple[str, ...] = STAGES):
        self.stages = tuple(stages)
        self.totals: Dict[str, float] = {stage: 0.0 for stage in self.stages}
        self.rounds = 0
        self._mark = 0.0

    def begin_round(self) -> None:
        """Count a round and reset the stage clock."""
        self.rounds += 1
        self._mark = time.perf_counter()

    def lap(self, stage: str) -> None:
        """Charge the time since the last mark to ``stage`` and re-mark."""
        now = time.perf_counter()
        self.totals[stage] += now - self._mark
        self._mark = now

    def charge(self, stage: str, seconds: float) -> None:
        """Add externally measured ``seconds`` without touching the mark.

        Used where elapsed wall time is *not* what a stage should pay —
        e.g. the sharded coordinator's barrier wait, which charges only
        the wait net of the slowest worker's compute time.
        """
        self.totals[stage] += seconds

    def mark(self) -> None:
        """Reset the stage clock without charging anything."""
        self._mark = time.perf_counter()

    @property
    def total(self) -> float:
        """Wall seconds across all stages."""
        return sum(self.totals.values())

    def as_dict(self) -> Dict[str, float]:
        """Stage totals in seconds, in round-execution order."""
        return dict(self.totals)

    def merge_into(self, sink: Dict[str, float]) -> None:
        """Accumulate this profile into an external stage dict."""
        for stage, seconds in self.totals.items():
            sink[stage] = sink.get(stage, 0.0) + seconds

    def format(self) -> str:
        """One-line per-stage summary (seconds and share of the total)."""
        total = self.total
        parts = []
        for stage in self.stages:
            seconds = self.totals[stage]
            share = 100.0 * seconds / total if total > 0 else 0.0
            parts.append(f"{stage} {seconds:.3f}s ({share:.0f}%)")
        return (
            f"round profile ({self.rounds} round(s), {total:.3f}s): "
            + ", ".join(parts)
        )
