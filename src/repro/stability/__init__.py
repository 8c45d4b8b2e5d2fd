"""Stability analysis of the protocol (paper Section 6).

Stability is defined through the swarm **entropy**::

    E = min(d_1, ..., d_B) / max(d_1, ..., d_B)

where ``d_i`` is the replication degree of piece ``i``.  The system is
stable when the long-run behaviour drives ``E`` to 1; if ``E`` goes to
0, piece skewness stalls downloads, arrivals outpace departures, and
the population diverges.  The paper shows the number of pieces ``B``
and the arrival rate are the deciding parameters: with a high-skew
start, ``B = 3`` diverges while ``B = 10`` recovers (Figures 3/4(b,c)).

Note:
    :mod:`repro.stability.experiments` (the simulator-backed runners)
    is exposed lazily — the metric modules here are dependencies of the
    simulator, so the runners cannot be imported eagerly without a
    cycle.  ``from repro.stability import run_stability_experiment``
    works as usual.
"""

from repro.stability.drift import (
    PhaseDriftAnalysis,
    alpha_under_skew,
    entropy_drift_summary,
    phase_drift_analysis,
)
from repro.stability.entropy import (
    entropy,
    entropy_of_swarm,
    replication_degrees,
)

__all__ = [
    "entropy",
    "entropy_of_swarm",
    "replication_degrees",
    "PhaseDriftAnalysis",
    "alpha_under_skew",
    "entropy_drift_summary",
    "phase_drift_analysis",
    "StabilityRun",
    "run_stability_experiment",
    "stability_config",
    "BoundaryPoint",
    "PhaseBoundary",
    "critical_piece_count",
    "phase_boundary",
]

_LAZY_EXPERIMENTS = {
    "StabilityRun",
    "run_stability_experiment",
    "stability_config",
}
_LAZY_CRITICAL = {
    "BoundaryPoint",
    "PhaseBoundary",
    "critical_piece_count",
    "phase_boundary",
}


def __getattr__(name: str):
    if name in _LAZY_EXPERIMENTS:
        from repro.stability import experiments

        return getattr(experiments, name)
    if name in _LAZY_CRITICAL:
        from repro.stability import critical

        return getattr(critical, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
