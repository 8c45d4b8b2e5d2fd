"""Parameter-sensitivity analysis of the download-evolution model.

The paper's stated goal is "to study the impact of protocol design on
the performance of the system".  This module quantifies that impact
systematically: for each model parameter, sweep it around a baseline
and measure the expected download time, reporting an elasticity
(relative output change per relative input change) so the parameters'
leverage can be ranked.

Expected ranking for a healthy baseline: ``max_conns`` and ``ns_size``
dominate (they set the trading-phase rate), while ``alpha`` and
``gamma`` matter only to the degree that stalls occur — their leverage
explodes exactly in the small-neighborhood regimes where the bootstrap
and last phases appear (the paper's Figure 1 story).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


from repro.analysis.reporting import format_table
from repro.api import solve
from repro.core.parameters import ModelParameters
from repro.errors import ParameterError

__all__ = ["SensitivityPoint", "SensitivityReport", "sensitivity_analysis"]

#: Parameters the sweep knows how to vary, with their value kind.
_SWEEPABLE = {
    "max_conns": "int",
    "ns_size": "int",
    "p_init": "prob",
    "alpha": "prob",
    "gamma": "prob",
    "p_reenc": "prob",
    "p_new": "prob",
}


@dataclass(frozen=True)
class SensitivityPoint:
    """One parameter's measured leverage.

    Attributes:
        parameter: the swept field name.
        baseline_value / low_value / high_value: the sweep points.
        baseline_time / low_time / high_time: expected download times.
        elasticity: ``(dT/T) / (dx/x)`` estimated across the sweep —
            negative means increasing the parameter speeds downloads.
    """

    parameter: str
    baseline_value: float
    low_value: float
    high_value: float
    baseline_time: float
    low_time: float
    high_time: float
    elasticity: float


@dataclass
class SensitivityReport:
    """Full sensitivity sweep around one baseline."""

    baseline: ModelParameters
    points: List[SensitivityPoint]

    def ranked(self) -> List[SensitivityPoint]:
        """Points ordered by |elasticity|, most influential first."""
        return sorted(self.points, key=lambda p: -abs(p.elasticity))

    def format(self) -> str:
        rows = [
            [p.parameter, p.low_value, p.baseline_value, p.high_value,
             round(p.low_time, 1), round(p.baseline_time, 1),
             round(p.high_time, 1), round(p.elasticity, 2)]
            for p in self.ranked()
        ]
        return (
            f"Sensitivity of expected download time "
            f"(baseline: {self.baseline.describe()})\n"
            + format_table(
                ["parameter", "low", "base", "high",
                 "T(low)", "T(base)", "T(high)", "elasticity"],
                rows,
            )
        )


def _vary(params: ModelParameters, name: str, factor: float) -> ModelParameters:
    kind = _SWEEPABLE[name]
    value = getattr(params, name)
    if kind == "int":
        new_value = max(int(round(value * factor)), 1)
    else:
        new_value = min(max(value * factor, 1e-6), 1.0)
    return params.with_changes(**{name: new_value})


def _expected_time(params: ModelParameters, runs: int, seed: int) -> float:
    timeline = solve(params, "timeline", "batch", runs=runs, seed=seed).payload
    return timeline.total_download_time()


def sensitivity_analysis(
    baseline: ModelParameters,
    *,
    parameters: Optional[Sequence[str]] = None,
    factor: float = 1.5,
    runs: int = 32,
    seed: int = 0,
) -> SensitivityReport:
    """Sweep each parameter by ``x / factor`` and ``x * factor``.

    Args:
        baseline: the central parameter set.
        parameters: which fields to sweep (defaults to all sweepable).
        factor: multiplicative sweep half-width (> 1).
        runs: Monte-Carlo trajectories per evaluation.

    Raises:
        ParameterError: for an unknown parameter name or factor <= 1.
    """
    if factor <= 1.0:
        raise ParameterError(f"factor must be > 1, got {factor}")
    names = list(parameters) if parameters is not None else list(_SWEEPABLE)
    for name in names:
        if name not in _SWEEPABLE:
            raise ParameterError(
                f"cannot sweep {name!r}; sweepable: {sorted(_SWEEPABLE)}"
            )

    baseline_time = _expected_time(baseline, runs, seed)
    points: List[SensitivityPoint] = []
    for offset, name in enumerate(names):
        low_params = _vary(baseline, name, 1.0 / factor)
        high_params = _vary(baseline, name, factor)
        low_value = float(getattr(low_params, name))
        high_value = float(getattr(high_params, name))
        if low_value == high_value:
            continue  # integer parameter pinned at its floor
        low_time = _expected_time(low_params, runs, seed + 1000 + offset)
        high_time = _expected_time(high_params, runs, seed + 2000 + offset)
        base_value = float(getattr(baseline, name))
        relative_dx = (high_value - low_value) / base_value
        relative_dt = (high_time - low_time) / baseline_time
        elasticity = relative_dt / relative_dx if relative_dx else 0.0
        points.append(
            SensitivityPoint(
                parameter=name,
                baseline_value=base_value,
                low_value=low_value,
                high_value=high_value,
                baseline_time=baseline_time,
                low_time=low_time,
                high_time=high_time,
                elasticity=elasticity,
            )
        )
    return SensitivityReport(baseline=baseline, points=points)
