"""The module-level model task the figure runners fan out.

The Figure-1 runners answer one model quantity per parameter set, so
their fan-out unit is one :func:`repro.api.solve` call.  The task is
module-level (workers unpickle it by reference), takes its seed as a
``solve()`` option pre-derived by the runner, and resolves chains and
operators through the process-wide
:func:`~repro.runtime.cache.shared_cache`, so repeated parameter sets
share one compiled kernel per process.
"""

from __future__ import annotations

from typing import Any

from repro.api import solve
from repro.core.methods import Method
from repro.core.parameters import ModelParameters

__all__ = ["solve_task"]

#: The ``solve()`` stat each engine counts its work in.
_WORK_STAT = {
    Method.EXACT: "transient_states",
    Method.BATCH: "runs",
    Method.MEANFIELD: "nfev",
}


def solve_task(
    params: ModelParameters, quantity: str, method: str, **options: Any
) -> tuple:
    """One ``solve(params, quantity, method, **options)`` as a task.

    Returns:
        ``(payload, work)`` — the solve's payload, bit-identical to a
        direct call, and its work count for the telemetry's event
        counter: transient states solved (exact), trajectories sampled
        (batch) or right-hand-side evaluations (mean-field).
    """
    result = solve(params, quantity, method, **options)
    return result.payload, int(result.stats[_WORK_STAT[result.method]])
