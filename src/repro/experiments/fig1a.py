"""Figure 1(a): effect of the peer-set size on the potential set.

The model chain is run for each peer-set size (PSS) and the normalised
potential-set size E[ i / s | b ] is plotted against the number of
downloaded pieces ``b``.  Paper setting: B = 200 pieces, PSS in
{5, 10, 25, 40}.  Expected shape: ~0.5 near the first piece, a plateau
near 1 around mid-download, a decline toward ~0.5 at the end; small PSS
curves run lower/noisier and visit 0 (bootstrap/last phases occur).

The default method is ``"exact"``: the compiled sparse operator
(:mod:`repro.core.sparse`) computes the noise-free curve directly at
paper scale, one fundamental-matrix solve per PSS.  Each PSS is one
:func:`~repro.runtime.tasks.solve_task` fanned out through the
:class:`~repro.runtime.executor.ExperimentExecutor`; the batch sampler's
seed is derived per PSS, so ``workers=4`` reproduces ``workers=1``
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.api import ModelParams
from repro.core.parameters import ModelParameters
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

__all__ = ["Fig1aResult", "run_fig1a"]


@dataclass
class Fig1aResult:
    """Series for Figure 1(a).

    Attributes:
        pieces: x-axis, ``0..B``.
        ratios: per PSS, the E[ i / s | b ] curve (NaN where ``b`` was
            skipped by parallel arrivals).
        params: per PSS, the model parameters used.
        method: how the curves were computed (``"exact"``,
            ``"batch"`` or ``"meanfield"``).
        timing: execution telemetry of the producing run.
    """

    pieces: np.ndarray
    ratios: Dict[int, np.ndarray]
    params: Dict[int, ModelParameters]
    method: str = "exact"
    timing: Optional[Telemetry] = field(default=None, compare=False)

    def format(self, *, max_rows: int = 21) -> str:
        """Printable rows: one column per PSS curve."""
        pss_values = sorted(self.ratios)
        idx = np.linspace(0, self.pieces.size - 1, max_rows).round().astype(int)
        headers = ["pieces"] + [f"PSS={s}" for s in pss_values]
        rows = []
        for i in idx:
            row = [int(self.pieces[i])]
            for s in pss_values:
                value = self.ratios[s][i]
                row.append(float(value) if np.isfinite(value) else float("nan"))
            rows.append(row)
        return "Figure 1(a): potential-set size / neighbor-set size vs pieces\n" + \
            format_table(headers, rows)

    def to_dict(self) -> dict:
        return {
            "experiment": "F1a",
            "pieces": to_jsonable(self.pieces),
            "ratios": to_jsonable(self.ratios),
            "params": {
                str(s): params.describe() for s, params in self.params.items()
            },
            "method": self.method,
            "timing": self.timing.to_dict() if self.timing else None,
        }


@register_experiment(
    "F1a",
    figure="Figure 1(a)",
    description="potential-set ratio vs pieces downloaded (model, PSS sweep)",
    quick_kwargs={"num_pieces": 60, "runs": 12, "pss_values": (5, 10, 25)},
)
def run_fig1a(
    pss_values: Sequence[int] = (5, 10, 25, 40),
    *,
    num_pieces: int = 200,
    max_conns: int = 7,
    runs: int = 48,
    seed: int = 0,
    alpha: float = 0.2,
    gamma: float = 0.2,
    method: str = "exact",
    workers: int = 1,
) -> Fig1aResult:
    """Reproduce the Figure 1(a) model curves.

    Args:
        pss_values: neighbor-set sizes to sweep (paper: 5, 10, 25, 40).
        num_pieces: ``B`` (paper: 200).
        max_conns: ``k`` (paper: 7 — "more than k = 7 other peers").
        runs: Monte-Carlo trajectories per PSS (``batch`` only).
        alpha / gamma: bootstrap and last-phase escape probabilities.
        method: ``"exact"`` (default) reads the noise-free curve off the
            compiled sparse operator's fundamental-matrix solve — one
            deterministic task per PSS, paper scale included.
            ``"meanfield"`` reads it off the large-swarm ODE limit
            (also one deterministic task per PSS, milliseconds at any
            scale).  ``"batch"`` samples ``runs`` trajectories per PSS
            on the vectorized
            :class:`~repro.core.batch.BatchChainSampler`, a sampling
            cross-check.
        workers: executor process count; results are identical for any
            value (each PSS is independently seeded).
    """
    if not pss_values:
        raise ParameterError("pss_values must be non-empty")
    method = resolve_model_method(method)
    executor = make_executor(workers=workers)
    params: Dict[int, ModelParameters] = {
        pss: ModelParams(
            num_pieces=num_pieces,
            max_conns=max_conns,
            ns_size=pss,
            alpha=alpha,
            gamma=gamma,
        )
        for pss in pss_values
    }
    tasks = [
        TaskSpec(
            solve_task,
            (params[pss], "potential_ratio", method),
            model_options(method, runs, seed, offset),
        )
        for offset, pss in enumerate(pss_values)
    ]
    ratios: Dict[int, np.ndarray] = {}
    for pss, (payload, work) in zip(pss_values, executor.run(tasks)):
        executor.record_events(work)
        ratios[pss] = payload.ratio
    return Fig1aResult(
        pieces=np.arange(num_pieces + 1),
        ratios=ratios,
        params=params,
        method=method.value,
        timing=executor.telemetry,
    )
