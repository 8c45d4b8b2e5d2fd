"""Experiment runners: one per figure panel of the paper's evaluation.

Every runner is registered with :func:`register_experiment` and returns
a structured result satisfying the
:class:`~repro.experiments.result.ExperimentResult` protocol — the
exact series the corresponding figure plots, a ``format()`` method
producing printable rows, a ``to_dict()`` JSON view, and a ``timing``
telemetry record from the executor that produced it.  Paper-scale
parameters are the defaults; the paper tests call the same runners at
reduced scale, and every runner accepts ``workers=N`` to fan its replications
and sweep points over a process pool with bit-identical results.

==========  =========================================================
``fig1a``   potential-set ratio vs. pieces downloaded (model), PSS sweep
``fig1b``   evolution timeline, model vs. simulation, PSS in {5, 50}
``fig2``    the three trace archetypes (smooth / last / bootstrap)
``fig3a``   efficiency vs. k, model vs. simulation  (text: Fig. 4(a))
``fig3bc``  population and entropy vs. time for B = 3 vs B = 10
``fig3d``   time-to-download of the last blocks, normal vs. shake
==========  =========================================================
"""

from repro.experiments.fig1a import Fig1aResult, run_fig1a
from repro.experiments.fig1b import Fig1bResult, run_fig1b
from repro.experiments.fig2 import Fig2Result, run_fig2
from repro.experiments.fig3a import Fig3aResult, run_fig3a
from repro.experiments.fig3bc import Fig3bcResult, run_fig3bc
from repro.experiments.fig3d import Fig3dResult, run_fig3d
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentSpec,
    get_experiment,
    list_experiments,
    register_experiment,
)
from repro.experiments.result import ExperimentResult, to_jsonable
from repro.experiments.seeding import SeedingResult, run_seeding_study

__all__ = [
    "Fig1aResult",
    "run_fig1a",
    "Fig1bResult",
    "run_fig1b",
    "Fig2Result",
    "run_fig2",
    "Fig3aResult",
    "run_fig3a",
    "Fig3bcResult",
    "run_fig3bc",
    "Fig3dResult",
    "run_fig3d",
    "EXPERIMENTS",
    "ExperimentSpec",
    "ExperimentResult",
    "get_experiment",
    "list_experiments",
    "register_experiment",
    "to_jsonable",
    "SeedingResult",
    "run_seeding_study",
]
