"""Shared plumbing for the figure runners.

Every runner builds its parameters as canonical
:class:`~repro.api.ModelParams`, resolves its ``method`` argument
through the one :class:`~repro.core.methods.Method` vocabulary (aliases
such as ``"sparse"`` and ``"mean-field"`` are accepted everywhere), and
constructs its executor through :func:`make_executor`, so checkpoint
wiring and worker-count handling are identical across figures.
"""

from __future__ import annotations

from typing import Union

from repro.core.methods import Method
from repro.runtime.executor import ExperimentExecutor
from repro.runtime.seeding import derive_seed

__all__ = [
    "resolve_model_method",
    "model_options",
    "make_executor",
    "checkpoint_interval",
]


def resolve_model_method(method: Union[Method, str]) -> Method:
    """Parse a runner's ``method`` argument into the unified vocabulary.

    Accepts ``exact``/``batch``/``meanfield`` plus their aliases
    (``sparse``, ``mean-field``, ...).  Anything else raises an
    actionable :class:`~repro.errors.ParameterError` listing the valid
    choices.
    """
    return Method.parse(
        method, allowed=(Method.EXACT, Method.BATCH, Method.MEANFIELD)
    )


def model_options(method: Method, runs: int, seed: int, offset: int) -> dict:
    """``solve()`` options of one parameter set's model task.

    Only the batch sampler takes ``runs`` and ``seed``; its seed is
    derived per parameter set (``derive_seed(seed, offset)``), so any
    worker count reproduces the same curves.
    """
    if method is Method.BATCH:
        return {"runs": runs, "seed": derive_seed(seed, offset)}
    return {}


def make_executor(
    *,
    workers: int = 1,
    checkpoint_dir=None,
) -> ExperimentExecutor:
    """The executor a figure runner fans its tasks over."""
    if checkpoint_dir is not None:
        return ExperimentExecutor(workers=workers, checkpoint_dir=checkpoint_dir)
    return ExperimentExecutor(workers=workers)


def checkpoint_interval(checkpoint_dir, checkpoint_every: int) -> int:
    """Effective checkpoint interval: 0 (disabled) without a directory."""
    return checkpoint_every if checkpoint_dir is not None else 0
