"""Vectorized Monte-Carlo stepping of the download chain.

:class:`BatchChainSampler` advances *all* ``runs`` trajectories of one
parameter set simultaneously.  Where the serial
:meth:`~repro.core.chain.DownloadChain.trajectory` pays Python call and
dict-lookup overhead per state per run, the batch sampler compiles the
``g``/``h`` kernels into dense cumulative tables (see
:meth:`~repro.core.transitions.TransitionKernel.dense_tables`) and steps
the whole batch with one vectorized uniform draw plus one table lookup
per sub-kernel per round:

* ``b' = 1`` where ``b == 0``, else ``min(b + n, B)`` — pure array math;
* ``i' ~ g``: gather rows ``g_cum[c, i == 0]`` and inverse-transform the
  batch against one ``rng.random(m)`` draw;
* ``n' ~ h``: gather rows ``h_cum[n, free]`` with
  ``free = max(min(i', k) - n, 0)`` and inverse-transform again, masking
  the deterministic ``c == 0`` branch to 0.

Completed runs are frozen (their state stops updating) and the loop
ends when every run holds all ``B`` pieces.  The per-round states are
recorded as ``(T + 1, runs)`` history matrices from which the Figure-1
estimators (first-passage timeline, potential ratio, phase durations)
are computed by vectorized post-processing.

The batch path draws the *same distributions* as
:meth:`~repro.core.chain.DownloadChain.trajectory` but in a different
RNG order (two pooled draws per round instead of two draws per run per
round).  It is the one Monte-Carlo estimator behind ``solve()``;
``tests/core/test_batch.py`` pins it against the exact absorbing-chain
solver and re-derives its statistics from its own trajectories with the
per-state phase classifier and pooling.  Its histories cost
``O(runs · T_max)`` memory, ``T_max`` being the longest trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.parameters import ModelParameters
from repro.core.phases import Phase
from repro.core.transitions import TransitionKernel
from repro.errors import ParameterError, SimulationError

__all__ = ["BatchTrajectories", "BatchChainSampler"]


@dataclass(frozen=True)
class BatchTrajectories:
    """State histories of one batched sampling run.

    Attributes:
        params: the parameter set sampled under.
        n_hist / b_hist / i_hist: ``(T + 1, runs)`` state coordinates,
            row ``t`` holding every run's state after ``t`` rounds
            (row 0 is the initial state).  Rows past a run's completion
            repeat its final state (``b == B``).
        steps: per-run rounds to completion — run ``r``'s trajectory is
            ``rows 0 .. steps[r]`` inclusive, matching the
            :meth:`~repro.core.chain.DownloadChain.trajectory` contract
            (length minus one is the download time).
    """

    params: ModelParameters
    n_hist: np.ndarray
    b_hist: np.ndarray
    i_hist: np.ndarray
    steps: np.ndarray

    @property
    def runs(self) -> int:
        return self.b_hist.shape[1]

    @property
    def total_steps(self) -> int:
        """Chain steps actually sampled (the telemetry event count)."""
        return int(self.steps.sum())

    # ------------------------------------------------------------------
    # Estimator post-processing
    # ------------------------------------------------------------------
    def first_passage(self) -> np.ndarray:
        """Per-run first-passage rounds to each piece count.

        ``out[r, x]`` is the first round at which run ``r`` held at
        least ``x`` pieces; piece counts are non-decreasing per run, so
        this is a searchsorted over each run's ``b`` column.
        """
        num_pieces = self.params.num_pieces
        targets = np.arange(num_pieces + 1)
        out = np.empty((self.runs, num_pieces + 1))
        for run in range(self.runs):
            out[run] = np.searchsorted(
                self.b_hist[:, run], targets, side="left"
            )
        return out

    def potential_accumulators(self) -> tuple:
        """Pooled ``i / s`` accumulators per piece count.

        Returns ``(sums, counts)`` over every state of every
        trajectory — including the initial and final states.
        """
        num_pieces = self.params.num_pieces
        s = self.params.ns_size
        rounds = self.b_hist.shape[0]
        valid = np.arange(rounds)[:, None] <= self.steps[None, :]
        b_flat = self.b_hist[valid]
        i_flat = self.i_hist[valid]
        sums = np.bincount(
            b_flat, weights=i_flat / s, minlength=num_pieces + 1
        )
        counts = np.bincount(b_flat, minlength=num_pieces + 1).astype(float)
        return sums, counts

    def phase_durations(self) -> Dict[Phase, np.ndarray]:
        """Per-run rounds spent in each non-terminal phase.

        Matches :func:`repro.core.phases.phase_durations` run by run:
        the terminal complete state contributes nothing, every earlier
        state contributes one round to exactly one phase.
        """
        rounds = self.b_hist.shape[0]
        valid = np.arange(rounds)[:, None] < self.steps[None, :]
        bootstrap = (self.b_hist + self.n_hist <= 1) & valid
        last = (self.i_hist == 0) & ~bootstrap & valid
        efficient = valid & ~bootstrap & ~last
        return {
            Phase.BOOTSTRAP: bootstrap.sum(axis=0).astype(float),
            Phase.EFFICIENT: efficient.sum(axis=0).astype(float),
            Phase.LAST: last.sum(axis=0).astype(float),
        }


class BatchChainSampler:
    """Vectorized sampler over the download chain of one parameter set.

    Args:
        source: a :class:`ModelParameters` value or anything carrying
            ``.params`` and ``.kernel`` (a
            :class:`~repro.core.chain.DownloadChain`), whose cached
            kernel — and therefore dense tables — is then reused.

    Example:
        >>> from repro.core.batch import BatchChainSampler
        >>> from repro.core.parameters import ModelParameters
        >>> sampler = BatchChainSampler(
        ...     ModelParameters(num_pieces=20, max_conns=3, ns_size=8))
        >>> batch = sampler.sample(runs=16, seed=7)
        >>> int(batch.b_hist[-1].min())
        20
    """

    #: Hard cap multiplier on the round count, mirroring
    #: :attr:`repro.core.chain.DownloadChain.MAX_STEPS_FACTOR`.
    MAX_STEPS_FACTOR = 10_000

    def __init__(self, source):
        if isinstance(source, ModelParameters):
            self.params = source
            self.kernel = TransitionKernel(source)
        else:
            self.params = source.params
            self.kernel = source.kernel
        tables = self.kernel.dense_tables()
        self._g_cum = tables.g_cum
        self._h_cum = tables.h_cum

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step_batch(
        self,
        n: np.ndarray,
        b: np.ndarray,
        i: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple:
        """Advance every (incomplete) state one round; returns arrays.

        All inputs must satisfy ``b < B``; the caller masks completed
        runs out of the batch before stepping.
        """
        params = self.params
        num_pieces = params.num_pieces
        s = params.ns_size
        k = params.max_conns

        c = np.minimum(b + n, num_pieces)
        b_next = np.where(b == 0, 1, c)

        g_rows = self._g_cum[c, (i == 0).astype(np.intp)]
        u1 = rng.random(c.size)
        i_next = np.minimum(
            (g_rows <= u1[:, None]).sum(axis=1), s
        ).astype(i.dtype)

        free = np.maximum(np.minimum(i_next, k) - n, 0)
        h_rows = self._h_cum[n, free]
        u2 = rng.random(c.size)
        n_next = np.minimum(
            (h_rows <= u2[:, None]).sum(axis=1), k
        ).astype(n.dtype)
        n_next[c == 0] = 0
        return n_next, b_next.astype(b.dtype), i_next

    def sample(
        self,
        runs: int,
        *,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        max_steps: Optional[int] = None,
    ) -> BatchTrajectories:
        """Sample ``runs`` trajectories from ``(0, 0, 0)`` until ``b == B``.

        Raises:
            SimulationError: if any run exceeds ``max_steps`` (default
                ``MAX_STEPS_FACTOR * B``) without completing, indicating
                starvation parameters — the same guard as
                :meth:`~repro.core.chain.DownloadChain.trajectory`.
        """
        if runs < 1:
            raise ParameterError(f"runs must be >= 1, got {runs}")
        if rng is None:
            rng = np.random.default_rng(seed)
        params = self.params
        num_pieces = params.num_pieces
        limit = max_steps or self.MAX_STEPS_FACTOR * num_pieces

        dtype = np.int64
        n = np.zeros(runs, dtype=dtype)
        b = np.zeros(runs, dtype=dtype)
        i = np.zeros(runs, dtype=dtype)
        steps = np.zeros(runs, dtype=dtype)
        n_rows = [n.copy()]
        b_rows = [b.copy()]
        i_rows = [i.copy()]

        active = np.flatnonzero(b < num_pieces)
        step = 0
        while active.size:
            step += 1
            if step > limit:
                raise SimulationError(
                    f"{active.size} of {runs} batched trajectories exceeded "
                    f"{limit} steps without completing; parameters: "
                    f"{params.describe()}"
                )
            n_act, b_act, i_act = self.step_batch(
                n[active], b[active], i[active], rng
            )
            n[active] = n_act
            b[active] = b_act
            i[active] = i_act
            steps[active] = step
            n_rows.append(n.copy())
            b_rows.append(b.copy())
            i_rows.append(i.copy())
            active = active[b_act < num_pieces]

        return BatchTrajectories(
            params=params,
            n_hist=np.vstack(n_rows),
            b_hist=np.vstack(b_rows),
            i_hist=np.vstack(i_rows),
            steps=steps,
        )
