"""Timeline and potential-set estimators over the download chain.

These produce the two model-side series of the paper's Figure 1:

* :func:`potential_ratio_by_pieces` — E[ i / s | b ] as a function of
  the number of downloaded pieces ``b`` (Figure 1(a));
* the expected first-passage time (in piece-exchange rounds) to each
  piece count ``b`` (Figure 1(b)), which
  ``solve(params, "timeline", method="batch"|"serial")`` answers.

Both are Monte-Carlo estimators over independent chain trajectories.
By default they run on the vectorized
:class:`~repro.core.batch.BatchChainSampler` fast path, which advances
all ``runs`` trajectories simultaneously; ``batch=False`` restores the
serial per-trajectory loop (same distribution, different RNG order —
the two paths produce statistically equivalent, not bit-identical,
estimates).  ``phase_duration_statistics(..., method="exact")``
bypasses sampling entirely: it reads the phase occupancies off the
compiled sparse operator's fundamental-matrix solve
(:mod:`repro.core.sparse`), which handles the paper-scale state space
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.batch import BatchChainSampler
from repro.core.chain import DownloadChain
from repro.core.methods import Method
from repro.core.phases import Phase, phase_durations
from repro.errors import ParameterError

__all__ = [
    "TimelineResult",
    "PotentialRatioResult",
    "PhaseStatistics",
    "potential_ratio_by_pieces",
    "phase_duration_statistics",
]


@dataclass(frozen=True)
class TimelineResult:
    """Mean first-passage times to each piece count.

    Attributes:
        pieces: array ``0..B``.
        mean_steps: ``mean_steps[b]`` is the average round at which a
            peer first holds at least ``b`` pieces.
        std_steps: per-``b`` sample standard deviation across runs.
        runs: number of Monte-Carlo trajectories averaged.
    """

    pieces: np.ndarray
    mean_steps: np.ndarray
    std_steps: np.ndarray
    runs: int

    def total_download_time(self) -> float:
        """Expected rounds to complete the whole file."""
        return float(self.mean_steps[-1])


@dataclass(frozen=True)
class PotentialRatioResult:
    """Average normalised potential-set size per piece count.

    Attributes:
        pieces: array ``0..B``.
        ratio: ``ratio[b]`` is E[ i / s ] over all rounds spent holding
            exactly ``b`` pieces (NaN where ``b`` was never observed,
            which happens when connection parallelism skips counts).
        observations: rounds contributing to each ``b``.
    """

    pieces: np.ndarray
    ratio: np.ndarray
    observations: np.ndarray


def _mean_timeline(
    chain: DownloadChain,
    *,
    runs: int = 64,
    seed: Optional[int] = None,
    batch: bool = True,
) -> TimelineResult:
    """Monte-Carlo estimate of first-passage rounds to each piece count.

    Piece counts can advance by more than one per round (``n`` pieces
    arrive in parallel), so "first passage to ``b``" means the first
    round at which the peer holds *at least* ``b`` pieces.

    Args:
        batch: step all runs simultaneously on the vectorized
            :class:`~repro.core.batch.BatchChainSampler` (default);
            ``False`` keeps the serial per-trajectory loop (same
            distribution, different RNG consumption order).
    """
    if runs < 1:
        raise ParameterError(f"runs must be >= 1, got {runs}")
    num_pieces = chain.params.num_pieces
    if batch:
        hits = BatchChainSampler(chain).sample(runs, seed=seed).first_passage()
    else:
        hits = np.zeros((runs, num_pieces + 1))
        rng = np.random.default_rng(seed)
        for run in range(runs):
            traj = chain.trajectory(rng=rng)
            first = np.full(num_pieces + 1, -1.0)
            for step, state in enumerate(traj):
                b = state.b
                # Record first passage for every count newly reached.
                lower = 0 if step == 0 else traj[step - 1].b + 1
                for reached in range(lower, b + 1):
                    if first[reached] < 0:
                        first[reached] = step
            hits[run] = first
    mean = hits.mean(axis=0)
    std = hits.std(axis=0)
    return TimelineResult(
        pieces=np.arange(num_pieces + 1),
        mean_steps=mean,
        std_steps=std,
        runs=runs,
    )


def potential_ratio_by_pieces(
    chain: DownloadChain,
    *,
    runs: int = 64,
    seed: Optional[int] = None,
    batch: bool = True,
) -> PotentialRatioResult:
    """Monte-Carlo estimate of E[ i / s | b ] (paper Figure 1(a)).

    For each trajectory, every round spent holding exactly ``b`` pieces
    contributes one sample of ``i / s``; samples are pooled across runs.

    Args:
        batch: use the vectorized batch sampler (default); ``False``
            keeps the serial per-trajectory loop.
    """
    if runs < 1:
        raise ParameterError(f"runs must be >= 1, got {runs}")
    num_pieces = chain.params.num_pieces
    s = chain.params.ns_size
    if batch:
        sums, counts = (
            BatchChainSampler(chain).sample(runs, seed=seed)
            .potential_accumulators()
        )
    else:
        sums = np.zeros(num_pieces + 1)
        counts = np.zeros(num_pieces + 1)
        rng = np.random.default_rng(seed)
        for _ in range(runs):
            for state in chain.trajectory(rng=rng):
                sums[state.b] += state.i / s
                counts[state.b] += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return PotentialRatioResult(
        pieces=np.arange(num_pieces + 1),
        ratio=ratio,
        observations=counts,
    )


@dataclass(frozen=True)
class PhaseStatistics:
    """Monte-Carlo phase-duration statistics (paper Section 3.2).

    Attributes:
        mean / std: expected rounds (and spread) per phase.
        occupancy: fraction of the total download spent per phase.
        runs: trajectories averaged; 0 means the statistics came from
            the exact fundamental-matrix solve (``method="exact"``), in
            which case ``std`` entries are NaN (the solve yields the
            exact means directly, not a sampling spread).
    """

    mean: Dict[Phase, float]
    std: Dict[Phase, float]
    occupancy: Dict[Phase, float]
    runs: int

    def dominant(self) -> Phase:
        """The phase with the largest expected duration."""
        return max(self.mean, key=self.mean.get)


def phase_duration_statistics(
    chain: DownloadChain,
    *,
    runs: int = 64,
    seed: Optional[int] = None,
    batch: bool = True,
    method: Optional[str] = None,
) -> PhaseStatistics:
    """Expected rounds per phase (paper Section 3.2).

    Quantifies the paper's Section-3.2 narrative: for realistic peer
    sets the efficient/trading phase dominates ("most of the pieces are
    downloaded in this phase"), while small neighbor sets inflate the
    bootstrap and last phases.

    Args:
        batch: use the vectorized batch sampler (default); ``False``
            keeps the serial per-trajectory loop.  Ignored when
            ``method`` is given explicitly.
        method: ``"batch"`` / ``"serial"`` (alias ``"monte-carlo"``)
            select the Monte-Carlo paths (defaulting from ``batch``);
            ``"exact"`` reads the expected phase occupancies off the
            sparse fundamental-matrix solve — no sampling,
            ``runs``/``seed`` ignored, result has ``runs == 0`` and NaN
            ``std``.
    """
    phases = (Phase.BOOTSTRAP, Phase.EFFICIENT, Phase.LAST)
    method = Method.parse(
        method,
        allowed=(Method.BATCH, Method.SERIAL, Method.EXACT),
        default=Method.BATCH if batch else Method.SERIAL,
    )
    if method is Method.EXACT:
        solution = chain.kernel.sparse_operator().solution()
        mean = {
            phase: float(solution.phase_rounds[phase]) for phase in phases
        }
        total = sum(mean.values()) or 1.0
        return PhaseStatistics(
            mean=mean,
            std={phase: float("nan") for phase in phases},
            occupancy={phase: mean[phase] / total for phase in phases},
            runs=0,
        )
    if runs < 1:
        raise ParameterError(f"runs must be >= 1, got {runs}")
    if method is Method.BATCH:
        arrays = BatchChainSampler(chain).sample(runs, seed=seed).phase_durations()
    else:
        samples: Dict[Phase, list] = {phase: [] for phase in phases}
        rng = np.random.default_rng(seed)
        for _ in range(runs):
            durations = phase_durations(
                chain.trajectory(rng=rng), chain.params.num_pieces
            )
            for phase in phases:
                samples[phase].append(durations[phase])
        arrays = {
            phase: np.asarray(samples[phase], dtype=float) for phase in phases
        }
    totals = sum(arrays.values())
    total_mean = float(totals.mean()) or 1.0
    return PhaseStatistics(
        mean={phase: float(arr.mean()) for phase, arr in arrays.items()},
        std={phase: float(arr.std()) for phase, arr in arrays.items()},
        occupancy={
            phase: float(arr.mean()) / total_mean for phase, arr in arrays.items()
        },
        runs=runs,
    )

