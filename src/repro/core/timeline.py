"""Timeline and potential-set estimators over the download chain.

These produce the two model-side series of the paper's Figure 1:

* :func:`potential_ratio_by_pieces` — E[ i / s | b ] as a function of
  the number of downloaded pieces ``b`` (Figure 1(a));
* the expected first-passage time (in piece-exchange rounds) to each
  piece count ``b`` (Figure 1(b)), which
  ``solve(params, "timeline", method="batch")`` answers.

Both are Monte-Carlo estimators over independent chain trajectories,
sampled on the vectorized
:class:`~repro.core.batch.BatchChainSampler`, which advances all
``runs`` trajectories simultaneously (memory ``O(runs · T_max)`` for
the longest trajectory ``T_max``).
The noise-free answers to the same questions come from
``solve(params, quantity, "exact")`` (the compiled sparse operator's
fundamental-matrix solve, :mod:`repro.core.sparse`) and ``"meanfield"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.batch import BatchChainSampler
from repro.core.chain import DownloadChain
from repro.core.phases import Phase

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
) -> TimelineResult:
    """Monte-Carlo estimate of first-passage rounds to each piece count.

    Piece counts can advance by more than one per round (``n`` pieces
    arrive in parallel), so "first passage to ``b``" means the first
    round at which the peer holds *at least* ``b`` pieces.
    """
    hits = BatchChainSampler(chain).sample(runs, seed=seed).first_passage()
    return TimelineResult(
        pieces=np.arange(chain.params.num_pieces + 1),
        mean_steps=hits.mean(axis=0),
        std_steps=hits.std(axis=0),
        runs=runs,
    )


def potential_ratio_by_pieces(
    chain: DownloadChain,
    *,
    runs: int = 64,
    seed: Optional[int] = None,
) -> PotentialRatioResult:
    """Monte-Carlo estimate of E[ i / s | b ] (paper Figure 1(a)).

    For each trajectory, every round spent holding exactly ``b`` pieces
    contributes one sample of ``i / s``; samples are pooled across runs.
    """
    sums, counts = (
        BatchChainSampler(chain).sample(runs, seed=seed).potential_accumulators()
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return PotentialRatioResult(
        pieces=np.arange(chain.params.num_pieces + 1),
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
            a noise-free engine (``solve()``'s ``exact`` or
            ``meanfield`` cell), in which case ``std`` entries are NaN
            (the engine yields the means directly, not a sampling
            spread).
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
) -> PhaseStatistics:
    """Expected rounds per phase (paper Section 3.2), sampled.

    Quantifies the paper's Section-3.2 narrative: for realistic peer
    sets the efficient/trading phase dominates ("most of the pieces are
    downloaded in this phase"), while small neighbor sets inflate the
    bootstrap and last phases.  ``solve(params, "phases", "exact")``
    gives the noise-free expected rounds.
    """
    arrays = BatchChainSampler(chain).sample(runs, seed=seed).phase_durations()
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
