"""Runnable stability experiments (paper Figures 3/4(b) and 3/4(c)).

The paper's setup: start the swarm "from an initial state with a high
skewness", drive it with a Poisson arrival stream, and watch two
series — the population (number of peers in the system) and the entropy
``E``.  With too few pieces (``B = 3``) the system never recovers: the
entropy collapses toward 0 and the population grows without bound.
With enough pieces (``B = 10``) rarest-first repairs the skew: entropy
drifts back to 1 and the population stabilises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ParameterError
from repro.sim.config import SimConfig
from repro.sim.metrics import MetricsCollector
from repro.sim.swarm import Swarm, SwarmResult

__all__ = [
    "StabilityRun",
    "run_stability_experiment",
    "stability_config",
]


@dataclass
class StabilityRun:
    """Result of one stability run.

    Attributes:
        result: the raw :class:`SwarmResult`.
        times / population / entropy: aligned series (population counts
            leechers + seeds, i.e. "# of peers" as the paper plots it).
        diverged: population at the horizon exceeds ``divergence_factor``
            times the initial population.
        entropy_recovered: the mean entropy over the final quarter of
            the run exceeds ``recovery_level``.
    """

    result: SwarmResult
    times: np.ndarray
    population: np.ndarray
    entropy: np.ndarray
    diverged: bool
    entropy_recovered: bool

    def final_entropy(self) -> float:
        return float(self.entropy[-1]) if self.entropy.size else float("nan")

    def final_population(self) -> int:
        return int(self.population[-1]) if self.population.size else 0


def stability_config(
    num_pieces: int,
    *,
    arrival_rate: float = 20.0,
    initial_leechers: int = 400,
    max_conns: int = 4,
    ns_size: int = 40,
    skew_factor: float = 0.05,
    seed_upload_slots: int = 2,
    max_time: float = 150.0,
    seed: int = 0,
) -> SimConfig:
    """The canonical high-skew stability configuration.

    A large initial population holds every piece with probability 0.5
    except the first (``skewed_pieces = 1``) which is held with
    probability ``0.5 * skew_factor`` — the high-skew start.  A single
    origin seed with limited upload capacity is the only reliable source
    of the rare piece, exactly the regime where ``B`` decides the
    outcome: with ``B = 3`` a peer that acquires the rare piece departs
    almost immediately (no trading window to replicate it), so the rare
    piece's service rate stays pinned at the origin seed's capacity and
    the arrival stream piles up; with ``B = 10`` holders keep uploading
    it rarest-first for several rounds, replication compounds, and the
    skew heals.

    ``random_first_cutoff`` is set to 1: the default of 4 random-first
    pieces is a rounding error for real torrents (B in the hundreds)
    but would disable rarest-first for most of a 3- or 10-piece
    download.
    """
    return SimConfig(
        num_pieces=num_pieces,
        max_conns=max_conns,
        ns_size=ns_size,
        arrival_process="poisson",
        arrival_rate=arrival_rate,
        initial_leechers=initial_leechers,
        initial_distribution="skewed",
        initial_fill=0.5,
        skewed_pieces=1,
        skew_factor=skew_factor,
        num_seeds=1,
        seed_upload_slots=seed_upload_slots,
        piece_selection="rarest",
        optimistic_targets="empty",
        random_first_cutoff=1,
        max_time=max_time,
        seed=seed,
    )


def run_stability_experiment(
    config: SimConfig,
    *,
    divergence_factor: float = 2.0,
    recovery_level: float = 0.5,
    entropy_every: int = 2,
    backend: str = "object",
    profile: bool = False,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: int = 0,
) -> StabilityRun:
    """Run one stability experiment and classify the outcome.

    Args:
        config: typically from :func:`stability_config`.
        divergence_factor: population growth ratio that counts as
            divergence.
        recovery_level: entropy level (over the final quarter) that
            counts as recovered.
        entropy_every: entropy sampling stride in rounds (entropy costs
            O(N * B) per sample).
        profile: run the swarm with its per-stage round profiler; the
            stage totals ride on ``result.round_profile``.
        checkpoint_path / checkpoint_every: when set (the executor
            injects them for checkpointable tasks), the swarm snapshots
            every ``checkpoint_every`` rounds and resumes from an
            existing snapshot instead of recomputing finished rounds —
            with a bit-identical result either way.
    """
    if divergence_factor <= 1.0:
        raise ParameterError(
            f"divergence_factor must be > 1, got {divergence_factor}"
        )
    if not 0.0 < recovery_level <= 1.0:
        raise ParameterError(
            f"recovery_level must be in (0, 1], got {recovery_level}"
        )
    if checkpoint_path is not None:
        from repro.checkpoint.store import run_swarm_with_checkpoints

        result = run_swarm_with_checkpoints(
            config,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            metrics=MetricsCollector(
                config.max_conns, entropy_every=entropy_every
            ),
            backend=backend,
            profile=profile,
        )
        metrics = result.metrics
    else:
        metrics = MetricsCollector(
            config.max_conns, entropy_every=entropy_every
        )
        swarm = Swarm(
            config, metrics=metrics, backend=backend, profile=profile
        )
        result = swarm.run()

    times, leech, seeds = metrics.population_arrays()
    population = leech + seeds
    e_times, e_values = metrics.entropy_arrays()
    # Align entropy onto the population timeline (it is sampled every
    # ``entropy_every`` rounds): step interpolation.
    if e_times.size and times.size:
        idx = np.searchsorted(e_times, times, side="right") - 1
        idx = np.clip(idx, 0, e_values.size - 1)
        entropy_series = e_values[idx]
    else:
        entropy_series = np.array([])

    initial_pop = config.initial_leechers + config.num_seeds
    final_pop = int(population[-1]) if population.size else 0
    diverged = final_pop > divergence_factor * max(initial_pop, 1)

    if entropy_series.size:
        tail = entropy_series[-max(entropy_series.size // 4, 1):]
        entropy_recovered = float(tail.mean()) >= recovery_level
    else:
        entropy_recovered = False

    return StabilityRun(
        result=result,
        times=times,
        population=population,
        entropy=entropy_series,
        diverged=diverged,
        entropy_recovered=entropy_recovered,
    )

