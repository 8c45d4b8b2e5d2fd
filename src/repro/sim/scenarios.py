"""Curated swarm scenarios.

The experiments and benches each tune their own :class:`SimConfig`;
this module collects the recurring regimes behind them as named,
documented factories so downstream users can start from a situation
rather than twenty keyword arguments.  Every factory returns a plain
validated :class:`SimConfig`; pass overrides for anything specific.
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.sim.config import SimConfig

__all__ = [
    "steady_state",
    "flash_crowd",
    "cold_start",
    "starved_neighborhoods",
    "heterogeneous_bandwidth",
    "streaming",
    "SCENARIOS",
]


def steady_state(num_pieces: int = 60, *, seed: int = 0, **overrides) -> SimConfig:
    """A healthy steady swarm: Poisson arrivals balancing departures.

    Diverse half-filled initial population, realistic neighbor sets,
    one origin seed.  The regime behind the efficiency measurements.
    """
    base = dict(
        num_pieces=num_pieces,
        max_conns=4,
        ns_size=30,
        arrival_process="poisson",
        arrival_rate=3.0,
        initial_leechers=80,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=1,
        seed_upload_slots=2,
        optimistic_unchoke_prob=0.5,
        piece_selection="rarest",
        max_time=150.0,
        seed=seed,
    )
    base.update(overrides)
    return SimConfig(**base)


def flash_crowd(
    num_pieces: int = 40, crowd: int = 200, *, seed: int = 0, **overrides
) -> SimConfig:
    """A burst of empty peers at t = 0 served by one origin seed.

    Completed peers linger briefly so capacity compounds — the regime
    where the [12] logarithmic-makespan result shows
    (`tests/paper/test_extension_flash_crowd.py`).
    """
    if crowd < 1:
        raise ParameterError(f"crowd must be >= 1, got {crowd}")
    base = dict(
        num_pieces=num_pieces,
        max_conns=4,
        ns_size=25,
        arrival_process="flash",
        flash_size=crowd,
        arrival_rate=0.0,
        initial_leechers=0,
        num_seeds=1,
        seed_upload_slots=4,
        optimistic_unchoke_prob=0.6,
        piece_selection="rarest",
        completed_become_seeds=30.0,
        max_time=400.0,
        seed=seed,
    )
    base.update(overrides)
    return SimConfig(**base)


def cold_start(num_pieces: int = 60, *, seed: int = 0, **overrides) -> SimConfig:
    """Everything descends from the origin seed (empty initial swarm).

    The regime where seeding policy matters most (the Section-7.2
    study); undersupply the seed and the swarm starves.
    """
    base = dict(
        num_pieces=num_pieces,
        max_conns=4,
        ns_size=25,
        arrival_process="poisson",
        arrival_rate=2.0,
        initial_leechers=50,
        initial_distribution="empty",
        num_seeds=1,
        seed_upload_slots=4,
        optimistic_unchoke_prob=0.5,
        piece_selection="rarest",
        max_time=150.0,
        seed=seed,
    )
    base.update(overrides)
    return SimConfig(**base)


def starved_neighborhoods(
    num_pieces: int = 120, *, seed: int = 0, **overrides
) -> SimConfig:
    """Small, static, clustered neighbor sets: the last-piece regime.

    No neighbor-set refills and a hard inbound-acceptance cap — the
    setting of the Figure 3/4(d) shaking experiment, where the last
    download phase bites hardest.
    """
    base = dict(
        num_pieces=num_pieces,
        max_conns=4,
        ns_size=8,
        arrival_process="poisson",
        arrival_rate=1.0,
        initial_leechers=50,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=1,
        seed_upload_slots=2,
        optimistic_unchoke_prob=0.5,
        optimistic_targets="empty",
        piece_selection="rarest",
        announce_interval=1000.0,
        ns_accept_factor=1.0,
        max_time=500.0,
        seed=seed,
    )
    base.update(overrides)
    return SimConfig(**base)


def heterogeneous_bandwidth(
    num_pieces: int = 60, *, seed: int = 0, **overrides
) -> SimConfig:
    """Half slow (1 upload/round), half fast (4/round) leechers.

    Under strict tit-for-tat the reciprocity coupling makes slow
    uploaders slow downloaders too
    (`tests/paper/test_extension_heterogeneous.py`).
    """
    base = dict(
        num_pieces=num_pieces,
        max_conns=4,
        ns_size=25,
        arrival_process="poisson",
        arrival_rate=2.0,
        initial_leechers=60,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=1,
        seed_upload_slots=2,
        bandwidth_classes=((0.5, 1), (0.5, 4)),
        piece_selection="rarest",
        max_time=120.0,
        seed=seed,
    )
    base.update(overrides)
    return SimConfig(**base)


def streaming(num_pieces: int = 40, *, seed: int = 0, **overrides) -> SimConfig:
    """Tight-bandwidth swarm with windowed in-order selection.

    Pairs with :mod:`repro.analysis.streaming`: bandwidth-style
    reciprocity plus a sliding in-order window — the scheduling regime
    where streaming startup delays beat rarest-first.
    """
    base = dict(
        num_pieces=num_pieces,
        max_conns=2,
        ns_size=20,
        arrival_process="poisson",
        arrival_rate=1.5,
        initial_leechers=30,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=1,
        seed_upload_slots=2,
        piece_selection="windowed",
        strict_tft=False,
        max_time=120.0,
        seed=seed,
    )
    base.update(overrides)
    return SimConfig(**base)


#: Name -> factory registry (CLI / docs discovery).
SCENARIOS = {
    "steady-state": steady_state,
    "flash-crowd": flash_crowd,
    "cold-start": cold_start,
    "starved-neighborhoods": starved_neighborhoods,
    "heterogeneous-bandwidth": heterogeneous_bandwidth,
    "streaming": streaming,
}
