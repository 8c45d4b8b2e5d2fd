"""Swarm observers: every series the paper's figures are drawn from.

Every swarm engine (object, soa, sharded) hands the
:class:`MetricsCollector` each round through its one round hook,
:meth:`MetricsCollector.record_round`, which accumulates:

* **population** — ``(time, leechers, seeds)``, Figure 3/4(b);
* **entropy** — ``(time, E)``, Figure 3/4(c);
* **connection occupancy** — time-averaged fractions ``x_0..x_k`` of
  leechers by active-connection count, from which the simulated
  efficiency ``eta`` of Figure 3/4(a) is computed;
* **completed downloads** — per-peer durations and piece timelines
  (instrumented peers keep their full per-round series, mirroring the
  paper's modified BitTornado client).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.efficiency.balance import efficiency_from_occupancy
from repro.errors import ParameterError
from repro.sim.peer import Peer, PeerStats
from repro.stability.entropy import entropy

__all__ = ["CompletedDownload", "MetricsCollector"]


@dataclass(frozen=True)
class CompletedDownload:
    """Summary of one finished download.

    Attributes:
        peer_id: the downloader.
        joined_at / completed_at: arrival and completion times.
        stats: the peer's full :class:`PeerStats` (piece timeline,
            potential-set series when instrumented).
        shaken: whether the peer shook its peer set during the download.
        upload_capacity: the peer's bandwidth-class capacity (None in
            the homogeneous setting).
    """

    peer_id: int
    joined_at: float
    completed_at: float
    stats: PeerStats
    shaken: bool
    upload_capacity: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.completed_at - self.joined_at


class MetricsCollector:
    """Accumulates swarm-level and per-peer series during a run.

    The engines call :meth:`record_round` once per protocol round,
    :meth:`record_abort` per abandoned download and
    :meth:`on_peer_complete` per finished one.  :attr:`population_series`
    is the run's one population log (the paper's tracker statistics).

    Entropy is taken over the replication degrees of every live peer,
    seeds included (the paper's "replication degree of the i-th piece
    in the system").  The occupancy histogram counts the leechers in
    the efficient download phase — holding at least one piece with a
    non-empty potential set — which is exactly the population the
    Section-5 connection chain models; the engines apply that filter.

    Args:
        max_conns: ``k`` (sizes the occupancy histogram).
        entropy_every: sample entropy every this many rounds (1 samples
            every round).
        occupancy_warmup: fraction of the run (by round count) discarded
            before occupancy/efficiency accumulation starts, so the
            cold-start transient does not bias the equilibrium estimate.
    """

    def __init__(
        self,
        max_conns: int,
        *,
        entropy_every: int = 1,
        occupancy_warmup: float = 0.25,
    ):
        if max_conns < 1:
            raise ParameterError(f"max_conns must be >= 1, got {max_conns}")
        if entropy_every < 1:
            raise ParameterError(f"entropy_every must be >= 1, got {entropy_every}")
        if not 0.0 <= occupancy_warmup < 1.0:
            raise ParameterError(
                f"occupancy_warmup must be in [0, 1), got {occupancy_warmup}"
            )
        self.max_conns = max_conns
        self.entropy_every = entropy_every
        self.occupancy_warmup = occupancy_warmup

        self.population_series: List[Tuple[float, int, int]] = []
        self.entropy_series: List[Tuple[float, float]] = []
        self.completed: List[CompletedDownload] = []
        #: ``(time, pieces_held_at_abort)`` for leechers that gave up.
        self.aborted: List[Tuple[float, int]] = []
        self.rounds_observed = 0
        #: Raw occupancy counts indexed by connection count, one row per
        #: round (ring-accumulated as sums to bound memory).
        self._occupancy_sums = np.zeros(max_conns + 1, dtype=np.float64)
        self._occupancy_rounds = 0
        self._round_log: List[Tuple[float, np.ndarray]] = []
        self._expected_total_rounds: Optional[int] = None

    # ------------------------------------------------------------------
    # Configuration from the swarm
    # ------------------------------------------------------------------
    def set_expected_rounds(self, total_rounds: int) -> None:
        """Tell the collector the planned run length (for warmup cutoff)."""
        self._expected_total_rounds = total_rounds

    @property
    def _warmup_rounds(self) -> int:
        if self._expected_total_rounds is None:
            return 0
        return int(self._expected_total_rounds * self.occupancy_warmup)

    # ------------------------------------------------------------------
    # Hooks called by the swarm
    # ------------------------------------------------------------------
    def record_round(
        self,
        time: float,
        leechers: int,
        seeds: int,
        *,
        degrees: Optional[np.ndarray] = None,
        conn_counts: Optional[np.ndarray] = None,
    ) -> None:
        """Record one round's swarm-level samples.

        Every engine's round ends here; the caller supplies
        pre-aggregated arrays.

        Args:
            time: round-end simulation time.
            leechers / seeds: live population counts.
            degrees: per-piece replication degrees over every live peer,
                seeds included, for the entropy sample; only consulted
                on entropy-sampling rounds.
            conn_counts: active-connection counts of the trading-scope
                leechers (the caller applies the filter); only consulted
                after the warmup.
        """
        self.rounds_observed += 1
        self.population_series.append((time, leechers, seeds))

        if self.rounds_observed % self.entropy_every == 0:
            if degrees is not None and len(degrees) and (leechers + seeds) > 0:
                self.entropy_series.append((time, entropy(degrees)))
            else:
                self.entropy_series.append((time, 1.0))

        if self.rounds_observed > self._warmup_rounds:
            if conn_counts is not None and len(conn_counts):
                clipped = np.minimum(conn_counts, self.max_conns)
                histogram = np.bincount(
                    clipped, minlength=self.max_conns + 1
                ).astype(np.float64)
                self._occupancy_sums += histogram / len(conn_counts)
                self._occupancy_rounds += 1

    def record_abort(self, time: float, pieces_held: int) -> None:
        """Record a leecher abandoning its download (the fluid theta)."""
        self.aborted.append((time, pieces_held))

    def on_peer_complete(self, peer: Peer, time: float) -> None:
        """Record a finished download (called before the peer departs)."""
        self.completed.append(
            CompletedDownload(
                peer_id=peer.peer_id,
                joined_at=peer.stats.joined_at,
                completed_at=time,
                stats=peer.stats,
                shaken=peer.shaken,
                upload_capacity=peer.upload_capacity,
            )
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def occupancy(self) -> np.ndarray:
        """Time-averaged occupancy fractions ``x_0..x_k``.

        Raises:
            ParameterError: if no post-warmup rounds were observed.
        """
        if self._occupancy_rounds == 0:
            raise ParameterError(
                "no occupancy samples recorded (run too short for the warmup?)"
            )
        return self._occupancy_sums / self._occupancy_rounds

    def efficiency(self) -> float:
        """Simulated efficiency ``eta = (1/k) * sum(i * x_i)``."""
        return efficiency_from_occupancy(self.occupancy())

    def abort_count(self) -> int:
        """Number of abandoned downloads observed."""
        return len(self.aborted)

    def mean_download_duration(self) -> float:
        """Average duration over completed downloads (NaN if none)."""
        if not self.completed:
            return float("nan")
        return float(np.mean([c.duration for c in self.completed]))

    def population_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(times, leechers, seeds)`` as arrays, for plotting/benches."""
        if not self.population_series:
            return np.array([]), np.array([]), np.array([])
        times, leech, seeds = zip(*self.population_series)
        return np.asarray(times), np.asarray(leech), np.asarray(seeds)

    def entropy_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, entropy)`` arrays."""
        if not self.entropy_series:
            return np.array([]), np.array([])
        times, values = zip(*self.entropy_series)
        return np.asarray(times), np.asarray(values)
