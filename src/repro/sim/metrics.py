"""Swarm observers: every series the paper's figures are drawn from.

Every swarm engine (object, soa, sharded) hands the
:class:`MetricsCollector` each round through its one round hook,
:meth:`MetricsCollector.record_round`, which accumulates:

* **population** — ``(time, leechers, seeds)``, Figure 3/4(b);
* **entropy** — ``(time, E)``, Figure 3/4(c);
* **connection occupancy** — time-averaged fractions ``x_0..x_k`` of
  leechers by active-connection count, from which the simulated
  efficiency ``eta`` of Figure 3/4(a) is computed;
* **completed downloads** — one :class:`CompletionTable` row per
  finished peer (durations and phase boundaries), which every engine
  appends a round's batch to through
  :meth:`MetricsCollector.record_completions`.  Object-engine rows also
  keep the peer's :class:`PeerStats` (instrumented peers carry their
  full per-round series, mirroring the paper's modified BitTornado
  client).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.efficiency.balance import efficiency_from_occupancy
from repro.errors import ParameterError
from repro.sim.peer import PeerStats
from repro.stability.entropy import entropy

__all__ = [
    "COMPLETION_COLUMNS",
    "CompletedDownload",
    "CompletionTable",
    "MetricsCollector",
    "phase_timeline",
]


@dataclass(frozen=True)
class CompletedDownload:
    """Summary of one finished download: one row of a
    :class:`CompletionTable`, built when it is read.

    Attributes:
        peer_id: the downloader.
        joined_at / completed_at: arrival and completion times.
        stats: the peer's :class:`PeerStats`.  An object-engine row
            carries the peer's own (full piece timeline, potential-set
            series when instrumented); an array-engine row carries a
            compressed timeline built from the table's phase columns.
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


#: The completion table's columns, in row-field order.  NaN in a time
#: column means the mark was never recorded; an ``upload_capacity`` of
#: -1 is the homogeneous setting.  ``first_piece_at`` and ``prelast_at``
#: are the paper's phase boundaries (bootstrap exit, last-phase entry):
#: an array engine stamps them when a peer first holds one and B - 1
#: pieces, the object engine takes its first and next-to-last piece
#: acquisitions.
COMPLETION_COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("peer_id", np.int64),
    ("joined_at", np.float64),
    ("completed_at", np.float64),
    ("first_piece_at", np.float64),
    ("prelast_at", np.float64),
    ("shaken_at", np.float64),
    ("shaken", np.bool_),
    ("upload_capacity", np.int64),
)

#: The columns an engine supplies per batch (a batch shares its
#: ``completed_at``).
BATCH_COLUMNS = frozenset(
    name for name, _ in COMPLETION_COLUMNS if name != "completed_at"
)


def phase_timeline(first: float, prelast: float, completed: float) -> list:
    """An array-engine row's compressed acquisition timeline: the phase
    boundaries the paper's analyses read (first piece, B - 1 pieces,
    completion), skipping any never recorded."""
    return [mark for mark in (first, prelast) if not math.isnan(mark)] + [
        completed
    ]


class CompletionTable:
    """Every finished download as one row of numpy columns, in
    completion order (:data:`COMPLETION_COLUMNS`).

    Engines append one batch per round.  Rows never change once
    appended; the columns grow by doubling.  :attr:`stats` holds one
    :class:`PeerStats` per row when the object engine fills the table
    (its per-piece logs feed Figure 3/4(d) and the streaming analysis)
    and stays empty for the array engines, which keep no per-peer
    Python object.
    """

    def __init__(self, capacity: int = 64):
        self._size = 0
        self._columns = {
            name: np.empty(capacity, dtype=dtype)
            for name, dtype in COMPLETION_COLUMNS
        }
        self.stats: List[PeerStats] = []

    def __len__(self) -> int:
        return self._size

    def column(self, name: str) -> np.ndarray:
        """The rows of column ``name`` (a read-only view)."""
        view = self._columns[name][: self._size]
        view.flags.writeable = False
        return view

    def append(
        self,
        completed_at: "float | np.ndarray",
        *,
        stats: Optional[Sequence[PeerStats]] = None,
        **columns,
    ) -> None:
        """Append one batch of rows completed at ``completed_at`` (the
        round's time, or one time per row).

        ``columns`` holds one equal-length sequence per name in
        :data:`BATCH_COLUMNS`; ``stats`` one :class:`PeerStats` per row,
        given for every batch of a table or for none.
        """
        if set(columns) != BATCH_COLUMNS:
            raise ParameterError(
                f"a completion batch needs the columns "
                f"{sorted(BATCH_COLUMNS)}, got {sorted(columns)}"
            )
        count = len(columns["peer_id"])
        if any(len(values) != count for values in columns.values()):
            raise ParameterError("completion columns differ in length")
        if self._size and (stats is not None) != bool(self.stats):
            raise ParameterError(
                "a completion table holds stats for every row or for none"
            )
        if stats is not None:
            if len(stats) != count:
                raise ParameterError("one PeerStats per completion row")
            self.stats.extend(stats)
        if count == 0:
            return
        end = self._size + count
        capacity = self._columns["peer_id"].size
        if end > capacity:
            capacity = max(2 * capacity, end)
            for name, old in self._columns.items():
                grown = np.empty(capacity, dtype=old.dtype)
                grown[: self._size] = old[: self._size]
                self._columns[name] = grown
        rows = slice(self._size, end)
        for name, values in columns.items():
            self._columns[name][rows] = values
        self._columns["completed_at"][rows] = completed_at
        self._size = end

    def rows(
        self, start: int = 0, stop: Optional[int] = None
    ) -> List[CompletedDownload]:
        """Rows ``start:stop`` as :class:`CompletedDownload` records."""
        stop = self._size if stop is None else stop
        values = [
            self._columns[name][start:stop].tolist()
            for name, _ in COMPLETION_COLUMNS
        ]
        records = []
        for offset, (
            peer_id, joined, completed, first, prelast, shaken_at, shaken,
            capacity,
        ) in enumerate(zip(*values)):
            if self.stats:
                stats = self.stats[start + offset]
            else:
                stats = PeerStats(
                    joined_at=joined,
                    completed_at=completed,
                    piece_times=phase_timeline(first, prelast, completed),
                    shaken_at=None if math.isnan(shaken_at) else shaken_at,
                )
            records.append(
                CompletedDownload(
                    peer_id=peer_id,
                    joined_at=joined,
                    completed_at=completed,
                    stats=stats,
                    shaken=shaken,
                    upload_capacity=capacity if capacity >= 0 else None,
                )
            )
        return records

    def to_columns(self) -> dict:
        """One array per column (copies), for a checkpoint block."""
        return {
            name: self.column(name).copy() for name, _ in COMPLETION_COLUMNS
        }

    @classmethod
    def from_columns(
        cls, columns: dict, stats: Optional[List[PeerStats]] = None
    ) -> "CompletionTable":
        """Rebuild a table from :meth:`to_columns`'s arrays (copied);
        a missing or ragged column raises ``KeyError``/``ValueError``."""
        table = cls(capacity=max(len(columns["peer_id"]), 1))
        table.append(
            columns["completed_at"],
            stats=stats or None,
            **{name: columns[name] for name in BATCH_COLUMNS},
        )
        return table


class CompletedView(Sequence):
    """Read-only sequence of :class:`CompletedDownload` over a
    :class:`CompletionTable`; each access builds its records."""

    def __init__(self, table: CompletionTable):
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, index):
        # ``range`` resolves negative indices and slices, and raises
        # IndexError past the end.
        rows = range(len(self))[index]
        if isinstance(index, slice):
            return [self._table.rows(i, i + 1)[0] for i in rows]
        return self._table.rows(rows, rows + 1)[0]

    def __iter__(self):
        return iter(self._table.rows())


class MetricsCollector:
    """Accumulates swarm-level and per-peer series during a run.

    The engines call :meth:`record_round` once per protocol round,
    :meth:`record_abort` per abandoned download and
    :meth:`record_completions` once per round with the round's finished
    downloads.  :attr:`population_series` is the run's one population
    log (the paper's tracker statistics); :attr:`completions` is the
    one store of finished downloads.

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
        self.completions = CompletionTable()
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

    def record_completions(
        self,
        time: float,
        *,
        stats: Optional[Sequence[PeerStats]] = None,
        **columns,
    ) -> None:
        """Record one round's finished downloads (before they depart).

        ``columns`` holds one sequence per :data:`BATCH_COLUMNS` name;
        the object engine also passes each row's ``stats``.
        """
        self.completions.append(time, stats=stats, **columns)

    @property
    def completed(self) -> CompletedView:
        """The finished downloads as :class:`CompletedDownload` records
        (a read-only view of :attr:`completions`)."""
        return CompletedView(self.completions)

    def mirror(self, source: "MetricsCollector") -> None:
        """Make this collector, which callers hold, take ``source``'s
        state (a restored or fresh collector)."""
        vars(self).update(vars(source))

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
        table = self.completions
        if not len(table):
            return float("nan")
        return float(
            np.mean(table.column("completed_at") - table.column("joined_at"))
        )

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
