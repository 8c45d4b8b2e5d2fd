"""Zero-copy shared-memory data plane for the sharded swarm backend.

The PR-9 sharded backend moved every per-round payload over pickled
``multiprocessing.Pipe`` messages, which made the fabric
serialization-bound: the global replication-count broadcast, each
shard's round report, and the migration row batches were re-pickled
every round.  This module gives the coordinator and its shard workers
a preallocated shared-memory fabric instead; the pipe stays as a
low-rate control plane (init / step barrier / snapshot / stop).

Layout
------

* one **broadcast block** (all shards attach): the global piece
  replication counts, double-buffered;
* per shard, a **report block**: the integer round report (populations,
  connection-stats deltas, seed uploads, piece counts) plus the
  trading-scope connection-count region, double-buffered;
* per shard, an **inbox** and an **outbox** migration block: one
  plane per :data:`~repro.sim.soa.PEER_COLUMNS` column (the checkpoint
  store block's columns), double-buffered.

Every block is double-buffered on ``round_index % 2`` with an ``int64``
round stamp written *after* the payload; a reader validating the stamp
therefore never sees a torn or stale plane — the coordinator only
advances to round ``k+1`` after every shard replied for round ``k``,
so the other slot is always quiescent.

Capacity growth (migration bursts, population growth) is
coordinator-driven: the coordinator knows every upcoming row count
before it sends the step message, calls :meth:`ShardFabric.ensure`,
and ships the replacement segment names in the step payload; workers
re-attach before touching the block.  Old segments are unlinked
immediately (attached handles keep the mapping alive until both sides
close).

Lifecycle: the coordinator owns every segment and unlinks all of them
in :meth:`ShardFabric.close`; workers only ever ``close()`` their
attached handles.  ``close`` is idempotent and tolerant of
half-created state so abnormal exits (worker SIGKILL, coordinator
exceptions) still leave ``/dev/shm`` clean.
"""

from __future__ import annotations

import secrets
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.soa import PEER_COLUMNS

__all__ = ["ShardFabric", "WorkerFabric", "migration_row_bytes"]

#: Prefix of every fabric segment name: lifecycle tests and the CI leak
#: check probe ``/dev/shm`` for stale ``rbt-*`` entries.
SEGMENT_PREFIX = "rbt-"


#: The peer-row table in plane order: eight-byte columns first, so
#: every numeric column lands 8-aligned and the one-byte bool columns
#: close the plane.
_PLANE_COLUMNS = tuple(
    sorted(PEER_COLUMNS, key=lambda column: -np.dtype(column.dtype).itemsize)
)


def migration_row_bytes(words: int) -> int:
    """Bytes one peer row occupies in a migration plane."""
    return sum(
        np.dtype(column.dtype).itemsize * (words if column.wide else 1)
        for column in PEER_COLUMNS
    )


def _pad8(nbytes: int) -> int:
    return nbytes + (-nbytes) % 8


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------
class _Segment:
    """One shared-memory segment, either owned (created) or attached."""

    __slots__ = ("shm", "owner")

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool):
        self.shm = shm
        self.owner = owner

    @classmethod
    def create(cls, kind: str, size: int) -> "_Segment":
        for _ in range(16):
            # Short random names (< 31 chars with the leading slash,
            # the portable limit); `secrets` so segment naming never
            # touches a simulation RNG stream.
            name = f"{SEGMENT_PREFIX}{kind}-{secrets.token_hex(4)}"
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
            except FileExistsError:  # pragma: no cover - collision
                continue
            return cls(shm, True)
        raise SimulationError(  # pragma: no cover - 16 collisions
            f"could not allocate a shared-memory segment for {kind!r}"
        )

    @classmethod
    def attach(cls, name: str) -> "_Segment":
        return cls(shared_memory.SharedMemory(name=name), False)

    @property
    def name(self) -> str:
        return self.shm.name

    @property
    def buf(self):
        return self.shm.buf

    def close(self) -> None:
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - a view outlived us
            # A numpy view still references the mapping; the fd is gone
            # either way and unlink below removes the name, so nothing
            # leaks — the mapping dies with the process.
            pass

    def unlink(self) -> None:
        if not self.owner:
            return
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


# ----------------------------------------------------------------------
# Double-buffered blocks
# ----------------------------------------------------------------------
class _BroadcastBlock:
    """The global replication counts: 2 stamps + 2 int64 planes."""

    def __init__(self, segment: _Segment, num_pieces: int):
        self.segment = segment
        buf = segment.buf
        self.stamps = np.ndarray((2,), dtype=np.int64, buffer=buf)
        self.planes = np.ndarray(
            (2, num_pieces), dtype=np.int64, buffer=buf, offset=16
        )

    @staticmethod
    def nbytes(num_pieces: int) -> int:
        return 16 + 2 * 8 * num_pieces

    def write(self, counts: np.ndarray, round_index: int) -> None:
        slot = round_index & 1
        self.planes[slot, :] = counts
        self.stamps[slot] = round_index

    def read(self, round_index: int) -> np.ndarray:
        slot = round_index & 1
        if int(self.stamps[slot]) != round_index:
            raise SimulationError(
                f"broadcast stamp mismatch: wanted round {round_index}, "
                f"slot holds {int(self.stamps[slot])}"
            )
        view = self.planes[slot]
        view.flags.writeable = False
        return view

    def release(self) -> None:
        self.stamps = None
        self.planes = None


#: Integer scalars of a round report, in plane order (before the piece
#: counts).  ``conn_len`` is the connection-count region length, ``-1``
#: encoding ``None`` (shard had no in-scope leechers this round).
_REPORT_SCALARS = (
    "n_leech", "n_seeds", "survived", "dropped", "attempts", "formed",
    "seed_uploads", "conn_len",
)


class _ReportBlock:
    """One shard's round report: scalars + piece counts + conn region."""

    def __init__(self, segment: _Segment, num_pieces: int, conn_rows: int):
        self.segment = segment
        self.num_pieces = num_pieces
        self.conn_rows = conn_rows
        width = len(_REPORT_SCALARS) + num_pieces
        buf = segment.buf
        self.stamps = np.ndarray((2,), dtype=np.int64, buffer=buf)
        self.planes = np.ndarray(
            (2, width), dtype=np.int64, buffer=buf, offset=16
        )
        self.conn = np.ndarray(
            (2, conn_rows), dtype=np.int64, buffer=buf,
            offset=16 + 2 * 8 * width,
        )

    @staticmethod
    def nbytes(num_pieces: int, conn_rows: int) -> int:
        width = len(_REPORT_SCALARS) + num_pieces
        return 16 + 2 * 8 * width + 2 * 8 * conn_rows

    def write(self, report: dict, round_index: int) -> None:
        slot = round_index & 1
        plane = self.planes[slot]
        survived, dropped, attempts, formed = report["stats"]
        conn_counts = report["conn_counts"]
        if conn_counts is None:
            conn_len = -1
        else:
            conn_len = int(conn_counts.size)
            if conn_len > self.conn_rows:
                raise SimulationError(
                    f"report conn region overflow: {conn_len} counts, "
                    f"capacity {self.conn_rows}"
                )
            self.conn[slot, :conn_len] = conn_counts
        plane[0] = report["n_leech"]
        plane[1] = report["n_seeds"]
        plane[2] = survived
        plane[3] = dropped
        plane[4] = attempts
        plane[5] = formed
        plane[6] = report["seed_uploads"]
        plane[7] = conn_len
        plane[8:] = report["piece_counts"]
        self.stamps[slot] = round_index

    def read(self, round_index: int) -> dict:
        slot = round_index & 1
        if int(self.stamps[slot]) != round_index:
            raise SimulationError(
                f"report stamp mismatch: wanted round {round_index}, "
                f"slot holds {int(self.stamps[slot])}"
            )
        plane = self.planes[slot]
        conn_len = int(plane[7])
        conn_counts = None if conn_len < 0 else self.conn[slot, :conn_len]
        return {
            "n_leech": int(plane[0]),
            "n_seeds": int(plane[1]),
            "piece_counts": plane[8:].copy(),
            "conn_counts": conn_counts,
            "stats": (int(plane[2]), int(plane[3]),
                      int(plane[4]), int(plane[5])),
            "seed_uploads": int(plane[6]),
        }

    def release(self) -> None:
        self.stamps = None
        self.planes = None
        self.conn = None


class _MigrationBlock:
    """A batch of migration rows: [stamp, count] header + columns."""

    def __init__(self, segment: _Segment, rows: int, words: int):
        self.segment = segment
        self.rows = rows
        self.words = words
        plane_bytes = self.plane_nbytes(rows, words)
        buf = segment.buf
        self.headers: List[np.ndarray] = []
        self.columns: List[Dict[str, np.ndarray]] = []
        for slot in range(2):
            base = slot * plane_bytes
            self.headers.append(
                np.ndarray((2,), dtype=np.int64, buffer=buf, offset=base)
            )
            offset = base + 16
            cols: Dict[str, np.ndarray] = {}
            for column in _PLANE_COLUMNS:
                view = np.ndarray(
                    column.shape(rows, words), dtype=column.dtype,
                    buffer=buf, offset=offset,
                )
                cols[column.name] = view
                offset += view.nbytes
            self.columns.append(cols)

    @staticmethod
    def plane_nbytes(rows: int, words: int) -> int:
        return 16 + _pad8(rows * migration_row_bytes(words))

    @classmethod
    def nbytes(cls, rows: int, words: int) -> int:
        return 2 * cls.plane_nbytes(rows, words)

    def write(self, rows: Optional[dict], round_index: int) -> None:
        slot = round_index & 1
        header = self.headers[slot]
        count = 0 if rows is None else int(rows["peer_id"].size)
        if count > self.rows:
            raise SimulationError(
                f"migration block overflow: {count} rows, "
                f"capacity {self.rows}"
            )
        if count:
            cols = self.columns[slot]
            for name in cols:
                cols[name][:count] = rows[name]
        header[1] = count
        header[0] = round_index

    def read(self, round_index: int) -> Optional[dict]:
        slot = round_index & 1
        header = self.headers[slot]
        if int(header[0]) != round_index:
            raise SimulationError(
                f"migration stamp mismatch: wanted round {round_index}, "
                f"slot holds {int(header[0])}"
            )
        count = int(header[1])
        if count == 0:
            return None
        cols = self.columns[slot]
        return {name: cols[name][:count] for name in cols}

    def release(self) -> None:
        self.headers = []
        self.columns = []


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class ShardFabric:
    """The coordinator's end: owns (and ultimately unlinks) every block.

    Args:
        shards: worker count.
        num_pieces: file size in pieces (broadcast / report width).
        words: bitfield words per peer (migration column width).
        conn_rows: initial per-shard connection-count region capacity.
        migration_rows: initial inbox/outbox row capacity per shard.
    """

    def __init__(
        self,
        shards: int,
        num_pieces: int,
        words: int,
        *,
        conn_rows: int = 64,
        migration_rows: int = 64,
    ):
        self.shards = int(shards)
        self.num_pieces = int(num_pieces)
        self.words = int(words)
        self.row_bytes = migration_row_bytes(words)
        self.bytes_broadcast = 0
        self.bytes_migrated = 0
        self.grows = 0
        self._closed = False
        conn_rows = max(int(conn_rows), 1)
        migration_rows = max(int(migration_rows), 1)

        self._bcast_seg: Optional[_Segment] = None
        self._bcast: Optional[_BroadcastBlock] = None
        # Per shard: [segment, block, capacity] triples, replaced by
        # ensure() when a round needs more room.
        self._report: List[list] = []
        self._inbox: List[list] = []
        self._outbox: List[list] = []
        try:
            self._bcast_seg = _Segment.create(
                "bc", _BroadcastBlock.nbytes(num_pieces)
            )
            self._bcast = _BroadcastBlock(self._bcast_seg, num_pieces)
            for index in range(self.shards):
                self._report.append(
                    self._new_report(index, conn_rows)
                )
                self._inbox.append(
                    self._new_migration("in", index, migration_rows)
                )
                self._outbox.append(
                    self._new_migration("out", index, migration_rows)
                )
        except BaseException:
            self.close()
            raise

    def _new_report(self, index: int, conn_rows: int) -> list:
        segment = _Segment.create(
            f"rp{index}", _ReportBlock.nbytes(self.num_pieces, conn_rows)
        )
        return [segment, _ReportBlock(segment, self.num_pieces, conn_rows),
                conn_rows]

    def _new_migration(self, kind: str, index: int, rows: int) -> list:
        segment = _Segment.create(
            f"{kind}{index}", _MigrationBlock.nbytes(rows, self.words)
        )
        return [segment, _MigrationBlock(segment, rows, self.words), rows]

    # -- wiring --------------------------------------------------------
    def spec(self, index: int) -> dict:
        """Attachment spec for shard ``index`` (ships in init payloads)."""
        return {
            "num_pieces": self.num_pieces,
            "words": self.words,
            "bcast": self._bcast_seg.name,
            "report": (self._report[index][0].name,
                       self._report[index][2]),
            "inbox": (self._inbox[index][0].name, self._inbox[index][2]),
            "outbox": (self._outbox[index][0].name,
                       self._outbox[index][2]),
        }

    def _grow(self, slot_list: List[list], index: int, needed: int,
              factory) -> Tuple[str, int]:
        capacity = max(int(needed), 2 * slot_list[index][2])
        old_segment, old_block, _ = slot_list[index]
        slot_list[index] = factory(capacity)
        old_block.release()
        old_segment.close()
        # Unlink immediately: the name disappears now; any still-open
        # worker handle keeps the old mapping alive until it re-attaches.
        old_segment.unlink()
        self.grows += 1
        return slot_list[index][0].name, capacity

    def ensure(
        self, index: int, *, conn_rows: int, inbox_rows: int,
        outbox_rows: int,
    ) -> Optional[dict]:
        """Grow shard ``index``'s blocks for the coming round.

        Returns the ``{kind: (name, capacity)}`` updates the worker
        must re-attach, or ``None`` when everything already fits.
        """
        updates: dict = {}
        if conn_rows > self._report[index][2]:
            updates["report"] = self._grow(
                self._report, index, conn_rows,
                lambda rows: self._new_report(index, rows),
            )
        if inbox_rows > self._inbox[index][2]:
            updates["inbox"] = self._grow(
                self._inbox, index, inbox_rows,
                lambda rows: self._new_migration("in", index, rows),
            )
        if outbox_rows > self._outbox[index][2]:
            updates["outbox"] = self._grow(
                self._outbox, index, outbox_rows,
                lambda rows: self._new_migration("out", index, rows),
            )
        return updates or None

    # -- the per-round data plane --------------------------------------
    def write_broadcast(self, counts: np.ndarray, round_index: int) -> None:
        self._bcast.write(counts, round_index)
        # Delivered once per shard: each worker reads the full plane.
        self.bytes_broadcast += self.shards * 8 * self.num_pieces

    def write_inbox(self, index: int, rows: Optional[dict],
                    round_index: int) -> None:
        self._inbox[index][1].write(rows, round_index)
        if rows is not None:
            self.bytes_migrated += (
                int(rows["peer_id"].size) * self.row_bytes
            )

    def read_outbox(self, index: int, round_index: int) -> Optional[dict]:
        rows = self._outbox[index][1].read(round_index)
        if rows is not None:
            self.bytes_migrated += (
                int(rows["peer_id"].size) * self.row_bytes
            )
        return rows

    def read_report(self, index: int, round_index: int) -> dict:
        return self._report[index][1].read(round_index)

    # -- lifecycle -----------------------------------------------------
    def segment_names(self) -> List[str]:
        names = []
        if self._bcast_seg is not None:
            names.append(self._bcast_seg.name)
        for slot_list in (self._report, self._inbox, self._outbox):
            for entry in slot_list:
                names.append(entry[0].name)
        return names

    def close(self) -> None:
        """Release every view, then close and unlink every segment."""
        if self._closed:
            return
        self._closed = True
        if self._bcast is not None:
            self._bcast.release()
        segments = [] if self._bcast_seg is None else [self._bcast_seg]
        for slot_list in (self._report, self._inbox, self._outbox):
            for segment, block, _ in slot_list:
                block.release()
                segments.append(segment)
        self._bcast = None
        self._bcast_seg = None
        self._report = []
        self._inbox = []
        self._outbox = []
        for segment in segments:
            segment.close()
            segment.unlink()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class WorkerFabric:
    """One shard worker's attached end of the fabric (never unlinks)."""

    def __init__(self, spec: dict):
        self.num_pieces = int(spec["num_pieces"])
        self.words = int(spec["words"])
        self._closed = False
        self._bcast_seg = _Segment.attach(spec["bcast"])
        self._bcast = _BroadcastBlock(self._bcast_seg, self.num_pieces)
        name, conn_rows = spec["report"]
        self._report_seg = _Segment.attach(name)
        self._report = _ReportBlock(
            self._report_seg, self.num_pieces, conn_rows
        )
        name, rows = spec["inbox"]
        self._inbox_seg = _Segment.attach(name)
        self._inbox = _MigrationBlock(self._inbox_seg, rows, self.words)
        name, rows = spec["outbox"]
        self._outbox_seg = _Segment.attach(name)
        self._outbox = _MigrationBlock(self._outbox_seg, rows, self.words)

    def apply_updates(self, updates: Optional[dict]) -> None:
        """Re-attach the blocks the coordinator grew for this round."""
        if not updates:
            return
        if "report" in updates:
            name, conn_rows = updates["report"]
            self._report.release()
            self._report_seg.close()
            self._report_seg = _Segment.attach(name)
            self._report = _ReportBlock(
                self._report_seg, self.num_pieces, conn_rows
            )
        if "inbox" in updates:
            name, rows = updates["inbox"]
            self._inbox.release()
            self._inbox_seg.close()
            self._inbox_seg = _Segment.attach(name)
            self._inbox = _MigrationBlock(self._inbox_seg, rows, self.words)
        if "outbox" in updates:
            name, rows = updates["outbox"]
            self._outbox.release()
            self._outbox_seg.close()
            self._outbox_seg = _Segment.attach(name)
            self._outbox = _MigrationBlock(
                self._outbox_seg, rows, self.words
            )

    def read_broadcast(self, round_index: int) -> np.ndarray:
        return self._bcast.read(round_index)

    def read_inbox(self, round_index: int) -> Optional[dict]:
        return self._inbox.read(round_index)

    def write_outbox(self, rows: Optional[dict],
                     round_index: int) -> None:
        self._outbox.write(rows, round_index)

    def write_report(self, report: dict, round_index: int) -> None:
        self._report.write(report, round_index)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._bcast.release()
        self._report.release()
        self._inbox.release()
        self._outbox.release()
        for segment in (self._bcast_seg, self._report_seg,
                        self._inbox_seg, self._outbox_seg):
            segment.close()
