"""Structure-of-arrays swarm backend: whole-swarm rounds at array speed.

The object backend (:class:`~repro.sim.swarm.Swarm`) walks Python
``Peer`` objects — clear, instrumentable, and the fingerprint reference,
but bounded at a few hundred peers per wall-second.  This module holds
the same protocol round as flat numpy arrays:

* **bitfields** live in a packed ``(capacity, ceil(B/64))`` uint64
  matrix; interest between two peers is one XOR/AND over their rows and
  replication counts come from ``np.bitwise_count``;
* **interest** is decided once per round on the neighbor-row matrix
  itself, one novelty flag per cell, and only for the leecher rows that
  can trade — a peer holding no piece (the bootstrap phase) or every
  piece joins no mutual-interest edge — then reused for potential-set
  sizes and slot-filling proposals;
* **noisy-rarest selection** is a row-wise inverse-transform draw: a
  weight matrix over unpacked candidates, a row cumsum, one pooled
  uniform per transfer;
* **matching and capacity limits** (slot filling, seed upload slots,
  bandwidth caps) use a rank filter — random priorities, per-endpoint
  group ranks, accept while rank < open capacity;
* **arrivals, departures and churn** recycle slots through a LIFO free
  list; neighbor adjacency is a fixed-width int matrix for leechers and
  a bare degree counter for seeds (seeds never initiate trades, so
  their rows are never enumerated — which keeps the matrix width at the
  leecher accept cap even when a seed is neighbor to the whole swarm).

The backend is selected with ``Swarm(config, backend="soa")`` (see
:meth:`~repro.sim.swarm.Swarm.__new__`; ``backend="sharded", shards=1``
builds this engine too) and is *statistically*
equivalent to the object engine — same protocol decisions with the same
probabilities, different RNG stream consumption — verified by
``tests/sim/test_soa_equivalence.py``.  Within the soa backend itself,
runs are deterministic and checkpoint/resume is fingerprint-identical
(``tests/checkpoint/test_soa_checkpoint.py``).

The soa backend intentionally supports the paper-scale configuration
subset: global rarity view, blind matching, whole-piece transfers and
no per-peer instrumentation.  Unsupported options raise
:class:`~repro.errors.ParameterError` at construction with a pointer
back to ``backend="object"``.
"""

from __future__ import annotations

import math
import time as _time
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

if not hasattr(np, "bitwise_count"):  # popcount_rows needs the ufunc
    raise ImportError(
        "repro.sim.soa needs numpy>=2.0 for np.bitwise_count; found numpy "
        f"{np.__version__}. Upgrade with: pip install 'numpy>=2.0'"
    )

from repro.errors import CheckpointError, ParameterError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.runtime.profiler import RoundProfiler, SOA_STAGES
from repro.sim.choking import ConnectionStats
from repro.sim.config import SimConfig
from repro.sim.engine import DiscreteEventEngine, Event
from repro.sim.metrics import CompletedDownload, MetricsCollector
from repro.sim.peer import PeerStats
from repro.sim.piece_selection import RARITY_EXPONENT
from repro.sim.swarm import CheckpointControl, SwarmResult

__all__ = [
    "PEER_COLUMNS",
    "PeerColumn",
    "PeerStore",
    "check_slot_array",
    "peer_rows",
    "ScratchArena",
    "SoaSwarm",
    "pack_rows",
    "unpack_rows",
    "popcount_rows",
    "pack_mask",
    "words_for",
    "interest_flags",
    "row_interest",
    "group_ranks",
    "occurrence_ranks",
    "first_pairs",
    "weighted_pick_rows",
    "row_columns",
    "partner_cells",
    "entries_in",
]

_ONE = np.uint64(1)

#: Unpack/selection work is chunked to roughly this many matrix cells so
#: a 100k-transfer round never materialises a multi-GB boolean matrix.
_CHUNK_CELLS = 1 << 22


# ----------------------------------------------------------------------
# Packed-bitfield kernels (unit-tested against the scalar Bitfield)
# ----------------------------------------------------------------------
def words_for(num_pieces: int) -> int:
    """uint64 words needed to hold ``num_pieces`` bits."""
    return (num_pieces + 63) // 64


def pack_mask(num_pieces: int, mask: int) -> np.ndarray:
    """Pack a Python-int piece mask into a ``(W,)`` uint64 row."""
    words = np.zeros(words_for(num_pieces), dtype=np.uint64)
    for w in range(words.size):
        words[w] = np.uint64((mask >> (64 * w)) & 0xFFFFFFFFFFFFFFFF)
    return words

def mask_from_words(words: np.ndarray) -> int:
    """Inverse of :func:`pack_mask` (for tests and checkpoints)."""
    mask = 0
    for w in range(words.size):
        mask |= int(words[w]) << (64 * w)
    return mask


def pack_rows(held: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(n, B)`` matrix into ``(n, W)`` uint64 rows."""
    n, num_pieces = held.shape
    padded = num_pieces + (-num_pieces) % 64
    buf = np.zeros((n, padded), dtype=bool)
    buf[:, :num_pieces] = held
    packed = np.packbits(buf, axis=1, bitorder="little")
    return packed.view(np.uint64).reshape(n, padded // 64)


def unpack_rows(words: np.ndarray, num_pieces: int) -> np.ndarray:
    """Unpack ``(n, W)`` uint64 rows into a boolean ``(n, B)`` matrix."""
    n = words.shape[0]
    as_bytes = words.view(np.uint8).reshape(n, -1)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little",
                         count=num_pieces)
    return bits.astype(bool)


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Held-piece count per packed row."""
    return np.bitwise_count(words).sum(axis=1).astype(np.int64)


def interest_flags(
    bits: np.ndarray, src: np.ndarray, dst: np.ndarray,
    chunk: int = 1 << 18,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-edge novelty flags from the packed bitfield matrix.

    Returns ``(give_sd, give_ds)``: whether ``src`` holds a piece
    ``dst`` lacks (src can give, i.e. dst is interested in src) and the
    reverse.  Mutual interest is the AND of both.  Chunked so the edge
    list can be swarm-sized without a matching blow-up in temporaries.
    """
    n = src.size
    give_sd = np.empty(n, dtype=bool)
    give_ds = np.empty(n, dtype=bool)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        bs = bits[src[lo:hi]]
        bd = bits[dst[lo:hi]]
        diff = bs ^ bd
        give_sd[lo:hi] = (diff & bs).any(axis=1)
        give_ds[lo:hi] = (diff & bd).any(axis=1)
    return give_sd, give_ds


def row_interest(
    bits: np.ndarray, owners: np.ndarray, nbr: np.ndarray, deg: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Novelty flags of every neighbor-row cell against the row's owner.

    ``nbr`` holds the rows of the slots ``owners``, -1 padded past each
    row's fill ``deg``.  Returns ``(give, take)``, boolean matrices of
    ``nbr``'s shape: whether the owner holds a piece the neighbor lacks,
    and the reverse; mutual interest is their AND.  A padding cell's
    gather wraps to ``bits[-1]``, a real slot, so padding is masked by
    column against ``deg``.  One word at a time, in row chunks of about
    ``_CHUNK_CELLS`` cells, so the temporaries stay bounded.
    """
    rows, width = nbr.shape
    give = np.zeros((rows, width), dtype=bool)
    take = np.zeros((rows, width), dtype=bool)
    chunk = max(1, _CHUNK_CELLS // max(width, 1))
    for lo in range(0, rows, chunk):
        hi = min(rows, lo + chunk)
        for w in range(bits.shape[1]):
            column = bits[:, w]
            mine = column[owners[lo:hi], None]
            theirs = column[nbr[lo:hi]]
            lack = ~theirs
            lack &= mine
            give[lo:hi] |= lack != 0
            theirs &= ~mine
            take[lo:hi] |= theirs != 0
    valid = np.arange(width) < deg[:, None]
    give &= valid
    take &= valid
    return give, take


def group_ranks(keys: np.ndarray, priority: np.ndarray) -> np.ndarray:
    """Rank of each element within its key group, ordered by priority.

    The vectorized backbone of every capacity limit here: give each
    proposal a random priority, rank it among the proposals incident to
    each endpoint, and accept while the rank is below the endpoint's
    open capacity — the array form of "shuffle, then take the first
    ``cap`` per group".
    """
    n = keys.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    pmax = int(priority.max())
    if int(priority.min()) >= 0 and int(keys.max()) < (1 << 62) // (pmax + 1):
        # Fuse (key, priority) into one int64 so a single argsort
        # replaces the two-key lexsort.
        order = np.argsort(keys * np.int64(pmax + 1) + priority, kind="stable")
    else:
        order = np.lexsort((priority, keys))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = _contiguous_ranks(keys[order])
    return ranks


def _contiguous_ranks(keys: np.ndarray) -> np.ndarray:
    """Within-group rank for an array whose equal keys are contiguous.

    A sort-free :func:`group_ranks` for the common case where proposals
    are *generated* grouped (e.g. ``np.repeat(announcers, need)``) and
    every subsequent mask-compaction preserves that grouping; priority
    is array position.
    """
    n = keys.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = keys[1:] != keys[:-1]
    positions = np.arange(n, dtype=np.int64)
    return positions - np.maximum.accumulate(
        np.where(boundary, positions, 0)
    )


def occurrence_ranks(keys: np.ndarray) -> np.ndarray:
    """Rank of each key among the equal keys before it, in array order.

    :func:`group_ranks` with array position as the priority, without an
    int64 sort: two stable LSD passes over 16-bit digits (numpy's
    stable argsort of ``uint16`` is a radix sort) give the stable
    order.  Keys must lie in ``[0, 2**32)``; others raise ``ValueError``.
    """
    if keys.size and (int(keys.min()) < 0 or int(keys.max()) >> 32):
        raise ValueError("occurrence_ranks needs keys in [0, 2**32)")
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    ordered = keys[order]
    high = (ordered >> 16).astype(np.uint16)
    if high.any():
        second = np.argsort(high, kind="stable")
        order = order[second]
        ordered = ordered[second]
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[order] = _contiguous_ranks(ordered)
    return ranks


def first_pairs(
    owners: np.ndarray, values: np.ndarray, cols: np.ndarray, row_of: np.ndarray
) -> np.ndarray:
    """Mask of the first occurrence of each unordered pair
    ``{owners[i], values[i]}``, by row lookup.

    The pairs come grouped by owner, one group per row: ``row_of`` maps
    an owner to its row (-1 for a slot that owns none), rows ascend
    along the array, and ``cols`` is each pair's position in its group.
    A pair repeats either in an earlier column of its own row, or as
    ``(value, owner)`` in an earlier row, the one of ``value``.  A
    64-bit signature per row rules out most of the second lookups.
    """
    if owners.size == 0:
        return np.zeros(0, dtype=bool)
    row = row_of[owners]
    cells = np.full(
        (int(cols.max()) + 1, int(row.max()) + 1), -1, dtype=np.int64
    )
    cells[cols, row] = values
    repeat = np.zeros(cells.shape, dtype=bool)
    signature = np.zeros(cells.shape[1], dtype=np.int64)
    for col, column in enumerate(cells):
        for earlier in cells[:col]:
            repeat[col] |= earlier == column
        signature |= 1 << (column & 63)
    keep = ~repeat[cols, row]
    back = row_of[values]
    back[back >= row] = -1
    maybe = signature[back] >> (owners & 63) & 1
    ask = np.flatnonzero((back >= 0) & (maybe > 0))
    back = back[ask]
    asker = owners[ask]
    found = np.zeros(ask.size, dtype=bool)
    for column in cells:
        found |= column[back] == asker
    keep[ask[found]] = False
    return keep


def weighted_pick_rows(
    weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One weighted draw per row; -1 for all-zero rows.

    The row-wise inverse transform mirrors the scalar
    :func:`~repro.sim.piece_selection.select_piece` draw: cumsum the
    weights, scale one uniform per row by the row total, count the
    entries at or below it.
    """
    if weights.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    cdf = np.cumsum(weights, axis=1)
    total = cdf[:, -1]
    u = rng.random(weights.shape[0]) * total
    idx = (cdf <= u[:, None]).sum(axis=1).astype(np.int64)
    np.minimum(idx, weights.shape[1] - 1, out=idx)
    idx[total <= 0.0] = -1
    return idx


def row_columns(
    rows: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Column of ``values[i]`` in neighbor row ``rows[i]``, and whether
    it is there at all.

    Neighbor rows hold each slot at most once and pad with -1, so the
    first match is the only one: one broadcast compare and an argmax,
    O(len(values) x row width), with no sort.
    """
    hit = rows == values[:, None]
    col = hit.argmax(axis=1)
    return col, hit[np.arange(col.size), col]


def partner_cells(
    nbr: np.ndarray, row_of: np.ndarray, pairs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(row, col)`` cells of the trading ``pairs`` in the rows ``nbr``.

    ``row_of`` maps a slot to its row of ``nbr`` (-1 for a slot without
    one).  A pair ``(a, b)`` is the cell holding ``b`` in ``a``'s row
    and the cell holding ``a`` in ``b``'s row; an endpoint without a
    row, or a row that lacks the other endpoint, contributes no cell.
    """
    row = row_of[pairs.T.ravel()]
    held = np.flatnonzero(row >= 0)
    col, found = row_columns(
        nbr[row[held]], pairs[:, ::-1].T.ravel()[held]
    )
    return row[held[found]], col[found]


def entries_in(
    nbr: np.ndarray, mask: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(row, value)`` of every entry of ``nbr`` that ``mask`` marks,
    in row-major order.

    ``mask`` has one cell per slot plus a spare last cell that must stay
    False: the -1 padding of the rows indexes it.  One flat ``nonzero``
    over the gathered mask yields both, row-major.
    """
    flat = np.flatnonzero(mask[nbr])
    return flat // nbr.shape[1], nbr.reshape(-1)[flat]


# ----------------------------------------------------------------------
# The peer-row table
# ----------------------------------------------------------------------
class PeerColumn(NamedTuple):
    """One per-peer column of :class:`PeerStore`."""

    name: str
    dtype: type
    #: ``True`` for a bitfield column: ``(rows, words)`` uint64, two
    #: dimensional even at one word.  Every other column is flat.
    wide: bool
    #: Value of a free slot, restored when the slot is allocated.
    reset: object

    def shape(self, rows: int, words: int) -> Tuple[int, ...]:
        return (rows, words) if self.wide else (rows,)


#: The peer-row table: every per-peer column the store holds besides
#: its own adjacency (``alive``, ``nbr``, ``nbr_deg``).  The paper's
#: §4.1 peer state and the §3.2 phase boundaries (``first_piece_at``,
#: ``prelast_at``) live here.  One row of these columns is what a
#: checkpoint's ``store`` block holds per alive slot and what a
#: migrating peer carries between shards — both read this tuple, so a
#: new column is one entry.
PEER_COLUMNS = (
    PeerColumn("peer_id", np.int64, False, -1),
    PeerColumn("counts", np.int64, False, 0),
    # Uploads per round under heterogeneous bandwidth; -1 means
    # unconstrained (the paper's homogeneous setting).
    PeerColumn("upload_capacity", np.int64, False, -1),
    PeerColumn("bits", np.uint64, True, 0),
    # Pieces a seed has already injected (super-seeding mode).
    PeerColumn("seeded", np.uint64, True, 0),
    PeerColumn("joined_at", np.float64, False, 0.0),
    PeerColumn("seed_until", np.float64, False, np.nan),
    PeerColumn("first_piece_at", np.float64, False, np.nan),
    PeerColumn("prelast_at", np.float64, False, np.nan),
    PeerColumn("shaken_at", np.float64, False, np.nan),
    PeerColumn("is_seed", np.bool_, False, False),
    PeerColumn("shaken", np.bool_, False, False),
)


#: Prefix of every decode error, as :func:`~repro.checkpoint.restore_swarm`
#: words the structural errors it catches.
_INVALID = "snapshot document is structurally invalid"


def _describe(value) -> str:
    if isinstance(value, np.ndarray):
        return f"{value.dtype} of shape {value.shape}"
    return type(value).__name__


def peer_rows(doc: dict, count: int, words: int) -> Dict[str, np.ndarray]:
    """The table columns of a checkpoint block (a store block or an
    in-flight migrant batch), checked; views, not copies.

    Raises :class:`~repro.errors.CheckpointError` unless every column is
    present, has its column's dtype and holds exactly ``count`` rows
    (of ``words`` words for a bitfield) — numpy would otherwise
    broadcast a one-row column over every slot, or cast a mistyped one.
    """
    rows = {}
    for column in PEER_COLUMNS:
        if column.name not in doc:
            raise CheckpointError(
                f"{_INVALID}: peer rows lack column {column.name!r}"
            )
        value = doc[column.name]
        expected = column.shape(count, words)
        if (
            not isinstance(value, np.ndarray)
            or value.dtype != column.dtype
            or value.shape != expected
        ):
            raise CheckpointError(
                f"{_INVALID}: peer-row column {column.name!r} is "
                f"{_describe(value)}, expected {np.dtype(column.dtype)} of "
                f"shape {expected}"
            )
        rows[column.name] = value
    return rows


def accept_cap(config: SimConfig) -> int:
    """Width of a leecher's neighbor row: the tracker's accept cap."""
    return max(int(config.ns_size * config.ns_accept_factor), config.ns_size)


def check_slot_array(
    value, name: str, capacity: int, columns: Optional[int] = None
) -> np.ndarray:
    """Raise ``CheckpointError`` unless ``value`` is an int64 array of
    slots in ``[0, capacity)``: flat, or ``(rows, columns)``."""
    shape_ok = isinstance(value, np.ndarray) and (
        value.ndim == 1 if columns is None
        else value.ndim == 2 and value.shape[1] == columns
    )
    if not shape_ok or value.dtype != np.int64:
        raise CheckpointError(
            f"{_INVALID}: {name!r} is {_describe(value)}, expected an "
            f"int64 slot array"
        )
    if value.size and (value.min() < 0 or value.max() >= capacity):
        raise CheckpointError(
            f"{_INVALID}: {name!r} holds a slot outside [0, {capacity})"
        )
    return value


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class PeerStore:
    """Structure-of-arrays peer state with free-list slot recycling.

    Every per-peer scalar of the object backend's ``Peer`` lives here as
    one array indexed by *slot*: the :data:`PEER_COLUMNS` table, one
    attribute per column.  Slots are recycled LIFO so array reads stay
    dense; ``alive`` masks out the free ones.  Neighbor adjacency:

    * leechers keep a fixed-width row in ``nbr`` (width = the tracker
      accept cap) plus its fill ``nbr_deg``;
    * seeds keep only ``nbr_deg`` as a relation counter — their side of
      each symmetric relation is recovered by scanning leecher rows.

    Trading connections are *not* stored here: the swarm keeps them as
    an ``(M, 2)`` pair array (see :class:`SoaSwarm`), which makes
    drop/filter/append operations single array ops.
    """

    def __init__(self, capacity: int, num_pieces: int, nbr_width: int):
        self.num_pieces = num_pieces
        self.words = words_for(num_pieces)
        self.nbr_width = nbr_width
        self.capacity = 0
        self.free: List[int] = []
        self._allocate_arrays(max(capacity, 8))

    def _allocate_arrays(self, capacity: int) -> None:
        for column in PEER_COLUMNS:
            setattr(self, column.name, np.full(
                column.shape(capacity, self.words), column.reset,
                dtype=column.dtype,
            ))
        self.alive = np.zeros(capacity, dtype=bool)
        self.nbr = np.full((capacity, self.nbr_width), -1, dtype=np.int64)
        self.nbr_deg = np.zeros(capacity, dtype=np.int64)
        self.free = list(range(capacity - 1, -1, -1))
        self.capacity = capacity

    def grow(self, min_capacity: int) -> None:
        """Double capacity (at least to ``min_capacity``), keep contents."""
        new_cap = max(self.capacity * 2, min_capacity)
        old_cap = self.capacity
        old = self.__dict__.copy()
        self._allocate_arrays(new_cap)
        names = [column.name for column in PEER_COLUMNS]
        for name in ("alive", "nbr", "nbr_deg", *names):
            getattr(self, name)[:old_cap] = old[name]
        # _allocate_arrays reset the free list to cover everything; keep
        # the old list (LIFO order preserved) plus the new slots on top.
        self.free = list(range(new_cap - 1, old_cap - 1, -1)) + old["free"]

    def allocate(self, count: int) -> np.ndarray:
        """Take ``count`` slots off the free list, fully reset."""
        if count > len(self.free):
            self.grow(self.capacity + count)
        # The last `count` entries reversed == `count` repeated pops.
        take = self.free[len(self.free) - count:]
        del self.free[len(self.free) - count:]
        slots = np.array(take[::-1], dtype=np.int64)
        self.alive[slots] = True
        for column in PEER_COLUMNS:
            getattr(self, column.name)[slots] = column.reset
        self.nbr[slots] = -1
        self.nbr_deg[slots] = 0
        return slots

    def rows(self, slots: np.ndarray) -> Dict[str, np.ndarray]:
        """Copies of the table columns at ``slots``, keyed by name."""
        return {
            column.name: getattr(self, column.name)[slots]
            for column in PEER_COLUMNS
        }

    def put_rows(self, slots: np.ndarray, rows: Dict[str, np.ndarray]) -> None:
        """Write table rows (as :meth:`rows` returns them) into ``slots``."""
        for column in PEER_COLUMNS:
            getattr(self, column.name)[slots] = rows[column.name]

    # -- the checkpoint ``store`` block --------------------------------
    def _leech_cells(self) -> np.ndarray:
        """``(capacity, nbr_width)`` mask of the filled neighbor cells of
        alive leechers; row-major, it lists them in a block's order."""
        deg = np.where(self.alive & ~self.is_seed, self.nbr_deg, 0)
        return np.arange(self.nbr_width) < deg[:, None]

    def to_block(self) -> dict:
        """The checkpoint ``store`` block, as arrays that copy the store:
        table rows of every alive slot (ascending), their ``nbr_deg``
        (a seed's is its relation counter, which may exceed the row
        width), the filled cells of the leecher rows (seed rows are all
        padding) and the free-list order."""
        slots = np.flatnonzero(self.alive)
        block = self.rows(slots)
        block.update(
            capacity=self.capacity,
            nbr_width=self.nbr_width,
            # LIFO pop order — the next allocation must hand out the
            # same slots the uninterrupted run would have.
            free=np.array(self.free, dtype=np.int64),
            slots=slots,
            nbr_deg=self.nbr_deg[slots],
            # Row-major, so in-row order is the append order the refill
            # logic depends on.
            nbr=self.nbr[self._leech_cells()],
        )
        return block

    @staticmethod
    def check_block(block: dict, config: SimConfig) -> int:
        """Raise ``CheckpointError`` unless ``block`` is a whole store
        block for ``config`` — every column one row per slot, slots
        ascending, leecher degrees within the row width, neighbor cells
        naming slots — and return its row count."""
        for key in ("capacity", "nbr_width", "free", "slots", "nbr_deg", "nbr"):
            if key not in block:
                raise CheckpointError(f"{_INVALID}: store block lacks {key!r}")
        capacity = int(block["capacity"])
        width = int(block["nbr_width"])
        if width != accept_cap(config):
            raise CheckpointError(
                f"{_INVALID}: 'nbr_width' {width} is not the configured "
                f"accept cap {accept_cap(config)}"
            )
        slots = check_slot_array(block["slots"], "slots", capacity)
        free = check_slot_array(block["free"], "free", capacity)
        count = slots.size
        if count + free.size != capacity or np.any(np.diff(slots) <= 0):
            raise CheckpointError(
                f"{_INVALID}: 'slots' and 'free' do not partition "
                f"{capacity} slots"
            )
        rows = peer_rows(block, count, words_for(config.num_pieces))
        deg = block["nbr_deg"]
        if not (
            isinstance(deg, np.ndarray)
            and deg.dtype == np.int64
            and deg.shape == (count,)
        ):
            raise CheckpointError(
                f"{_INVALID}: 'nbr_deg' is {_describe(deg)}, expected "
                f"int64 of shape {(count,)}"
            )
        leech_deg = deg[~rows["is_seed"]]
        if (deg.size and deg.min() < 0) or np.any(leech_deg > width):
            raise CheckpointError(
                f"{_INVALID}: 'nbr_deg' is negative, or above the row "
                f"width {width} for a leecher"
            )
        nbr = check_slot_array(block["nbr"], "nbr", capacity)
        if nbr.size != int(leech_deg.sum()):
            raise CheckpointError(
                f"{_INVALID}: store column 'nbr' has {nbr.size} cells, "
                f"the leecher degrees need {int(leech_deg.sum())}"
            )
        return count

    @classmethod
    def from_block(
        cls, block: dict, config: SimConfig
    ) -> Tuple["PeerStore", np.ndarray]:
        """Rebuild a store from :meth:`to_block`'s output, copying every
        array it keeps; returns it with the alive slots in block order."""
        cls.check_block(block, config)
        store = cls(
            int(block["capacity"]), config.num_pieces, accept_cap(config)
        )
        store.free = block["free"].tolist()
        slots = np.array(block["slots"])
        store.alive[slots] = True
        store.put_rows(slots, block)
        store.nbr_deg[slots] = block["nbr_deg"]
        store.nbr[store._leech_cells()] = block["nbr"]
        return store, slots

    def release(self, slots: np.ndarray) -> None:
        """Return slots to the free list (ascending push order)."""
        self.alive[slots] = False
        self.peer_id[slots] = -1
        self.nbr[slots] = -1
        self.nbr_deg[slots] = 0
        self.free.extend(np.sort(slots).tolist())

    def remove_row_entries(
        self, holders: np.ndarray, values: np.ndarray
    ) -> None:
        """Delete ``values[i]`` from ``holders[i]``'s neighbor row.

        Vectorized multi-removal without a sort: find each doomed
        cell's column by row lookup, mark the affected rows, then
        rewrite them -1-padded with the kept cells slid left (a
        boolean-mask gather reads them in row-major order, so they keep
        their order).  Each (holder, value) must exist; a missing one
        raises :class:`SimulationError`.
        """
        if holders.size == 0:
            return
        # The lookup gathers one row per holder: chunk it, since a round
        # that departs thousands of peers can name ~10^6 holders.
        col = np.empty(holders.size, dtype=np.int64)
        chunk = max(1, _CHUNK_CELLS // max(self.nbr_width, 1))
        for start in range(0, holders.size, chunk):
            part = slice(start, start + chunk)
            col[part], found = row_columns(
                self.nbr[holders[part]], values[part]
            )
            if not found.all():
                miss = start + int(np.flatnonzero(~found)[0])
                raise SimulationError(
                    f"neighbor row of slot {int(holders[miss])} has no "
                    f"entry {int(values[miss])} to remove"
                )
        mark = np.zeros(self.capacity, dtype=bool)
        mark[holders] = True
        rows = np.flatnonzero(mark)
        pos = np.empty(self.capacity, dtype=np.int64)
        pos[rows] = np.arange(rows.size)
        columns = np.arange(self.nbr_width)[None, :]
        keep = columns < self.nbr_deg[rows][:, None]
        keep[pos[holders], col] = False
        new_deg = keep.sum(axis=1)
        packed = np.full((rows.size, self.nbr_width), -1, dtype=np.int64)
        packed[columns < new_deg[:, None]] = self.nbr[rows][keep]
        self.nbr[rows] = packed
        self.nbr_deg[rows] = new_deg


# ----------------------------------------------------------------------
# The scratch arena
# ----------------------------------------------------------------------
class ScratchArena:
    """Reusable per-round work buffers, keyed by name.

    Steady-state rounds of the SoA engine need a handful of
    capacity-sized temporaries (masks, quotas, sweep buffers).  The
    arena keeps one persistent buffer per name and hands out zeroed or
    filled *views* of the requested size, so a settled swarm allocates
    ~zero fresh arrays per round; buffers grow geometrically with the
    slab.  ``created`` counts (re)allocations — the reuse test pins it
    flat across steady-state rounds.

    Values are always explicitly reset on take, so arena reuse is
    bit-invisible to the simulation.
    """

    __slots__ = ("_buffers", "created")

    def __init__(self):
        self._buffers: Dict[str, np.ndarray] = {}
        self.created = 0

    def take(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        """An *uninitialized* length-``size`` view of buffer ``name``."""
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            grown = size if buf is None else max(size, 2 * buf.size)
            buf = np.empty(grown, dtype=dtype)
            self._buffers[name] = buf
            self.created += 1
        return buf[:size]

    def zeros(self, name: str, size: int, dtype=np.int64) -> np.ndarray:
        view = self.take(name, size, dtype)
        view.fill(0)
        return view

    def full(self, name: str, size: int, fill, dtype=np.int64) -> np.ndarray:
        view = self.take(name, size, dtype)
        view.fill(fill)
        return view


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class SoaSwarm(CheckpointControl):
    """Array-native swarm: same protocol, same config, ~2 orders faster.

    Construction mirrors :class:`~repro.sim.swarm.Swarm` (which builds
    this engine for ``backend="soa"`` and for ``backend="sharded",
    shards=1``); options that require per-peer objects
    (instrumentation, neighborhood rarity, greedy matching, sub-piece
    blocks, tracker bootstrap bias, and the sequential/windowed
    streaming policies) raise :class:`~repro.errors.ParameterError`
    pointing at the object backend.
    """

    def __init__(
        self,
        config: SimConfig,
        *,
        instrument_first: int = 0,
        instrumented_avoid_seeds: bool = False,
        instrumented_start_empty: bool = True,
        rarity_view: str = "global",
        metrics: Optional[MetricsCollector] = None,
        faults: Optional[FaultPlan] = None,
        profile: bool = False,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
    ):
        self._check_supported(
            config, instrument_first, instrumented_avoid_seeds, rarity_view
        )
        super().__init__(checkpoint_every, checkpoint_path)
        self.backend = "soa"
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.engine = DiscreteEventEngine()
        self.metrics = metrics or MetricsCollector(config.max_conns)
        self.instrument_first = 0
        self.instrumented_avoid_seeds = instrumented_avoid_seeds
        self.instrumented_start_empty = instrumented_start_empty
        self.rarity_view = rarity_view
        self.instrumented_peers: list = []
        self.piece_counts = np.zeros(config.num_pieces, dtype=np.int64)
        self.connection_stats = ConnectionStats()
        self.profiler: Optional[RoundProfiler] = (
            RoundProfiler(stages=SOA_STAGES) if profile else None
        )
        self.seed_upload_count = 0
        self._rounds = 0
        self._setup_done = False
        self.fault_injector: Optional[FaultInjector] = None
        if faults is not None:
            self.fault_injector = FaultInjector(faults, config.seed)
            self.engine.add_pre_dispatch_hook(self.fault_injector.observe)
        self.engine.register("round", self._on_round)
        self.engine.register("arrival", self._on_arrival)

        self._accept_cap = accept_cap(config)
        expected = (
            config.num_seeds
            + config.initial_leechers
            + config.flash_size
            + int(config.arrival_rate * config.max_time * 1.25)
            + 64
        )
        self.store = PeerStore(
            expected, config.num_pieces, self._accept_cap
        )
        #: Reusable per-round temporaries (masks, quotas, sweeps): a
        #: settled swarm's rounds run allocation-free out of this arena.
        self.scratch = ScratchArena()
        #: Active trading connections as (slot_a, slot_b) rows, a < b.
        #: Row order is part of the deterministic state (checkpointed).
        self._pairs = np.zeros((0, 2), dtype=np.int64)
        self._id_to_slot: Dict[int, int] = {}
        self._next_id = 0
        self._n_leech = 0
        self._n_seeds = 0
        self._population_log: List[Tuple[float, int, int]] = []
        self._full_words = pack_mask(
            config.num_pieces, (1 << config.num_pieces) - 1
        )
        self._counts_snapshot: Optional[np.ndarray] = None
        self._snapshot_round = -1
        self._alive_cache = np.zeros(0, dtype=np.int64)
        self._alive_dirty = True
        #: Arrival slots whose tracker announce is deferred to the next
        #: round boundary (neighbor rows are only read during rounds,
        #: so coalescing the announces there is observation-equivalent
        #: and turns per-arrival work into one batch per round).
        self._pending_announce: List[int] = []

    @staticmethod
    def _check_supported(
        config: SimConfig,
        instrument_first: int,
        instrumented_avoid_seeds: bool,
        rarity_view: str,
    ) -> None:
        hint = "; use Swarm(config, backend='object') for this option"
        if instrument_first > 0 or instrumented_avoid_seeds:
            raise ParameterError(
                "the soa backend does not support per-peer "
                "instrumentation" + hint
            )
        if rarity_view != "global":
            raise ParameterError(
                f"the soa backend supports rarity_view='global' only, "
                f"got {rarity_view!r}" + hint
            )
        if config.piece_selection not in ("rarest", "strict-rarest", "random"):
            raise ParameterError(
                f"the soa backend supports piece_selection in "
                f"('rarest', 'strict-rarest', 'random'), "
                f"got {config.piece_selection!r}" + hint
            )
        if config.matching != "blind":
            raise ParameterError(
                f"the soa backend supports matching='blind' only, "
                f"got {config.matching!r}" + hint
            )
        if config.blocks_per_piece != 1:
            raise ParameterError(
                f"the soa backend transfers whole pieces "
                f"(blocks_per_piece=1), got {config.blocks_per_piece}"
                + hint
            )
        if config.tracker_bias_bootstrap:
            raise ParameterError(
                "the soa backend does not support "
                "tracker_bias_bootstrap" + hint
            )

    # ------------------------------------------------------------------
    # Setup / spawning
    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Create the initial population and schedule the event skeleton."""
        if self._setup_done:
            raise SimulationError("setup() called twice")
        self._setup_done = True
        config = self.config

        if config.num_seeds:
            self._spawn_batch(0.0, config.num_seeds, is_seed=True)
        if config.initial_leechers:
            self._spawn_batch(
                0.0,
                config.initial_leechers,
                init_words=self._initial_words(config.initial_leechers),
            )
        if config.arrival_process == "flash" and config.flash_size:
            self._spawn_batch(0.0, config.flash_size)
        elif config.arrival_process == "poisson" and config.arrival_rate > 0:
            self._schedule_next_arrival()

        expected_rounds = int(config.max_time / config.piece_time)
        self.metrics.set_expected_rounds(expected_rounds)
        self.engine.schedule_at(config.piece_time, Event("round"))

    def _initial_words(self, count: int) -> Optional[np.ndarray]:
        """Packed initial bitfields for ``count`` initial leechers."""
        config = self.config
        if config.initial_distribution == "empty":
            return None
        prob = np.full(config.num_pieces, config.initial_fill)
        if config.initial_distribution == "skewed":
            prob[: config.skewed_pieces] *= config.skew_factor
        held = self.rng.random((count, config.num_pieces)) < prob[None, :]
        # A complete "initial leecher" would depart instantly; drop one
        # random piece so it participates at least one round.
        full_rows = np.flatnonzero(held.all(axis=1))
        if full_rows.size:
            drops = self.rng.integers(
                0, config.num_pieces, size=full_rows.size
            )
            held[full_rows, drops] = False
        return pack_rows(held)

    def _spawn_batch(
        self,
        time: float,
        count: int,
        *,
        is_seed: bool = False,
        init_words: Optional[np.ndarray] = None,
        announce: bool = True,
    ) -> np.ndarray:
        config = self.config
        store = self.store
        slots = store.allocate(count)
        self._alive_dirty = True
        ids = np.arange(self._next_id, self._next_id + count, dtype=np.int64)
        self._next_id += count
        store.peer_id[slots] = ids
        self._id_to_slot.update(zip(ids.tolist(), slots.tolist()))
        store.joined_at[slots] = time
        if is_seed:
            store.is_seed[slots] = True
            store.bits[slots] = self._full_words[None, :]
            store.counts[slots] = config.num_pieces
            self.piece_counts += count
            self._n_seeds += count
        else:
            self._n_leech += count
            if init_words is not None:
                store.bits[slots] = init_words
                counts = popcount_rows(init_words)
                store.counts[slots] = counts
                self.piece_counts += unpack_rows(
                    init_words, config.num_pieces
                ).sum(axis=0)
                store.first_piece_at[slots[counts > 0]] = time
                store.prelast_at[
                    slots[counts >= config.num_pieces - 1]
                ] = time
            if config.bandwidth_classes is not None:
                fractions = [f for f, _ in config.bandwidth_classes]
                caps = np.array(
                    [int(c) for _, c in config.bandwidth_classes],
                    dtype=np.int64,
                )
                chosen = self.rng.choice(
                    len(fractions), size=count, p=fractions
                )
                store.upload_capacity[slots] = caps[chosen]
        if announce:
            self._announce_batch(slots)
        else:
            self._pending_announce.extend(slots.tolist())
        return slots

    # ------------------------------------------------------------------
    # Tracker announce (slot-native, whole batches at once)
    # ------------------------------------------------------------------
    def _announce_batch(self, slots: np.ndarray) -> None:
        """Fill each announcer's neighbor set toward ``ns_size``.

        The tracker's sequential permutation walk becomes rejection
        sampling over the whole announcer batch: every announcer draws
        an oversampled batch of uniform candidates, invalid draws
        (self, repeated pairs, existing neighbors, at-cap leechers) are
        dropped, and the announce quota and the row-space cap keep each
        announcer's and each candidate's earliest draws; unfilled
        announcers redraw for a few passes.  A near-saturated swarm can
        leave an announcer slightly under-filled where the sequential
        walk would have scanned every peer — it retries at the next
        refill interval.
        """
        store = self.store
        config = self.config
        injector = self.fault_injector
        if injector is not None:
            outage = injector.announce_outage()
            if outage is not None:
                if outage.mode == "empty":
                    for _ in range(slots.size):
                        injector.record_empty_announce()
                    return
                for slot in slots:
                    deficit = config.ns_size - int(store.nbr_deg[slot])
                    if deficit > 0:
                        self._announce_stale(int(slot), deficit, outage)
                return
        alive = self._alive_slots()
        if alive.size <= 1:
            return
        ann = slots
        for _ in range(3):
            need = config.ns_size - store.nbr_deg[ann]
            ann = ann[need > 0]
            need = need[need > 0]
            if ann.size == 0:
                break
            admitted = self._announce_pass(ann, need, alive)
            if not admitted:
                break

    def _announce_pass(
        self, ann: np.ndarray, need: np.ndarray, alive: np.ndarray
    ) -> int:
        """One oversampled draw-filter-admit pass over the distinct
        announcers ``ann``; returns the relations added.

        Proposals are generated grouped by announcer (``repeat``), and
        every limit is a lookup: the announce quota is a proposal's
        position in its group, a repeated pair is found in the
        announcers' proposal rows (:func:`first_pairs`), and one
        occurrence rank (:func:`occurrence_ranks`) gives both a
        candidate's row-space limit and the columns its new entries
        take.  An announcer's row always has room for its quota
        (``accept_cap >= ns_size``), so row space binds only on the
        candidate role.
        """
        store = self.store
        cap = store.capacity
        oversample = np.maximum((3 * need) // 2, 4)
        prop_ann = np.repeat(ann, oversample)
        cand = alive[self.rng.integers(0, alive.size, size=prop_ann.size)]
        # Leecher candidates with a full row decline.
        ok = (cand != prop_ann) & (
            store.is_seed[cand] | (store.nbr_deg[cand] < self._accept_cap)
        )
        # Existing relations, in chunks of proposals: the announcer's
        # row holds them, or the candidate's when the announcer is a
        # (row-less) seed.  Seed rows are all -1 and leecher rows are -1
        # past their degree, so only leecher rows with entries are
        # gathered, up to the largest such degree.
        seed_ann = store.is_seed[prop_ann]
        chunk = max(1, _CHUNK_CELLS // store.nbr_width)
        for lo in range(0, prop_ann.size, chunk):
            part = slice(lo, lo + chunk)
            side = np.where(seed_ann[part], cand[part], prop_ann[part])
            other = np.where(seed_ann[part], prop_ann[part], cand[part])
            deg = store.nbr_deg[side]
            look = np.flatnonzero(ok[part] & (deg > 0) & ~store.is_seed[side])
            if look.size:
                rows = store.nbr[side[look], : int(deg[look].max())]
                ok[lo + look] = ~(rows == other[look, None]).any(axis=1)
        idx = np.flatnonzero(ok)
        p_ann = prop_ann[idx]
        p_cand = cand[idx]
        # Announce quota: the first ``need`` surviving draws per group.
        quota = self.scratch.zeros("announce_quota", cap)
        quota[ann] = need
        cols = _contiguous_ranks(p_ann)
        admit = cols < quota[p_ann]
        p_ann, p_cand, cols = p_ann[admit], p_cand[admit], cols[admit]
        # Keep the earliest draw of each unordered pair, like the
        # tracker's walk visiting each peer once.  A duplicate inside
        # the quota window wastes its slot — the next pass redraws it.
        row_of = self.scratch.full("announce_row", cap, -1)
        row_of[ann] = np.arange(ann.size)
        first = first_pairs(p_ann, p_cand, cols, row_of)
        p_ann, p_cand = p_ann[first], p_cand[first]
        # Candidate-role row space: capacity left after this pass's own
        # announcer-role additions.  A candidate keeps its first
        # ``space`` proposals, a prefix, so the kept ranks stay exact.
        space = self.scratch.take("announce_space", cap)
        np.subtract(self._accept_cap, store.nbr_deg, out=space)
        space[store.is_seed] = np.iinfo(np.int64).max
        space -= np.bincount(p_ann, minlength=cap)
        rank = occurrence_ranks(p_cand)
        keep = rank < space[p_cand]
        p_ann, p_cand, rank = p_ann[keep], p_cand[keep], rank[keep]
        self._append_relations(p_ann, p_cand, _contiguous_ranks(p_ann))
        self._append_relations(p_cand, p_ann, rank)
        return p_ann.size

    def _append_relations(
        self, holders: np.ndarray, values: np.ndarray, ranks: np.ndarray
    ) -> None:
        """Record one direction of new relations (holders may repeat).

        ``ranks[i]`` counts the earlier entries of ``holders`` equal to
        ``holders[i]``.  A leecher holder gets ``values[i]`` at column
        ``nbr_deg + ranks[i]`` of its row; a seed holder is counter-only.
        """
        store = self.store
        leech = ~store.is_seed[holders]
        h = holders[leech]
        store.nbr[h, store.nbr_deg[h] + ranks[leech]] = values[leech]
        np.add.at(store.nbr_deg, holders, 1)

    def _announce_stale(self, slot: int, deficit: int, outage) -> int:
        """Stale-window announce: a fixed handout from the snapshot."""
        store = self.store
        injector = self.fault_injector
        pool_ids = injector.stale_peer_ids(
            outage, sorted(self._id_to_slot)
        )
        deg = int(store.nbr_deg[slot])
        neighbor_slots = {int(v) for v in store.nbr[slot, :deg]}
        my_id = int(store.peer_id[slot])
        candidates = []
        for pid in pool_ids:
            if pid == my_id:
                continue
            cand_slot = self._id_to_slot.get(pid, -1)
            if cand_slot in neighbor_slots:
                continue
            candidates.append(pid)
        if not candidates:
            return 0
        permuted = [
            candidates[j] for j in self.rng.permutation(len(candidates))
        ]
        added = 0
        for pid in permuted[:deficit]:
            cand_slot = self._id_to_slot.get(pid)
            if cand_slot is None:
                continue  # departed during the outage: wasted handout
            if (
                not store.is_seed[cand_slot]
                and store.nbr_deg[cand_slot] >= self._accept_cap
            ):
                continue
            pair = np.array([slot, cand_slot], dtype=np.int64)
            self._append_relations(pair, pair[::-1], np.zeros(2, np.int64))
            added += 1
        return added

    def _alive_slots(self) -> np.ndarray:
        if self._alive_dirty:
            self._alive_cache = np.flatnonzero(self.store.alive)
            self._alive_dirty = False
        return self._alive_cache

    # ------------------------------------------------------------------
    # Arrivals
    # ------------------------------------------------------------------
    def _schedule_next_arrival(self) -> None:
        delay = float(self.rng.exponential(1.0 / self.config.arrival_rate))
        when = self.engine.now + delay
        if when <= self.config.max_time:
            self.engine.schedule_at(when, Event("arrival"))

    def _on_arrival(self, time: float, event: Event) -> None:
        self._spawn_batch(time, 1, announce=False)
        self._schedule_next_arrival()

    # ------------------------------------------------------------------
    # The protocol round
    # ------------------------------------------------------------------
    def _on_round(self, time: float, event: Event) -> None:
        config = self.config
        store = self.store
        self._rounds += 1
        profiler = self.profiler
        if profiler is not None:
            profiler.begin_round()

        if self._pending_announce:
            self._announce_batch(
                np.array(self._pending_announce, dtype=np.int64)
            )
            self._pending_announce.clear()
        self._depart_lingering_seeds(time)
        self._handle_aborts(time)
        self._inject_churn(time)
        self._maintain_connections()
        if profiler is not None:
            profiler.lap("store")

        leech = np.flatnonzero(store.alive & ~store.is_seed)
        pot_full = self.scratch.zeros("pot_full", store.capacity)
        if leech.size:
            # Only a leecher holding some but not all pieces can join a
            # mutual-interest edge: an empty one (the bootstrap phase)
            # offers nothing and a complete one wants nothing.
            held = store.counts[leech]
            trade = leech[(held > 0) & (held < config.num_pieces)]
            deg = store.nbr_deg[trade]
            nbr = store.nbr[trade, : int(deg.max()) if deg.size else 0]
            give, take = row_interest(store.bits, trade, nbr, deg)
            mutual = give & take
            pot_full[trade] = mutual.sum(axis=1)
            if profiler is not None:
                profiler.lap("interest")

            self._fill_slots(trade, nbr, mutual)
            if profiler is not None:
                profiler.lap("selection")

            self._exchange(time)
            if profiler is not None:
                profiler.lap("exchange")

            self._seed_uploads(time)
            self._donations(leech, time)
            if profiler is not None:
                profiler.lap("seeds")

            self._handle_completions(time)
            self._handle_shakes(time)
            self._refill_neighbor_sets()
        else:
            if profiler is not None:
                profiler.lap("interest")

        self._log_round(time, pot_full)
        if profiler is not None:
            profiler.lap("bookkeeping")

        next_time = time + config.piece_time
        if next_time <= config.max_time and (
            (self._n_leech + self._n_seeds) > 0
            or self.engine.pending_events > 0
        ):
            self.engine.schedule_at(next_time, Event("round"))

        self._maybe_checkpoint()

    # -- store maintenance -------------------------------------------------
    def _depart_lingering_seeds(self, time: float) -> None:
        if self.config.completed_become_seeds <= 0:
            return  # origin seeds have no deadline and never leave
        store = self.store
        due = np.flatnonzero(
            store.alive & store.is_seed & (store.seed_until <= time)
        )
        if due.size:
            self._remove_peers(due)

    def _handle_aborts(self, time: float) -> None:
        """Leechers abandon at rate ``abort_rate`` via one batched draw."""
        rate = self.config.abort_rate
        if rate <= 0.0:
            return
        leech = np.flatnonzero(self.store.alive & ~self.store.is_seed)
        if leech.size:
            self._abort(leech[self.rng.random(leech.size) < rate], time)

    def _inject_churn(self, time: float) -> None:
        """Fault-plan churn through the injector's batched mask."""
        injector = self.fault_injector
        if injector is None or injector.plan.churn_hazard <= 0.0:
            return
        leech = np.flatnonzero(self.store.alive & ~self.store.is_seed)
        if leech.size:
            self._abort(leech[injector.churn_mask(leech.size)], time)

    def _abort(self, gone: np.ndarray, time: float) -> None:
        """Record the leechers ``gone`` as aborted, then depart them."""
        if gone.size == 0:
            return
        for held in self.store.counts[gone].tolist():
            self.metrics.record_abort(time, held)
        self._remove_peers(gone)

    def _maintain_connections(self) -> None:
        """Drop pairs that lost interest or failed exogenously."""
        pairs = self._pairs
        if pairs.shape[0] == 0:
            return
        config = self.config
        a = pairs[:, 0]
        b = pairs[:, 1]
        give_ab, give_ba = interest_flags(self.store.bits, a, b)
        if config.strict_tft:
            alive = give_ab & give_ba
        else:
            alive = give_ab | give_ba
        if config.connection_failure_prob > 0.0:
            idx = np.flatnonzero(alive)
            if idx.size:
                failed = (
                    self.rng.random(idx.size)
                    < config.connection_failure_prob
                )
                alive[idx[failed]] = False
        injector = self.fault_injector
        if (
            injector is not None
            and injector.plan.connection_break_prob > 0.0
        ):
            idx = np.flatnonzero(alive)
            broken = injector.break_mask(idx.size)
            if broken.any():
                alive[idx[broken]] = False
        survived = int(alive.sum())
        self.connection_stats.survived += survived
        self.connection_stats.dropped += pairs.shape[0] - survived
        if survived < pairs.shape[0]:
            self._pairs = pairs[alive]

    # -- matching ----------------------------------------------------------
    def _partner_degrees(self) -> np.ndarray:
        if self._pairs.shape[0] == 0:
            return np.zeros(self.store.capacity, dtype=np.int64)
        return np.bincount(
            self._pairs.ravel(), minlength=self.store.capacity
        )

    def _fill_slots(
        self, trade: np.ndarray, nbr: np.ndarray, mutual: np.ndarray
    ) -> None:
        """Blind bilateral matching over the mutual-interest cells.

        ``nbr`` holds the neighbor rows of the leechers ``trade`` and
        ``mutual`` their mutual-interest cells (cleared of current
        partners in place).  Each leecher proposes one uniformly drawn
        potential partner per open slot; proposals then pass a
        handshake/setup gate and a two-sided rank filter that admits at
        most ``open`` new connections per endpoint (an endpoint whose
        earlier-priority proposal fails elsewhere simply under-fills,
        exactly like the object backend's busy-candidate waste).  Every
        candidate is itself a trading leecher, so only ``trade`` rows
        carry capacity.
        """
        if not mutual.any():
            return
        config = self.config
        cap = self.store.capacity
        degrees = self._partner_degrees()
        open_slots = config.max_conns - degrees[trade]
        # Candidate pool per proposer = potential minus current partners
        # (the object backend's ``candidates`` list): each pair is an
        # entry in its trading endpoints' rows, cleared by row lookup.
        if self._pairs.shape[0]:
            row_of = self.scratch.full("leech_row", cap, -1)
            row_of[trade] = np.arange(trade.size)
            mutual[partner_cells(nbr, row_of, self._pairs)] = False
        m_dst = nbr[mutual]
        avail = mutual.sum(axis=1)
        proposing = (avail > 0) & (open_slots > 0)
        if not proposing.any():
            return
        starts = np.cumsum(avail) - avail
        rows = np.flatnonzero(proposing)
        prop_row = np.repeat(rows, open_slots[rows])
        n_prop = prop_row.size
        self.connection_stats.attempts += n_prop
        u = self.rng.random(n_prop)
        span = avail[prop_row]
        pick = starts[prop_row] + np.minimum(
            (u * span).astype(np.int64), span - 1
        )
        candidate = m_dst[pick]
        proposer = trade[prop_row]
        # Per-peer sweep positions (the object backend's random
        # processing order); a proposal's priority is its owner's turn,
        # slots within the turn in draw order.
        sweep = self.scratch.full("sweep", cap, -1)
        sweep[trade[rows]] = self.rng.permutation(rows.size)
        priority = (
            sweep[proposer] * config.max_conns
            + _contiguous_ranks(prop_row)
        )

        key = (
            np.minimum(proposer, candidate) * cap
            + np.maximum(proposer, candidate)
        )
        ok = np.ones(n_prop, dtype=bool)
        if config.connection_setup_prob < 1.0:
            idx = np.flatnonzero(ok)
            keep = (
                self.rng.random(idx.size) < config.connection_setup_prob
            )
            ok[idx[~keep]] = False
        injector = self.fault_injector
        if (
            injector is not None
            and injector.plan.handshake_failure_prob > 0.0
        ):
            idx = np.flatnonzero(ok)
            failed = injector.handshake_mask(idx.size)
            if failed.any():
                ok[idx[failed]] = False
        ok_idx = np.flatnonzero(ok)
        if ok_idx.size == 0:
            return
        # Dedupe duplicate proposals of the same unordered pair, keeping
        # the earliest sweep turn (the object backend's repeat draws of
        # a formed partner are wasted attempts, so they stay counted).
        keep = group_ranks(key[ok_idx], priority[ok_idx]) == 0
        keep_idx = ok_idx[keep]
        end_a = proposer[keep_idx]
        end_b = candidate[keep_idx]
        remaining = self.scratch.zeros("remaining", cap)
        remaining[trade] = open_slots
        priority = priority[keep_idx]
        # Iterated two-sided rank filter: each pass admits proposals
        # ranked inside both endpoints' residual capacity, then charges
        # the accepted ones and retries the rest — converging on the
        # sequential walk's fill level without its O(N) loop.
        accept = np.zeros(keep_idx.size, dtype=bool)
        pending = np.arange(keep_idx.size)
        for _ in range(3):
            if pending.size == 0:
                break
            pr = priority[pending]
            # Rank both endpoint roles in one group per slot: a peer
            # proposing while also being proposed to spends the same
            # open slots either way (the object backend's busy check
            # counts total partners, not per-role).
            ends = np.concatenate([end_a[pending], end_b[pending]])
            ranks = group_ranks(ends, np.concatenate([pr, pr]))
            n_pend = pending.size
            admitted = (ranks[:n_pend] < remaining[end_a[pending]]) & (
                ranks[n_pend:] < remaining[end_b[pending]]
            )
            if not admitted.any():
                break
            taken = pending[admitted]
            accept[taken] = True
            np.subtract.at(remaining, end_a[taken], 1)
            np.subtract.at(remaining, end_b[taken], 1)
            pending = pending[~admitted]
            if pending.size:
                # A failed attempt is wasted, not queued: proposals
                # whose endpoint ran out of slots can never be admitted
                # and must stop occupying ranks ahead of later-priority
                # proposals (the object backend's busy-candidate waste
                # does not reserve the proposer's own slot either).
                live = (remaining[end_a[pending]] > 0) & (
                    remaining[end_b[pending]] > 0
                )
                pending = pending[live]
        formed = int(accept.sum())
        if formed:
            # Sequential-sweep attempt accounting: a formed connection
            # consumes one of the candidate's open slots *before its
            # own turn* when the candidate proposes later, so that slot
            # never becomes an attempt in the object backend.
            acc = np.flatnonzero(accept)
            later = (sweep[end_b[acc]] >= 0) & (
                sweep[end_b[acc]] > sweep[end_a[acc]]
            )
            self.connection_stats.attempts -= int(later.sum())
        if formed:
            new_pairs = np.stack(
                [
                    np.minimum(end_a, end_b)[accept],
                    np.maximum(end_a, end_b)[accept],
                ],
                axis=1,
            )
            self._pairs = np.concatenate([self._pairs, new_pairs], axis=0)
        self.connection_stats.formed += formed

    # -- piece transfer ----------------------------------------------------
    def _rarity_snapshot(self) -> np.ndarray:
        """Round-start replication counts (one snapshot per round)."""
        if self._snapshot_round != self._rounds:
            self._snapshot_round = self._rounds
            self._counts_snapshot = self.piece_counts.copy()
        return self._counts_snapshot

    def _select_pieces(
        self,
        recv: np.ndarray,
        send: Optional[np.ndarray] = None,
        offer_words: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Vectorized piece choice per (receiver, sender) transfer.

        Candidates are the sender's (or explicit offer's) pieces the
        receiver lacks; the policy weights mirror
        :func:`~repro.sim.piece_selection.select_piece` — uniform below
        the random-first cutoff, ``(count + 1) ** -RARITY_EXPONENT``
        for noisy rarest, argmin-mask for strict rarest.  Returns -1
        for transfers with no candidates.
        """
        config = self.config
        store = self.store
        n = recv.size
        num_pieces = config.num_pieces
        out = np.full(n, -1, dtype=np.int64)
        if n == 0:
            return out
        policy = config.piece_selection
        counts_snap = self._rarity_snapshot()
        if policy == "rarest":
            rarity_w = (counts_snap + 1.0) ** -RARITY_EXPONENT
        chunk = max(1, _CHUNK_CELLS // max(num_pieces, 1))
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            if offer_words is not None:
                offered = offer_words[lo:hi]
            else:
                offered = store.bits[send[lo:hi]]
            cand_words = offered & ~store.bits[recv[lo:hi]]
            cand = unpack_rows(cand_words, num_pieces)
            if policy == "random":
                weights = cand.astype(np.float64)
            elif policy == "rarest":
                weights = cand * rarity_w[None, :]
                below = (
                    store.counts[recv[lo:hi]]
                    < config.random_first_cutoff
                )
                if below.any():
                    weights[below] = cand[below]
            else:  # strict-rarest
                masked = np.where(
                    cand, counts_snap[None, :], np.iinfo(np.int64).max
                )
                row_min = masked.min(axis=1)
                weights = (
                    (masked == row_min[:, None]) & cand
                ).astype(np.float64)
                below = (
                    store.counts[recv[lo:hi]]
                    < config.random_first_cutoff
                )
                if below.any():
                    weights[below] = cand[below]
            out[lo:hi] = weighted_pick_rows(weights, self.rng)
        return out

    def _apply_grants(
        self, r: np.ndarray, p: np.ndarray, time: float
    ) -> int:
        """Land granted pieces: bits, counts, replication, milestones.

        Callers guarantee ``(r, p)`` rows are unique and that no
        receiver already holds its piece (selection draws candidates
        from the live bitfields).
        """
        if r.size == 0:
            return 0
        store = self.store
        num_pieces = self.config.num_pieces
        word = (p >> 6).astype(np.int64)
        bit = _ONE << (p & 63).astype(np.uint64)
        np.bitwise_or.at(store.bits, (r, word), bit)
        affected = np.unique(r)
        before = store.counts[affected].copy()
        np.add.at(store.counts, r, 1)
        after = store.counts[affected]
        started = affected[(before == 0) & (after > 0)]
        store.first_piece_at[started] = time
        prelast = affected[
            (before < num_pieces - 1) & (after >= num_pieces - 1)
        ]
        store.prelast_at[prelast] = time
        self.piece_counts += np.bincount(p, minlength=num_pieces)
        return int(r.size)

    def _transfer(
        self,
        recv: np.ndarray,
        send: Optional[np.ndarray],
        time: float,
        offer_words: Optional[np.ndarray] = None,
        max_retry: int = 4,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run a batch of transfers, re-drawing collisions.

        The object backend applies grants sequentially, so two senders
        pointed at one receiver deliver two *distinct* pieces.  One
        batched draw would collide them onto the same piece and silently
        halve the receiver's round; instead, the first transfer per
        ``(receiver, piece)`` key lands and the collided remainder
        re-selects against the updated bitfields — a couple of
        iterations over a shrinking tail recovers the sequential
        cascade's throughput.  Returns the landed
        ``(recv, pieces, send)`` triples.
        """
        landed_recv: List[np.ndarray] = []
        landed_piece: List[np.ndarray] = []
        landed_send: List[np.ndarray] = []
        if send is None:
            send = np.full(recv.size, -1, dtype=np.int64)
        for _ in range(max_retry):
            if recv.size == 0:
                break
            pieces = self._select_pieces(
                recv,
                send=None if offer_words is not None else send,
                offer_words=offer_words,
            )
            valid = pieces >= 0
            recv_v = recv[valid]
            pieces_v = pieces[valid]
            send_v = send[valid]
            offer_v = offer_words[valid] if offer_words is not None else None
            if recv_v.size == 0:
                break
            key = recv_v * self.config.num_pieces + pieces_v
            _, first = np.unique(key, return_index=True)
            land = np.zeros(recv_v.size, dtype=bool)
            land[first] = True
            self._apply_grants(recv_v[land], pieces_v[land], time)
            landed_recv.append(recv_v[land])
            landed_piece.append(pieces_v[land])
            landed_send.append(send_v[land])
            recv = recv_v[~land]
            send = send_v[~land]
            if offer_v is not None:
                offer_words = offer_v[~land]
        if not landed_recv:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty
        return (
            np.concatenate(landed_recv),
            np.concatenate(landed_piece),
            np.concatenate(landed_send),
        )

    def _exchange(self, time: float) -> int:
        """Tit-for-tat swaps over the pair list, both directions batched."""
        pairs = self._pairs
        if pairs.shape[0] == 0:
            return 0
        config = self.config
        store = self.store
        a = pairs[:, 0]
        b = pairs[:, 1]
        give_ab, give_ba = interest_flags(store.bits, a, b)
        if config.strict_tft:
            both = give_ab & give_ba
            act_ab = both
            act_ba = both
        else:
            act_ab = give_ab
            act_ba = give_ba
        if config.bandwidth_classes is not None:
            # Per-endpoint upload budget: rank the pairs randomly and
            # keep each pair only while both uplinks have capacity left.
            capacity = np.where(
                store.upload_capacity >= 0,
                store.upload_capacity,
                np.iinfo(np.int64).max,
            )
            priority = self.rng.permutation(pairs.shape[0])
            rank_a = group_ranks(a, priority)
            rank_b = group_ranks(b, priority)
            budget_ok = (rank_a < capacity[a]) & (rank_b < capacity[b])
            act_ab = act_ab & budget_ok
            act_ba = act_ba & budget_ok
        recv = np.concatenate([b[act_ab], a[act_ba]])
        send = np.concatenate([a[act_ab], b[act_ba]])
        if recv.size == 0:
            return 0
        landed, _, _ = self._transfer(recv, send, time)
        return landed.size

    def _seed_uploads(self, time: float) -> int:
        """Seed grants via the seed entries of the leecher rows.

        Every (leecher, seed) relation appears exactly once, as a seed
        entry in the leecher's row, so the seeds' interested neighbors
        come from one scan of the neighbor matrix — no seed rows needed
        (seed and free rows hold only padding).  Each seed serves up to
        ``seed_upload_slots`` distinct receivers per round (rank filter
        = the object backend's ``permutation(interested)[:slots]``).
        """
        config = self.config
        store = self.store
        slots = config.seed_upload_slots
        if slots <= 0 or self._n_seeds == 0:
            return 0
        seed_mask = self.scratch.zeros(
            "seed_mask", store.capacity + 1, np.bool_
        )
        np.logical_and(store.alive, store.is_seed, out=seed_mask[:-1])
        s_recv, s_seed = entries_in(store.nbr, seed_mask)
        wants = store.counts[s_recv] < config.num_pieces
        s_recv = s_recv[wants]
        s_seed = s_seed[wants]
        if s_recv.size == 0:
            return 0
        priority = self.rng.permutation(s_recv.size)
        rank = group_ranks(s_seed, priority)
        chosen = rank < slots
        s_recv = s_recv[chosen]
        s_seed = s_seed[chosen]
        if config.super_seeding:
            for seed_slot in np.unique(s_seed):
                remaining = (
                    ~store.seeded[seed_slot] & self._full_words
                )
                if not remaining.any():
                    # Every piece injected at least once: reset the
                    # restriction (the seed starts a second pass).
                    store.seeded[seed_slot] = 0
            offer = ~store.seeded[s_seed] & self._full_words[None, :]
            landed, pieces, senders = self._transfer(
                s_recv, s_seed, time, offer_words=offer
            )
            for seed_slot, piece in zip(senders, pieces):
                store.seeded[int(seed_slot), int(piece) >> 6] |= (
                    _ONE << np.uint64(int(piece) & 63)
                )
        else:
            landed, _, _ = self._transfer(s_recv, s_seed, time)
        self.seed_upload_count += landed.size
        return landed.size

    def _donations(self, leech: np.ndarray, time: float) -> int:
        """Optimistic unchokes: free pieces for neighbors that can't pay."""
        config = self.config
        prob = config.optimistic_unchoke_prob
        if prob <= 0.0 or leech.size == 0:
            return 0
        store = self.store
        donating = (store.counts[leech] >= 1) & (
            self.rng.random(leech.size) < prob
        )
        donors = leech[donating]
        if donors.size == 0:
            return 0
        deg = store.nbr_deg[donors]
        nbr = store.nbr[donors, : int(deg.max())]
        # A seed neighbor holds every piece, so neither target test can
        # pick one.
        if config.optimistic_targets == "empty":
            eligible = (np.arange(nbr.shape[1]) < deg[:, None]) & (
                store.counts[nbr] == 0
            )
        else:
            # Starved: wants something from the donor but has nothing
            # novel to trade back (post-exchange bitfields, like the
            # object backend's donation pass).
            give, take = row_interest(store.bits, donors, nbr, deg)
            eligible = give & ~take
        per_donor = eligible.sum(axis=1)
        rows = np.flatnonzero(per_donor)
        if rows.size == 0:
            return 0
        pool_dst = nbr[eligible]
        starts = np.cumsum(per_donor) - per_donor
        u = self.rng.random(rows.size)
        span = per_donor[rows]
        pick = starts[rows] + np.minimum(
            (u * span).astype(np.int64), span - 1
        )
        receivers = pool_dst[pick]
        senders = donors[rows]
        landed, _, _ = self._transfer(receivers, senders, time)
        return landed.size

    # -- bookkeeping -------------------------------------------------------
    def _record_completions(self, done: np.ndarray, time: float) -> None:
        """One :class:`CompletedDownload` per slot of ``done``, in order;
        each column is read once for the whole batch."""
        store = self.store
        completed = self.metrics.completed
        for peer_id, joined, first, prelast, shaken_at, shaken, capacity in zip(
            store.peer_id[done].tolist(),
            store.joined_at[done].tolist(),
            store.first_piece_at[done].tolist(),
            store.prelast_at[done].tolist(),
            store.shaken_at[done].tolist(),
            store.shaken[done].tolist(),
            store.upload_capacity[done].tolist(),
        ):
            stats = PeerStats(joined_at=joined)
            stats.completed_at = time
            # Compressed acquisition timeline: the phase boundaries the
            # paper's analyses read (first piece = bootstrap exit, B-1
            # pieces = last-phase entry, completion).
            stats.piece_times = [
                mark for mark in (first, prelast) if not math.isnan(mark)
            ] + [time]
            if not math.isnan(shaken_at):
                stats.shaken_at = shaken_at
            completed.append(
                CompletedDownload(
                    peer_id=peer_id,
                    joined_at=joined,
                    completed_at=time,
                    stats=stats,
                    shaken=shaken,
                    upload_capacity=capacity if capacity >= 0 else None,
                )
            )

    def _handle_completions(self, time: float) -> None:
        config = self.config
        store = self.store
        done = np.flatnonzero(
            store.alive
            & ~store.is_seed
            & (store.counts >= config.num_pieces)
        )
        if done.size == 0:
            return
        self._record_completions(done, time)
        if config.completed_become_seeds > 0:
            store.is_seed[done] = True
            store.seed_until[done] = time + config.completed_become_seeds
            self._n_leech -= done.size
            self._n_seeds += done.size
            # Converted seeds become counter-only like origin seeds:
            # their own rows are dropped (the symmetric halves survive
            # in the leechers' rows, which is all the reverse-edge seed
            # uploads read); their trading pairs are severed.
            store.nbr[done] = -1
            self._drop_pairs_touching(done)
        else:
            self._remove_peers(done)

    def _drop_pairs_touching(self, slots: np.ndarray) -> None:
        if self._pairs.shape[0] == 0:
            return
        gone = self.scratch.zeros("pair_gone", self.store.capacity, np.bool_)
        gone[slots] = True
        keep = ~(gone[self._pairs[:, 0]] | gone[self._pairs[:, 1]])
        if not keep.all():
            self._pairs = self._pairs[keep]

    def _scrub_rows(
        self, slots: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sever leecher ``slots``'s relations, batch-wise.

        Decrements every seed neighbor's relation counter (duplicates
        across slots accumulate via ``subtract.at``; entries within one
        row are unique) and returns the ``(holders, values)`` row
        deletions for the surviving leech neighbors — holders are the
        neighbors still carrying an entry, values the departing slot.
        """
        store = self.store
        deg = store.nbr_deg[slots]
        width = int(deg.max()) if deg.size else 0
        if width == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        sub = store.nbr[slots, :width]
        mask = np.arange(width)[None, :] < deg[:, None]
        entries = sub[mask]
        owners = np.repeat(slots, deg)
        seed_mask = store.is_seed[entries]
        np.subtract.at(store.nbr_deg, entries[seed_mask], 1)
        return entries[~seed_mask], owners[~seed_mask]

    def _handle_shakes(self, time: float) -> None:
        threshold = self.config.shake_threshold
        if threshold is None:
            return
        store = self.store
        num_pieces = self.config.num_pieces
        candidates = np.flatnonzero(
            store.alive
            & ~store.is_seed
            & ~store.shaken
            & (store.counts < num_pieces)
        )
        if candidates.size == 0:
            return
        ratios = store.counts[candidates] / num_pieces
        shakers = candidates[ratios >= threshold]
        if shakers.size == 0:
            return
        holders, values = self._scrub_rows(shakers)
        # Shakers may be mutual neighbors; drop cross-entries only from
        # rows that are not themselves being cleared below.
        shaking = self.scratch.zeros("shaking", store.capacity, np.bool_)
        shaking[shakers] = True
        outside = ~shaking[holders]
        store.remove_row_entries(holders[outside], values[outside])
        store.nbr[shakers] = -1
        store.nbr_deg[shakers] = 0
        store.shaken[shakers] = True
        store.shaken_at[shakers] = time
        self._drop_pairs_touching(shakers)
        injector = self.fault_injector
        if injector is not None:
            blocked = injector.shake_mask(shakers.size)
        else:
            blocked = np.zeros(shakers.size, dtype=bool)
        if (~blocked).any():
            self._announce_batch(shakers[~blocked])

    def _refill_neighbor_sets(self) -> None:
        config = self.config
        interval_rounds = max(
            int(config.announce_interval / config.piece_time), 1
        )
        if self._rounds % interval_rounds != 0:
            return
        store = self.store
        depleted = np.flatnonzero(
            store.alive
            & ~store.is_seed
            & (store.nbr_deg < config.ns_size)
        )
        if depleted.size:
            self._announce_batch(depleted)

    def _remove_peers(self, slots: np.ndarray) -> None:
        """Depart peers: scrub relations, replication counts, free slots."""
        store = self.store
        seed_departing = store.is_seed[slots]
        holders, values = self._scrub_rows(slots[~seed_departing])
        if seed_departing.any():
            # Seeds are counter-only: their relations live in leecher
            # rows, found by gathering a slot mask through the whole
            # adjacency once.
            seed_gone = self.scratch.zeros(
                "seed_gone", store.capacity + 1, np.bool_
            )
            seed_gone[slots[seed_departing]] = True
            hit_rows, hit_values = entries_in(store.nbr, seed_gone)
            holders = np.concatenate([holders, hit_rows])
            values = np.concatenate([values, hit_values])
        if holders.size:
            departing = self.scratch.zeros(
                "departing", store.capacity, np.bool_
            )
            departing[slots] = True
            outside = ~departing[holders]
            store.remove_row_entries(holders[outside], values[outside])
        self.piece_counts -= unpack_rows(
            store.bits[slots], self.config.num_pieces
        ).sum(axis=0)
        seeds_gone = int(store.is_seed[slots].sum())
        self._n_seeds -= seeds_gone
        self._n_leech -= slots.size - seeds_gone
        self._drop_pairs_touching(slots)
        for pid in store.peer_id[slots].tolist():
            del self._id_to_slot[pid]
        store.release(slots)
        self._alive_dirty = True

    def _log_round(
        self, time: float, pot_full: np.ndarray
    ) -> Optional[np.ndarray]:
        """Record the round's metrics; returns the occupancy-scope
        connection counts it recorded (None with no leechers)."""
        store = self.store
        metrics = self.metrics
        self._population_log.append((time, self._n_leech, self._n_seeds))
        degrees = None
        if (metrics.rounds_observed + 1) % metrics.entropy_every == 0:
            if metrics.entropy_includes_seeds:
                degrees = self.piece_counts
            else:
                degrees = self.piece_counts - self._n_seeds
        conn_counts = None
        leech_end = np.flatnonzero(store.alive & ~store.is_seed)
        if leech_end.size:
            partner_counts = self._partner_degrees()[leech_end]
            if metrics.occupancy_scope == "trading":
                in_scope = (store.counts[leech_end] >= 1) & (
                    pot_full[leech_end] >= 1
                )
                conn_counts = partner_counts[in_scope]
            else:
                conn_counts = partner_counts
        metrics.record_round(
            time,
            self._n_leech,
            self._n_seeds,
            degrees=degrees,
            conn_counts=conn_counts,
        )
        return conn_counts

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Soa snapshot document (dense arrays, ``backend`` marker)."""
        from repro.checkpoint.schema import snapshot_soa_swarm

        return snapshot_soa_swarm(self)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def step_round(self) -> bool:
        """Advance one protocol round; ``False`` when the run ended."""
        if not self._setup_done:
            self.setup()
        before = self._rounds
        while self._rounds == before:
            if self.engine.step() is None:
                return False
        return True

    def run(self) -> SwarmResult:
        """Run to the configured horizon and return the result bundle."""
        start = _time.perf_counter()
        if not self._setup_done:
            self.setup()
        self.engine.run_until(self.config.max_time)
        return self._result(
            start,
            instrumented=[],
            final_leechers=self._n_leech,
            final_seeds=self._n_seeds,
            tracker_population_log=list(self._population_log),
            connection_stats=self.connection_stats,
            seed_upload_count=self.seed_upload_count,
            events_processed=self.engine.processed_events,
            fault_stats=(
                self.fault_injector.stats if self.fault_injector else None
            ),
            round_profile=(
                self.profiler.as_dict()
                if self.profiler is not None
                else None
            ),
        )
