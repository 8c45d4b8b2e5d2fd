"""Unit tests for the shared-memory shard fabric (`repro.sim.shm`).

Exercises the coordinator/worker block protocol in-process: payload
roundtrips through both ends, double-buffer stamp validation, the
coordinator-driven growth protocol, byte accounting, and segment
lifecycle (every name must vanish from the OS namespace on close).
"""

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.shm import (
    SEGMENT_PREFIX,
    ShardFabric,
    WorkerFabric,
    migration_row_bytes,
)

NUM_PIECES = 7
WORDS = 1


def _segment_exists(name: str) -> bool:
    """Whether ``name`` still exists in the OS shm namespace."""
    try:
        probe = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    # The attach re-registers the name with the resource tracker; that
    # is a set-insert no-op here because every probed segment is owned
    # (and later unlinked, which unregisters) by this same process.
    probe.close()
    return True


def _migration_rows(n: int, words: int = WORDS, base: int = 0) -> dict:
    return {
        "peer_id": np.arange(base, base + n, dtype=np.int64),
        "counts": np.full(n, 3, dtype=np.int64),
        "upload_capacity": np.full(n, 2, dtype=np.int64),
        "bits": np.full((n, words), 5, dtype=np.uint64),
        "seeded": np.full((n, words), 1, dtype=np.uint64),
        "joined_at": np.full(n, 1.5, dtype=np.float64),
        "seed_until": np.full(n, -1.0, dtype=np.float64),
        "first_piece_at": np.full(n, 2.5, dtype=np.float64),
        "prelast_at": np.full(n, -1.0, dtype=np.float64),
        "shaken_at": np.full(n, -1.0, dtype=np.float64),
        "is_seed": np.zeros(n, dtype=np.bool_),
        "shaken": np.zeros(n, dtype=np.bool_),
    }


def _report(conn_counts, piece_counts) -> dict:
    return {
        "n_leech": 11,
        "n_seeds": 2,
        "stats": (4, 1, 9, 6),
        "conn_counts": conn_counts,
        "seed_uploads": 3,
        "piece_counts": piece_counts,
    }


@pytest.fixture
def fabric():
    fab = ShardFabric(1, NUM_PIECES, WORDS, conn_rows=8, migration_rows=4)
    try:
        yield fab
    finally:
        fab.close()


@pytest.fixture
def ends(fabric):
    worker = WorkerFabric(fabric.spec(0))
    try:
        yield fabric, worker
    finally:
        worker.close()


def test_broadcast_roundtrip_and_double_buffer(ends):
    fabric, worker = ends
    first = np.arange(NUM_PIECES, dtype=np.int64)
    second = first + 100
    fabric.write_broadcast(first, 1)
    fabric.write_broadcast(second, 2)
    # Round 2 landed in the other slot, so round 1 is still readable.
    np.testing.assert_array_equal(worker.read_broadcast(1), first)
    np.testing.assert_array_equal(worker.read_broadcast(2), second)
    view = worker.read_broadcast(2)
    assert not view.flags.writeable


def test_broadcast_stale_stamp_raises(ends):
    fabric, worker = ends
    fabric.write_broadcast(np.zeros(NUM_PIECES, dtype=np.int64), 1)
    with pytest.raises(SimulationError, match="stamp mismatch"):
        worker.read_broadcast(3)  # same slot parity, wrong round


def test_report_roundtrip(ends):
    fabric, worker = ends
    pieces = np.arange(NUM_PIECES, dtype=np.int64) * 2
    conn = np.array([4, 4, 3], dtype=np.int64)
    worker.write_report(_report(conn, pieces), 1)
    out = fabric.read_report(0, 1)
    assert out["n_leech"] == 11
    assert out["n_seeds"] == 2
    assert out["stats"] == (4, 1, 9, 6)
    assert out["seed_uploads"] == 3
    np.testing.assert_array_equal(out["conn_counts"], conn)
    np.testing.assert_array_equal(out["piece_counts"], pieces)
    # piece_counts is a copy: a later round must not mutate it.
    worker.write_report(_report(None, pieces + 1), 3)
    np.testing.assert_array_equal(out["piece_counts"], pieces)
    assert fabric.read_report(0, 3)["conn_counts"] is None


def test_report_conn_overflow_raises(ends):
    fabric, worker = ends
    pieces = np.zeros(NUM_PIECES, dtype=np.int64)
    with pytest.raises(SimulationError, match="overflow"):
        worker.write_report(
            _report(np.zeros(9, dtype=np.int64), pieces), 1
        )


def test_migration_roundtrip_both_directions(ends):
    fabric, worker = ends
    rows = _migration_rows(3)
    fabric.write_inbox(0, rows, 1)
    got = worker.read_inbox(1)
    for name, column in rows.items():
        np.testing.assert_array_equal(got[name], column)
    # Empty batches travel as None.
    fabric.write_inbox(0, None, 2)
    assert worker.read_inbox(2) is None
    worker.write_outbox(_migration_rows(2, base=50), 1)
    back = fabric.read_outbox(0, 1)
    np.testing.assert_array_equal(
        back["peer_id"], np.arange(50, 52, dtype=np.int64)
    )
    with pytest.raises(SimulationError, match="stamp mismatch"):
        worker.read_inbox(4)


def test_migration_overflow_raises(ends):
    fabric, worker = ends
    with pytest.raises(SimulationError, match="overflow"):
        fabric.write_inbox(0, _migration_rows(5), 1)  # capacity 4


def test_ensure_grows_blocks_and_worker_reattaches(ends):
    fabric, worker = ends
    old_names = set(fabric.segment_names())
    assert fabric.ensure(0, conn_rows=8, inbox_rows=4, outbox_rows=4) is None
    assert fabric.grows == 0
    updates = fabric.ensure(0, conn_rows=9, inbox_rows=40, outbox_rows=4)
    assert set(updates) == {"report", "inbox"}
    assert fabric.grows == 2
    # Growth at least doubles, and at least fits the request.
    assert updates["report"][1] >= 16
    assert updates["inbox"][1] >= 40
    # The replaced segments are unlinked immediately.
    replaced = old_names - set(fabric.segment_names())
    assert len(replaced) == 2
    for name in replaced:
        assert not _segment_exists(name)
    worker.apply_updates(updates)
    rows = _migration_rows(40)
    fabric.write_inbox(0, rows, 1)
    np.testing.assert_array_equal(
        worker.read_inbox(1)["peer_id"], rows["peer_id"]
    )
    conn = np.full(9, 4, dtype=np.int64)
    worker.write_report(
        _report(conn, np.zeros(NUM_PIECES, dtype=np.int64)), 1
    )
    np.testing.assert_array_equal(
        fabric.read_report(0, 1)["conn_counts"], conn
    )


def test_byte_counters(ends):
    fabric, worker = ends
    assert fabric.bytes_broadcast == 0 and fabric.bytes_migrated == 0
    fabric.write_broadcast(np.zeros(NUM_PIECES, dtype=np.int64), 1)
    assert fabric.bytes_broadcast == 8 * NUM_PIECES  # shards=1
    row_bytes = migration_row_bytes(WORDS)
    fabric.write_inbox(0, _migration_rows(3), 1)
    assert fabric.bytes_migrated == 3 * row_bytes
    worker.write_outbox(_migration_rows(2), 1)
    fabric.read_outbox(0, 1)
    # Each leg counts: inbox write + outbox read.
    assert fabric.bytes_migrated == 5 * row_bytes


@pytest.mark.parametrize("words", [1, 2, 5])
def test_migration_row_bytes_sum_the_peer_row_table(words):
    """The plane layout comes from ``PEER_COLUMNS``: eight 8-byte flat
    columns, two bitfield columns of ``words`` uint64 each, two bools."""
    assert migration_row_bytes(words) == 66 + 16 * words
    fabric = ShardFabric(1, NUM_PIECES, words, conn_rows=1, migration_rows=3)
    try:
        rows = _migration_rows(3, words)
        fabric.write_inbox(0, rows, 1)
        worker = WorkerFabric(fabric.spec(0))
        try:
            got = worker.read_inbox(1)
            assert set(got) == set(rows)
            for name, column in rows.items():
                np.testing.assert_array_equal(got[name], column)
            del got
        finally:
            worker.close()
    finally:
        fabric.close()


def test_close_unlinks_every_segment():
    fabric = ShardFabric(3, NUM_PIECES, WORDS, conn_rows=8, migration_rows=4)
    names = fabric.segment_names()
    # 1 broadcast + 3 shards x (report, inbox, outbox).
    assert len(names) == 10
    assert all(name.startswith(SEGMENT_PREFIX) for name in names)
    assert all(_segment_exists(name) for name in names)
    fabric.close()
    for name in names:
        assert not _segment_exists(name)
    fabric.close()  # idempotent


def test_close_unlinks_despite_attached_worker():
    fabric = ShardFabric(1, NUM_PIECES, WORDS, conn_rows=8, migration_rows=4)
    worker = WorkerFabric(fabric.spec(0))
    names = fabric.segment_names()
    fabric.close()
    for name in names:
        assert not _segment_exists(name)
    worker.close()
