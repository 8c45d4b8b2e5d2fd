"""The completion table: one columnar store of finished downloads.

Every engine appends a round's finished downloads to
:class:`~repro.sim.metrics.CompletionTable` as one batch, and
``metrics.completed`` builds :class:`~repro.sim.metrics.CompletedDownload`
records from it on access.  The references below are copies of the
per-record code the table replaced (the soa engine's per-slot records,
the object engine's per-peer hook and the fingerprint's per-record
summary); the table must reproduce them field by field and byte by
byte.  The Hypothesis examples are derandomized, so a failure replays
on every run.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fingerprint_goldens import CASES

from repro.checkpoint.fingerprint import _completed_summary
from repro.checkpoint.format import dumps_payload, loads_payload
from repro.checkpoint.schema import restore_swarm
from repro.errors import ParameterError
from repro.sim.config import SimConfig
from repro.sim.metrics import (
    COMPLETION_COLUMNS,
    CompletedDownload,
    CompletionTable,
    MetricsCollector,
)
from repro.sim.peer import Peer, PeerStats
from repro.sim.swarm import Swarm

SETTINGS = dict(max_examples=150, deadline=None, derandomize=True)
NAN = float("nan")

#: The soa store's dtype for each batch column.
DTYPES = {name: dtype for name, dtype in COMPLETION_COLUMNS}
SOA_ORDER = (
    "peer_id", "joined_at", "first_piece_at", "prelast_at", "shaken_at",
    "shaken", "upload_capacity",
)


# ----------------------------------------------------------------------
# References: the per-record code the table replaced
# ----------------------------------------------------------------------
def reference_soa_records(batches) -> list:
    """The soa engine's old ``_record_completions``, batch by batch."""
    completed = []
    for time, columns in batches:
        for peer_id, joined, first, prelast, shaken_at, shaken, capacity in zip(
            *(columns[name].tolist() for name in SOA_ORDER)
        ):
            stats = PeerStats(joined_at=joined)
            stats.completed_at = time
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
    return completed


def reference_object_record(peer: Peer, time: float) -> CompletedDownload:
    """The object engine's old ``on_peer_complete``."""
    return CompletedDownload(
        peer_id=peer.peer_id,
        joined_at=peer.stats.joined_at,
        completed_at=time,
        stats=peer.stats,
        shaken=peer.shaken,
        upload_capacity=peer.upload_capacity,
    )


def _num(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _seq(series) -> list:
    return [[_num(x) for x in row] for row in series]


def _stats_summary(stats: PeerStats) -> dict:
    return {
        "joined_at": _num(stats.joined_at),
        "completed_at": _num(stats.completed_at),
        "piece_times": [_num(t) for t in stats.piece_times],
        "piece_log": _seq(stats.piece_log),
        "potential_series": _seq(stats.potential_series),
        "connection_series": _seq(stats.connection_series),
        "shaken_at": _num(stats.shaken_at),
    }


def reference_summary(records) -> list:
    """The fingerprint's old per-record ``completed`` summary."""
    return [
        {
            "peer_id": c.peer_id,
            "joined_at": _num(c.joined_at),
            "completed_at": _num(c.completed_at),
            "shaken": c.shaken,
            "upload_capacity": _num(c.upload_capacity),
            "stats": _stats_summary(c.stats),
        }
        for c in records
    ]


def canonical(summary) -> bytes:
    return json.dumps(
        summary, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
times = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)
marks = st.one_of(st.just(NAN), times)


@st.composite
def soa_rows(draw):
    first = draw(marks)
    # The last-phase mark may repeat the first (a peer holding B - 1
    # pieces as soon as it holds one), be missing, or come later.
    prelast = draw(st.one_of(st.just(first), marks))
    return (
        draw(st.integers(0, 2**40)),
        draw(times),
        first,
        prelast,
        draw(marks),
        draw(st.booleans()),
        draw(st.one_of(st.just(-1), st.integers(0, 64))),
    )


@st.composite
def soa_batches(draw, max_batches=6):
    batches = []
    for _ in range(draw(st.integers(0, max_batches))):
        rows = draw(st.lists(soa_rows(), max_size=8))
        columns = {
            name: np.array(
                [row[index] for row in rows], dtype=DTYPES[name]
            )
            for index, name in enumerate(SOA_ORDER)
        }
        batches.append((draw(times), columns))
    return batches


@st.composite
def finished_peers(draw):
    peers = []
    for _ in range(draw(st.integers(0, 5))):
        peer = Peer(draw(st.integers(0, 2**40)), 8)
        peer.stats.joined_at = draw(times)
        peer.stats.piece_times = draw(st.lists(times, max_size=8))
        peer.stats.piece_log = [
            (t, index) for index, t in enumerate(peer.stats.piece_times)
        ]
        peer.stats.potential_series = draw(
            st.lists(st.tuples(times, st.integers(0, 20)), max_size=3)
        )
        peer.stats.completed_at = draw(st.one_of(st.none(), times))
        peer.stats.shaken_at = draw(st.one_of(st.none(), times))
        peer.shaken = draw(st.booleans())
        peer.upload_capacity = draw(st.one_of(st.none(), st.integers(1, 9)))
        peers.append(peer)
    return peers


def soa_metrics(batches) -> MetricsCollector:
    metrics = MetricsCollector(4)
    for time, columns in batches:
        metrics.record_completions(time, **columns)
    return metrics


# ----------------------------------------------------------------------
# Rows of the view
# ----------------------------------------------------------------------
@settings(**SETTINGS)
@given(batches=soa_batches())
def test_soa_rows_equal_the_per_slot_records(batches):
    metrics = soa_metrics(batches)
    expected = reference_soa_records(batches)
    view = metrics.completed
    assert len(view) == len(expected)
    assert list(view) == expected
    for index, record in enumerate(expected):
        assert view[index] == record
        assert view[index - len(expected)] == record
        assert type(view[index].peer_id) is int
        assert type(view[index].shaken) is bool
    assert view[1:-1] == expected[1:-1]
    assert view[::2] == expected[::2]
    with pytest.raises(IndexError):
        view[len(expected)]


def test_soa_row_edge_cases():
    """NaN shaken-at, capacity -1, first == prelast, an empty batch."""
    columns = {
        "peer_id": np.array([7, 8], dtype=np.int64),
        "joined_at": np.array([1.0, 2.0]),
        "first_piece_at": np.array([3.0, NAN]),
        "prelast_at": np.array([3.0, NAN]),
        "shaken_at": np.array([NAN, 4.5]),
        "shaken": np.array([False, True]),
        "upload_capacity": np.array([-1, 0], dtype=np.int64),
    }
    empty = {name: values[:0] for name, values in columns.items()}
    batches = [(5.0, empty), (9.0, columns), (10.0, empty)]
    first, second = soa_metrics(batches).completed
    assert first.stats.piece_times == [3.0, 3.0, 9.0]
    assert first.stats.shaken_at is None
    assert first.upload_capacity is None
    assert second.stats.piece_times == [9.0]
    assert second.stats.shaken_at == 4.5
    assert second.upload_capacity == 0
    assert [first, second] == reference_soa_records(batches)


@settings(**SETTINGS)
@given(batches=st.lists(st.tuples(times, finished_peers()), max_size=4))
def test_object_rows_equal_the_per_peer_records(batches):
    metrics = MetricsCollector(4)
    expected = []
    for time, peers in batches:
        if peers:
            metrics.record_completions(
                time, **Swarm._completion_columns(peers)
            )
        expected += [reference_object_record(peer, time) for peer in peers]
    assert list(metrics.completed) == expected
    for record, reference in zip(metrics.completed, expected):
        assert record.stats is reference.stats
    table = metrics.completions
    first = [
        s.piece_times[0] if s.piece_times else NAN
        for s in (c.stats for c in expected)
    ]
    np.testing.assert_array_equal(table.column("first_piece_at"), first)


# ----------------------------------------------------------------------
# The fingerprint summary
# ----------------------------------------------------------------------
@settings(**SETTINGS)
@given(batches=soa_batches())
def test_soa_summary_is_byte_identical_to_the_per_record_summary(batches):
    metrics = soa_metrics(batches)
    expected = reference_summary(reference_soa_records(batches))
    assert canonical(_completed_summary(metrics.completions)) == canonical(
        expected
    )


@settings(**SETTINGS)
@given(batches=st.lists(st.tuples(times, finished_peers()), max_size=4))
def test_object_summary_is_byte_identical_to_the_per_record_summary(batches):
    metrics = MetricsCollector(4)
    records = []
    for time, peers in batches:
        if peers:
            metrics.record_completions(
                time, **Swarm._completion_columns(peers)
            )
        records += [reference_object_record(peer, time) for peer in peers]
    assert canonical(_completed_summary(metrics.completions)) == canonical(
        reference_summary(records)
    )


# ----------------------------------------------------------------------
# Growth and batch validation
# ----------------------------------------------------------------------
@settings(**{**SETTINGS, "max_examples": 40})
@given(batches=soa_batches(max_batches=40))
def test_capacity_growth_keeps_row_order(batches):
    table = CompletionTable(capacity=1)
    for time, columns in batches:
        table.append(time, **columns)
    assert len(table) == sum(c["peer_id"].size for _, c in batches)
    for name in SOA_ORDER:
        expected = np.concatenate(
            [np.zeros(0, DTYPES[name])] + [c[name] for _, c in batches]
        )
        np.testing.assert_array_equal(table.column(name), expected)
    np.testing.assert_array_equal(
        table.column("completed_at"),
        np.concatenate([[]] + [
            np.full(c["peer_id"].size, time) for time, c in batches
        ]),
    )
    assert table.rows() == reference_soa_records(batches)


def test_columns_are_read_only_views():
    table = soa_metrics([(1.0, {
        name: np.zeros(2, DTYPES[name]) for name in SOA_ORDER
    })]).completions
    with pytest.raises(ValueError):
        table.column("peer_id")[0] = 5


def test_batches_must_be_whole_and_of_one_kind():
    peer = Peer(1, 4)
    table = CompletionTable()
    columns = Swarm._completion_columns([peer])
    stats = columns.pop("stats")
    with pytest.raises(ParameterError, match="columns"):
        table.append(1.0, **{k: v for k, v in columns.items() if k != "shaken"})
    with pytest.raises(ParameterError, match="length"):
        table.append(1.0, **{**columns, "shaken": [True, False]})
    table.append(1.0, stats=stats, **columns)
    with pytest.raises(ParameterError, match="every row or for none"):
        table.append(2.0, **columns)


# ----------------------------------------------------------------------
# Checkpoint round trip
# ----------------------------------------------------------------------
def _small_config(**changes) -> SimConfig:
    return SimConfig(
        num_pieces=12,
        max_conns=3,
        ns_size=8,
        arrival_process="poisson",
        arrival_rate=2.0,
        initial_leechers=40,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=2,
        shake_threshold=0.3,
        max_time=40.0,
        seed=5,
        **changes,
    )


@pytest.mark.parametrize("backend", ["object", "soa"])
def test_checkpoint_round_trip_keeps_columns_and_stats(backend):
    swarm = Swarm(_small_config(), backend=backend)
    swarm.setup()
    while swarm._rounds < 25:
        swarm.engine.step()
    before = swarm.metrics.completions
    assert len(before) > 10
    document = loads_payload(dumps_payload(swarm.snapshot()))
    after = restore_swarm(document).metrics.completions
    for name, _ in COMPLETION_COLUMNS:
        assert after.column(name).dtype == before.column(name).dtype
        np.testing.assert_array_equal(after.column(name), before.column(name))
    assert after.stats == before.stats
    assert (len(after.stats) == len(after)) == (backend == "object")
    assert after.rows() == before.rows()


# ----------------------------------------------------------------------
# Checkpoint size
# ----------------------------------------------------------------------
def test_sharded_horizon_snapshot_stores_completions_as_sections():
    """The ``sharded-2`` golden swarm's horizon snapshot: its coordinator's
    completion block is one section per column, not a JSON list of
    per-row dicts, and takes at most 80 B a row (a JSON dict with a
    full stats dict took about 241 B)."""
    swarm = CASES["sharded-2"]()
    try:
        while swarm.step_round():
            pass
        document = swarm.snapshot()
    finally:
        swarm.close()
    block = document["coordinator"]["metrics"]["completed"]
    rows = len(block["peer_id"])
    assert rows > 1_000
    assert block["stats"] == []
    payload = dumps_payload({"completed": block})
    (head_length,) = np.frombuffer(payload[:8], dtype="<u8")
    head = json.loads(payload[8: 8 + int(head_length)])["completed"]
    assert sorted(head) == sorted(
        [name for name, _ in COMPLETION_COLUMNS] + ["stats"]
    )
    for name, _ in COMPLETION_COLUMNS:
        assert set(head[name]) == {"$section", "dtype", "shape"}
        assert head[name]["shape"] == [rows]
    assert len(payload) <= 80 * rows
