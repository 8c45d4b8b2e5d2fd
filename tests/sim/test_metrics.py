"""Tests for the metrics collector."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.sim.bitfield import Bitfield
from repro.sim.metrics import MetricsCollector
from repro.sim.peer import Peer
from repro.sim.swarm import Swarm
from repro.sim.tracker import Tracker


@pytest.fixture
def tracker(rng):
    return Tracker(ns_size=10, rng=rng)


def spawn(tracker, pieces, *, partners=(), is_seed=False):
    peer = Peer(tracker.new_peer_id(), 6, is_seed=is_seed)
    if pieces and not is_seed:
        peer.bitfield = Bitfield.from_pieces(6, pieces)
    peer.partners = set(partners)
    tracker.register(peer)
    return peer


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ParameterError):
            MetricsCollector(0)
        with pytest.raises(ParameterError):
            MetricsCollector(2, entropy_every=0)
        with pytest.raises(ParameterError):
            MetricsCollector(2, occupancy_warmup=1.0)


def counts(*values):
    return np.array(values, dtype=np.int64)


class TestPopulationAndEntropy:
    def test_population_series(self):
        metrics = MetricsCollector(2)
        metrics.record_round(1.0, 1, 1, degrees=counts(2, 1, 1, 1, 1, 1))
        times, leech, seeds = metrics.population_arrays()
        assert times.tolist() == [1.0]
        assert leech.tolist() == [1]
        assert seeds.tolist() == [1]

    def test_entropy_sampling_stride(self):
        metrics = MetricsCollector(2, entropy_every=2)
        for t in (1.0, 2.0, 3.0, 4.0):
            metrics.record_round(t, 1, 0, degrees=counts(1, 0, 0, 0, 0, 0))
        times, values = metrics.entropy_arrays()
        assert times.tolist() == [2.0, 4.0]

    def test_entropy_of_empty_swarm_is_one(self):
        metrics = MetricsCollector(2)
        metrics.record_round(1.0, 0, 0, degrees=counts(0, 0, 0, 0, 0, 0))
        _times, values = metrics.entropy_arrays()
        assert values.tolist() == [1.0]

    def test_entropy_is_min_over_max_degree(self):
        # A seed (every piece) and a leecher holding piece 0.
        metrics = MetricsCollector(2)
        metrics.record_round(1.0, 1, 1, degrees=counts(2, 1, 1, 1, 1, 1))
        _times, values = metrics.entropy_arrays()
        assert values.tolist() == [0.5]

    def test_empty_arrays_when_no_rounds(self):
        metrics = MetricsCollector(2)
        times, leech, seeds = metrics.population_arrays()
        assert times.size == 0
        e_times, e_values = metrics.entropy_arrays()
        assert e_times.size == 0


class TestOccupancy:
    def test_trading_scope_filters(self, small_config):
        """The engine hands the collector the trading-scope leechers
        only: a piece held and a non-empty potential set."""
        swarm = Swarm(small_config.with_changes(num_pieces=6, max_conns=2))
        tracker = swarm.tracker
        trading = spawn(tracker, [0], partners={99})
        spawn(tracker, [])             # bootstrap: no pieces
        starved = spawn(tracker, [1])  # last phase: empty potential set
        spawn(tracker, [], is_seed=True)
        conn_counts = swarm._trading_conn_counts(
            {trading.peer_id: [5, 6, 7], starved.peer_id: []}
        )
        assert conn_counts.tolist() == [1]
        swarm.metrics.record_round(1.0, 3, 1, conn_counts=conn_counts)
        assert swarm.metrics.occupancy().tolist() == [0.0, 1.0, 0.0]

    def test_warmup_discards_early_rounds(self):
        metrics = MetricsCollector(2, occupancy_warmup=0.5)
        metrics.set_expected_rounds(4)
        # Rounds 1-2 are warmup; the peer connects only afterwards.
        metrics.record_round(1.0, 1, 0, conn_counts=counts(0))
        metrics.record_round(2.0, 1, 0, conn_counts=counts(0))
        metrics.record_round(3.0, 1, 0, conn_counts=counts(2))
        metrics.record_round(4.0, 1, 0, conn_counts=counts(2))
        assert metrics.occupancy().tolist() == [0.0, 0.0, 1.0]

    def test_occupancy_without_samples_raises(self):
        metrics = MetricsCollector(2)
        with pytest.raises(ParameterError):
            metrics.occupancy()

    def test_round_without_trading_leechers_adds_no_sample(self):
        metrics = MetricsCollector(2)
        metrics.record_round(1.0, 0, 1, conn_counts=None)
        metrics.record_round(2.0, 2, 1, conn_counts=counts())
        with pytest.raises(ParameterError):
            metrics.occupancy()

    def test_efficiency_value(self):
        metrics = MetricsCollector(2)
        metrics.record_round(1.0, 1, 0, conn_counts=counts(2))
        assert metrics.efficiency() == pytest.approx(1.0)

    def test_partner_overflow_clamped(self):
        metrics = MetricsCollector(2)
        metrics.record_round(1.0, 1, 0, conn_counts=counts(4))
        assert metrics.occupancy()[2] == 1.0


def complete(metrics, peer, time):
    """Record ``peer`` as the one finished download of a round."""
    metrics.record_completions(time, **Swarm._completion_columns([peer]))


class TestCompletedDownloads:
    def test_records_download(self, tracker):
        metrics = MetricsCollector(2)
        peer = spawn(tracker, [0])
        peer.stats.joined_at = 1.0
        complete(metrics, peer, 9.0)
        assert len(metrics.completed) == 1
        record = metrics.completed[0]
        assert record.duration == pytest.approx(8.0)
        assert record.peer_id == peer.peer_id
        assert record.stats is peer.stats

    def test_mean_duration(self, tracker):
        metrics = MetricsCollector(2)
        for finish in (5.0, 7.0):
            peer = spawn(tracker, [0])
            peer.stats.joined_at = 1.0
            complete(metrics, peer, finish)
        assert metrics.mean_download_duration() == pytest.approx(5.0)

    def test_mean_duration_nan_when_empty(self):
        metrics = MetricsCollector(2)
        assert np.isnan(metrics.mean_download_duration())
