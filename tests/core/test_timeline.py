"""Tests for timeline / potential-ratio estimators."""

import numpy as np
import pytest

from repro.api import solve
from repro.core.chain import DownloadChain
from repro.core.parameters import ModelParameters
from repro.core.sparse import mean_hitting_time
from repro.core.timeline import potential_ratio_by_pieces
from repro.errors import ParameterError


@pytest.fixture
def tiny_chain():
    return DownloadChain(ModelParameters(num_pieces=8, max_conns=2, ns_size=4))


def sampled_timeline(chain, **options):
    """The sampled Figure-1(b) timeline, through the public front door."""
    return solve(chain.params, "timeline", method="batch", **options).payload


class TestMeanTimeline:
    def test_monotone_non_decreasing(self, tiny_chain):
        result = sampled_timeline(tiny_chain, runs=30, seed=1)
        assert (np.diff(result.mean_steps) >= -1e-9).all()

    def test_starts_at_zero(self, tiny_chain):
        result = sampled_timeline(tiny_chain, runs=10, seed=1)
        assert result.mean_steps[0] == 0.0

    def test_total_download_time(self, tiny_chain):
        result = sampled_timeline(tiny_chain, runs=10, seed=1)
        assert result.total_download_time() == result.mean_steps[-1]

    def test_shape(self, tiny_chain):
        result = sampled_timeline(tiny_chain, runs=5, seed=0)
        expected = tiny_chain.params.num_pieces + 1
        assert result.pieces.size == expected
        assert result.mean_steps.size == expected
        assert result.std_steps.size == expected
        assert result.runs == 5

    def test_agrees_with_exact_solution(self, tiny_chain):
        exact = mean_hitting_time(tiny_chain)
        estimate = sampled_timeline(tiny_chain, runs=600, seed=2)
        assert estimate.total_download_time() == pytest.approx(exact, rel=0.08)

    def test_invalid_runs(self, tiny_chain):
        with pytest.raises(ParameterError):
            sampled_timeline(tiny_chain, runs=0)

    def test_respects_parallelism_bound(self, tiny_chain):
        # Cannot finish faster than B / k rounds (plus the bootstrap step).
        result = sampled_timeline(tiny_chain, runs=40, seed=3)
        bound = tiny_chain.params.num_pieces / tiny_chain.params.max_conns
        assert result.total_download_time() >= bound - 1e-9


class TestPotentialRatio:
    def test_bounds(self, tiny_chain):
        result = potential_ratio_by_pieces(tiny_chain, runs=40, seed=1)
        finite = result.ratio[np.isfinite(result.ratio)]
        assert (finite >= 0).all()
        assert (finite <= 1).all()

    def test_zero_at_start_and_end(self, tiny_chain):
        result = potential_ratio_by_pieces(tiny_chain, runs=40, seed=1)
        assert result.ratio[0] == pytest.approx(0.0)  # joins with empty set
        # At b = B the download ends; the potential set is empty.
        assert result.ratio[-1] == pytest.approx(0.0)

    def test_mid_download_ratio_high(self):
        chain = DownloadChain(ModelParameters(num_pieces=40, max_conns=4, ns_size=20))
        result = potential_ratio_by_pieces(chain, runs=30, seed=2)
        mid = result.ratio[15:25]
        mid = mid[np.isfinite(mid)]
        assert mid.mean() > 0.6

    def test_observation_counts(self, tiny_chain):
        result = potential_ratio_by_pieces(tiny_chain, runs=10, seed=1)
        assert result.observations[0] >= 10  # every run starts at b=0
        assert result.observations.sum() > 0

    def test_invalid_runs(self, tiny_chain):
        with pytest.raises(ParameterError):
            potential_ratio_by_pieces(tiny_chain, runs=-1)


class TestExactHittingTime:
    def test_positive_and_finite(self, tiny_chain):
        value = mean_hitting_time(tiny_chain)
        assert np.isfinite(value)
        assert value > tiny_chain.params.num_pieces / tiny_chain.params.max_conns

    def test_more_connections_is_faster(self):
        slow = DownloadChain(ModelParameters(num_pieces=8, max_conns=1, ns_size=4))
        fast = DownloadChain(ModelParameters(num_pieces=8, max_conns=3, ns_size=4))
        assert mean_hitting_time(fast) < mean_hitting_time(slow)

    def test_larger_file_takes_longer(self):
        small = DownloadChain(ModelParameters(num_pieces=6, max_conns=2, ns_size=4))
        large = DownloadChain(ModelParameters(num_pieces=12, max_conns=2, ns_size=4))
        assert mean_hitting_time(large) > mean_hitting_time(small)


class TestPhaseStatistics:
    def test_trading_phase_dominates_healthy_baseline(self):
        from repro.core.timeline import phase_duration_statistics
        from repro.core.phases import Phase

        chain = DownloadChain(
            ModelParameters(num_pieces=60, max_conns=4, ns_size=30)
        )
        stats = phase_duration_statistics(chain, runs=24, seed=0)
        assert stats.dominant() is Phase.EFFICIENT
        assert stats.occupancy[Phase.EFFICIENT] > 0.7

    def test_occupancies_sum_to_one(self):
        from repro.core.timeline import phase_duration_statistics

        chain = DownloadChain(
            ModelParameters(num_pieces=30, max_conns=3, ns_size=6)
        )
        stats = phase_duration_statistics(chain, runs=16, seed=1)
        assert sum(stats.occupancy.values()) == pytest.approx(1.0)

    def test_small_neighborhoods_inflate_stall_phases(self):
        from repro.core.timeline import phase_duration_statistics
        from repro.core.phases import Phase

        big = phase_duration_statistics(
            DownloadChain(ModelParameters(num_pieces=60, max_conns=4,
                                          ns_size=30)),
            runs=24, seed=2,
        )
        small = phase_duration_statistics(
            DownloadChain(ModelParameters(num_pieces=60, max_conns=4,
                                          ns_size=3, alpha=0.1, gamma=0.1)),
            runs=24, seed=2,
        )
        stall_big = (big.occupancy[Phase.BOOTSTRAP]
                     + big.occupancy[Phase.LAST])
        stall_small = (small.occupancy[Phase.BOOTSTRAP]
                       + small.occupancy[Phase.LAST])
        assert stall_small > stall_big

    def test_runs_validation(self):
        from repro.core.timeline import phase_duration_statistics

        chain = DownloadChain(
            ModelParameters(num_pieces=10, max_conns=2, ns_size=4)
        )
        with pytest.raises(ParameterError):
            phase_duration_statistics(chain, runs=0)
