"""Edge-case and configuration-variant tests for the swarm."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.sim.config import SimConfig
from repro.sim.swarm import Swarm, run_swarm


def base_config(**over):
    base = dict(
        num_pieces=25, max_conns=3, ns_size=12,
        initial_leechers=25, initial_distribution="uniform",
        initial_fill=0.5, arrival_rate=1.0, num_seeds=1,
        seed_upload_slots=2, max_time=60.0, seed=11,
    )
    base.update(over)
    return SimConfig(**base)


class TestRarityViews:
    def test_neighborhood_view_runs(self):
        result = run_swarm(base_config(), rarity_view="neighborhood")
        assert len(result.metrics.completed) > 0

    def test_unknown_view_rejected(self):
        with pytest.raises(ParameterError):
            Swarm(base_config(), rarity_view="psychic")

    def test_views_agree_on_health(self):
        global_view = run_swarm(base_config(), rarity_view="global")
        local_view = run_swarm(base_config(), rarity_view="neighborhood")
        # Both views keep the swarm productive; durations comparable.
        assert len(local_view.metrics.completed) > 0.5 * len(
            global_view.metrics.completed
        )


class TestBackendSelection:
    def test_unknown_backend_message(self):
        with pytest.raises(ParameterError) as excinfo:
            Swarm(base_config(), backend="bogus")
        assert str(excinfo.value) == (
            "unknown swarm backend 'bogus'; valid backends are 'object', "
            "'soa', 'sharded' (e.g. Swarm(config, backend='soa') or "
            "repro-bt run --backend soa)"
        )


class TestPieceTimeScaling:
    def test_rounds_scale_with_piece_time(self):
        fast = run_swarm(base_config(piece_time=1.0, max_time=60.0))
        slow = run_swarm(base_config(piece_time=2.0, max_time=60.0))
        assert fast.total_rounds == 60
        assert slow.total_rounds == 30

    def test_durations_scale_with_piece_time(self):
        fast = run_swarm(base_config(piece_time=1.0, max_time=60.0))
        slow = run_swarm(base_config(piece_time=2.0, max_time=120.0))
        # Same number of rounds; wall-clock durations ~2x.
        ratio = (
            slow.metrics.mean_download_duration()
            / fast.metrics.mean_download_duration()
        )
        assert 1.4 < ratio < 2.8


class TestDegenerateConfigs:
    def test_single_piece_file(self):
        result = run_swarm(base_config(num_pieces=1, initial_distribution="empty"))
        assert len(result.metrics.completed) > 0

    def test_no_initial_population_poisson_only(self):
        result = run_swarm(base_config(initial_leechers=0, arrival_rate=2.0))
        assert len(result.metrics.completed) > 0

    def test_zero_arrivals_zero_population(self):
        result = run_swarm(
            base_config(
                initial_leechers=0, arrival_process="none", num_seeds=1
            )
        )
        assert result.final_leechers == 0
        assert len(result.metrics.completed) == 0

    def test_no_seeds_prefilled_swarm_still_trades(self):
        result = run_swarm(base_config(num_seeds=0))
        assert len(result.metrics.completed) > 0

    def test_k_one(self):
        result = run_swarm(base_config(max_conns=1))
        assert len(result.metrics.completed) > 0
        swarm = Swarm(base_config(max_conns=1))
        swarm.setup()
        swarm.engine.run_until(30.0)
        assert all(
            len(p.partners) <= 1 for p in swarm.tracker.leechers()
        )

    def test_negative_instrument_rejected(self):
        with pytest.raises(ParameterError):
            Swarm(base_config(), instrument_first=-1)


class TestAnnounceRefill:
    def test_depleted_neighbor_sets_refill(self):
        # High churn through completions: peers whose neighbors left
        # must regain neighbors via periodic re-announce.
        config = base_config(
            arrival_rate=2.0, announce_interval=2.0, max_time=80.0
        )
        swarm = Swarm(config)
        swarm.setup()
        swarm.engine.run_until(config.max_time)
        leechers = list(swarm.tracker.leechers())
        if len(leechers) > 5:
            # Nearly everyone should hold a healthy neighbor set.
            fractions = [
                len(p.neighbors) / config.ns_size for p in leechers
            ]
            assert np.median(fractions) > 0.5
