"""Integration tests for the swarm orchestrator."""

import numpy as np
import pytest

from repro.checkpoint.fingerprint import result_summary
from repro.errors import SimulationError
from repro.runtime.profiler import SOA_STAGES, STAGES
from repro.sim.config import SimConfig
from repro.sim.swarm import Swarm, run_swarm
from repro.stability.entropy import replication_degrees


class TestBasicRuns:
    def test_downloads_complete(self, small_config):
        result = run_swarm(small_config)
        assert len(result.metrics.completed) > 0

    def test_deterministic_for_seed(self, small_config):
        a = run_swarm(small_config)
        b = run_swarm(small_config)
        assert len(a.metrics.completed) == len(b.metrics.completed)
        assert a.final_leechers == b.final_leechers
        assert [c.completed_at for c in a.metrics.completed] == [
            c.completed_at for c in b.metrics.completed
        ]

    def test_different_seeds_differ(self, small_config):
        a = run_swarm(small_config)
        b = run_swarm(small_config.with_changes(seed=99))
        assert (
            [c.completed_at for c in a.metrics.completed]
            != [c.completed_at for c in b.metrics.completed]
        )

    def test_round_count(self, small_config):
        result = run_swarm(small_config)
        assert result.total_rounds == int(
            small_config.max_time / small_config.piece_time
        )

    def test_setup_twice_rejected(self, small_config):
        swarm = Swarm(small_config)
        swarm.setup()
        with pytest.raises(SimulationError):
            swarm.setup()

    @pytest.mark.parametrize(
        "backend, kwargs",
        [("object", {}), ("soa", {}), ("sharded", {"shards": 2})],
        ids=("object", "soa", "sharded"),
    )
    def test_population_series_is_the_one_log(
        self, small_config, backend, kwargs
    ):
        """Every engine records each round through the collector, and
        the fingerprint's population entry is that same series."""
        result = run_swarm(small_config, backend=backend, **kwargs)
        series = result.metrics.population_series
        assert len(series) == result.total_rounds
        assert result_summary(result)["tracker_population_log"] == [
            list(row) for row in series
        ]
        assert series[-1][1:] == (result.final_leechers, result.final_seeds)


class TestInvariants:
    def test_piece_counts_match_registry(self, small_config):
        swarm = Swarm(small_config)
        swarm.setup()
        swarm.engine.run_until(30.0)
        bitfields = [p.bitfield for p in swarm.tracker.peers()]
        expected = replication_degrees(bitfields, small_config.num_pieces)
        np.testing.assert_array_equal(swarm.piece_counts, expected)

    def test_neighbor_symmetry(self, small_config):
        swarm = Swarm(small_config)
        swarm.setup()
        swarm.engine.run_until(30.0)
        for peer in swarm.tracker.peers():
            for neighbor_id in peer.neighbors:
                neighbor = swarm.tracker.get(neighbor_id)
                assert neighbor is not None
                assert peer.peer_id in neighbor.neighbors

    def test_partner_symmetry_and_cap(self, small_config):
        swarm = Swarm(small_config)
        swarm.setup()
        swarm.engine.run_until(30.0)
        for peer in swarm.tracker.leechers():
            assert len(peer.partners) <= small_config.max_conns
            for partner_id in peer.partners:
                partner = swarm.tracker.get(partner_id)
                assert partner is not None
                assert peer.peer_id in partner.partners

    def test_completed_peers_departed(self, small_config):
        result = run_swarm(small_config)
        # Departure on completion: no registered leecher is complete.
        swarm = Swarm(small_config)
        swarm.setup()
        swarm.engine.run_until(small_config.max_time)
        for peer in swarm.tracker.leechers():
            assert not peer.bitfield.is_complete

    def test_strict_tft_partners_seedless(self, small_config):
        swarm = Swarm(small_config)
        swarm.setup()
        swarm.engine.run_until(30.0)
        seed_ids = {p.peer_id for p in swarm.tracker.seeds()}
        for peer in swarm.tracker.leechers():
            assert not (peer.partners & seed_ids)


class TestArrivalProcesses:
    def test_flash_crowd(self, small_config):
        config = small_config.with_changes(
            arrival_process="flash", flash_size=30, initial_leechers=0
        )
        swarm = Swarm(config)
        swarm.setup()
        leech, _seeds = swarm.tracker.counts()
        assert leech == 30

    def test_no_arrivals(self, small_config):
        config = small_config.with_changes(
            arrival_process="none", initial_leechers=10
        )
        result = run_swarm(config)
        # Everyone downloads and leaves; nobody arrives to replace them.
        assert result.final_leechers <= 10

    def test_poisson_brings_new_peers(self, small_config):
        config = small_config.with_changes(
            arrival_process="poisson", arrival_rate=2.0, initial_leechers=0
        )
        result = run_swarm(config)
        total_seen = result.final_leechers + len(result.metrics.completed)
        assert total_seen > 10


class TestSeedsAndLingering:
    def test_permanent_seeds_stay(self, small_config):
        result = run_swarm(small_config)
        assert result.final_seeds >= small_config.num_seeds

    def test_lingering_seeds_depart(self, small_config):
        config = small_config.with_changes(completed_become_seeds=5.0)
        swarm = Swarm(config)
        result = swarm.run()
        # Lingerers must eventually leave: every seed still present at
        # the horizon is either permanent or completed within the last
        # lingering window (its departure deadline lies beyond max_time).
        overdue = [
            peer
            for peer in swarm.tracker.seeds()
            if peer.seed_until is not None
            and peer.seed_until <= config.max_time
        ]
        assert not overdue
        assert result.final_seeds >= config.num_seeds

    def test_no_seed_uploads_when_no_slots(self, small_config):
        config = small_config.with_changes(
            seed_upload_slots=0,
            optimistic_unchoke_prob=0.0,
            initial_distribution="empty",
            arrival_process="none",
        )
        result = run_swarm(config)
        # Nobody can acquire a first piece: no downloads complete.
        assert len(result.metrics.completed) == 0


class TestInstrumentation:
    def test_instrumented_count(self, small_config):
        result = run_swarm(small_config, instrument_first=3)
        assert len(result.instrumented) == 3
        assert all(p.instrumented for p in result.instrumented)

    def test_instrumented_start_empty(self, small_config):
        config = small_config.with_changes(
            initial_distribution="uniform", initial_fill=0.9
        )
        swarm = Swarm(config, instrument_first=2, instrumented_start_empty=True)
        swarm.setup()
        for peer in swarm.instrumented_peers:
            assert peer.stats.piece_times == [] or peer.stats.piece_times

    def test_instrumented_series_recorded(self, small_config):
        result = run_swarm(small_config, instrument_first=2)
        for peer in result.instrumented:
            assert len(peer.stats.potential_series) > 0

    def test_avoid_seeds_blocks_seed_grants(self, small_config):
        config = small_config.with_changes(
            optimistic_unchoke_prob=0.0,
            arrival_process="none",
            initial_distribution="empty",
            initial_leechers=3,
        )
        # Only source of pieces would be seeds; instrumented peers refuse.
        result = run_swarm(
            config, instrument_first=3, instrumented_avoid_seeds=True
        )
        for peer in result.instrumented:
            assert peer.bitfield.count == 0


class TestRoundProfile:
    @pytest.mark.parametrize(
        "backend, swarm_kwargs, stages",
        [
            ("object", {}, set(STAGES)),
            ("soa", {}, set(SOA_STAGES)),
            ("sharded", {"shards": 2}, set(SOA_STAGES) | {"comms"}),
        ],
        ids=["object", "soa", "sharded"],
    )
    def test_round_profile_contract(self, backend, swarm_kwargs, stages):
        """Profiling is opt-in, names the engine's stages, and never
        changes what the run computes."""
        config = SimConfig(
            num_pieces=30,
            max_conns=4,
            ns_size=15,
            arrival_process="poisson",
            arrival_rate=2.0,
            initial_leechers=200,
            initial_distribution="uniform",
            initial_fill=0.5,
            num_seeds=2,
            seed_upload_slots=2,
            max_time=20.0,
            seed=9,
        )

        def run(profile):
            return Swarm(
                config, backend=backend, profile=profile, **swarm_kwargs
            ).run()

        plain = run(False)
        profiled = run(True)
        assert plain.round_profile is None
        assert set(profiled.round_profile) == stages
        assert sum(profiled.round_profile.values()) > 0
        if backend == "sharded":
            assert set(profiled.shard_profiles) == {
                "shard0", "shard1", "coordinator"
            }
        assert profiled.fingerprint() == plain.fingerprint()


class TestShakeIntegration:
    def test_shaken_peers_marked(self, small_config):
        config = small_config.with_changes(
            shake_threshold=0.5, max_time=80.0
        )
        result = run_swarm(config)
        shaken = [c for c in result.metrics.completed if c.shaken]
        assert len(shaken) > 0
