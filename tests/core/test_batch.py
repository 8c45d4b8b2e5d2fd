"""Tests for the vectorized batch chain sampler.

Covers three layers: structural contracts of
:class:`~repro.core.batch.BatchTrajectories` (histories, freezing,
determinism), statistical agreement of the batched estimators with the
exact engine (a noise-free reference), and
property-based invariants (no out-of-space states, termination) over
randomly drawn small parameter sets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchChainSampler
from repro.core.chain import DownloadChain, State
from repro.core.parameters import ModelParameters
from repro.core.phases import Phase, phase_durations
from repro.api import solve
from repro.core.sparse import mean_hitting_time
from repro.core.timeline import (
    phase_duration_statistics,
    potential_ratio_by_pieces,
)
from repro.errors import ParameterError, SimulationError

#: Small parameter sets where the exact solver is cheap; the
#: acceptance criterion requires agreement on at least two.
SMALL_PARAMS = [
    ModelParameters(num_pieces=20, max_conns=3, ns_size=8),
    ModelParameters(num_pieces=12, max_conns=2, ns_size=5),
]


@pytest.fixture
def chain():
    return DownloadChain(SMALL_PARAMS[0])


def small_parameters():
    return st.builds(
        lambda b, k, s: ModelParameters(num_pieces=b, max_conns=k, ns_size=s),
        st.integers(min_value=2, max_value=14),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=8),
    )


class TestStructure:
    def test_histories_shape(self, chain):
        batch = chain.batch_sampler().sample(8, seed=0)
        rounds = int(batch.steps.max()) + 1
        assert batch.runs == 8
        for hist in (batch.n_hist, batch.b_hist, batch.i_hist):
            assert hist.shape == (rounds, 8)

    def test_all_runs_complete(self, chain):
        batch = chain.batch_sampler().sample(8, seed=0)
        assert (batch.b_hist[-1] == chain.params.num_pieces).all()
        assert batch.total_steps == batch.steps.sum()

    def test_completed_runs_freeze(self, chain):
        batch = chain.batch_sampler().sample(8, seed=1)
        for run in range(batch.runs):
            done = int(batch.steps[run])
            tail = batch.b_hist[done:, run]
            assert (tail == chain.params.num_pieces).all()

    def test_deterministic_under_seed(self, chain):
        sampler = chain.batch_sampler()
        first = sampler.sample(6, seed=42)
        second = sampler.sample(6, seed=42)
        assert np.array_equal(first.b_hist, second.b_hist)
        assert np.array_equal(first.n_hist, second.n_hist)
        assert np.array_equal(first.i_hist, second.i_hist)

    def test_accepts_params_or_chain(self, chain):
        from_params = BatchChainSampler(chain.params).sample(4, seed=3)
        from_chain = BatchChainSampler(chain).sample(4, seed=3)
        assert np.array_equal(from_params.b_hist, from_chain.b_hist)

    def test_invalid_runs(self, chain):
        with pytest.raises(ParameterError):
            chain.batch_sampler().sample(0)

    def test_step_limit_guard(self, chain):
        with pytest.raises(SimulationError):
            chain.batch_sampler().sample(4, seed=0, max_steps=1)

    def test_first_passage_matches_history(self, chain):
        batch = chain.batch_sampler().sample(8, seed=5)
        first = batch.first_passage()
        for run in range(batch.runs):
            for target in (0, 1, chain.params.num_pieces):
                expected = int(
                    np.argmax(batch.b_hist[:, run] >= target)
                )
                assert first[run, target] == expected

    def test_phase_durations_sum_to_steps(self, chain):
        batch = chain.batch_sampler().sample(8, seed=6)
        durations = batch.phase_durations()
        total = sum(durations.values())
        assert np.array_equal(total, batch.steps.astype(float))

    def test_phase_durations_match_serial_classifier(self, chain):
        # Re-classify one batched trajectory through the serial phase
        # classifier: per-state phases must agree.
        batch = chain.batch_sampler().sample(4, seed=7)
        durations = batch.phase_durations()
        run = 0
        done = int(batch.steps[run])
        states = [
            State(
                n=int(batch.n_hist[t, run]),
                b=int(batch.b_hist[t, run]),
                i=int(batch.i_hist[t, run]),
            )
            for t in range(done + 1)
        ]
        serial = phase_durations(states, chain.params.num_pieces)
        for phase in (Phase.BOOTSTRAP, Phase.EFFICIENT, Phase.LAST):
            assert durations[phase][run] == serial[phase]

    def test_potential_accumulators_match_serial_pooling(self, chain):
        batch = chain.batch_sampler().sample(6, seed=8)
        sums, counts = batch.potential_accumulators()
        s = chain.params.ns_size
        expect_sums = np.zeros_like(sums)
        expect_counts = np.zeros_like(counts)
        for run in range(batch.runs):
            for t in range(int(batch.steps[run]) + 1):
                b = int(batch.b_hist[t, run])
                expect_sums[b] += int(batch.i_hist[t, run]) / s
                expect_counts[b] += 1
        assert np.allclose(sums, expect_sums)
        assert np.array_equal(counts, expect_counts)


class TestStatisticalEquivalence:
    @pytest.mark.parametrize("params", SMALL_PARAMS, ids=["B20", "B12"])
    def test_mean_download_time_agrees_with_exact(self, params):
        chain = DownloadChain(params)
        exact = mean_hitting_time(chain)
        batched = solve(params, "timeline", "batch", runs=600, seed=2).payload
        assert batched.total_download_time() == pytest.approx(exact, rel=0.08)

    @pytest.mark.parametrize("params", SMALL_PARAMS, ids=["B20", "B12"])
    def test_potential_ratio_agrees_with_exact(self, params):
        chain = DownloadChain(params)
        batched = potential_ratio_by_pieces(chain, runs=400, seed=3)
        exact = solve(params, "potential_ratio", "exact").payload
        both = np.isfinite(batched.ratio) & np.isfinite(exact.ratio)
        assert both.sum() >= params.num_pieces // 2
        assert np.allclose(
            batched.ratio[both], exact.ratio[both], atol=0.08
        )
        # The start is deterministic: (0, 0, 0) has no potential set.
        assert batched.ratio[0] == 0.0

    def test_phase_statistics_agree_with_exact(self):
        chain = DownloadChain(SMALL_PARAMS[0])
        batched = phase_duration_statistics(chain, runs=400, seed=4)
        exact = solve(SMALL_PARAMS[0], "phases", "exact").payload
        for phase in (Phase.BOOTSTRAP, Phase.EFFICIENT, Phase.LAST):
            assert batched.mean[phase] == pytest.approx(
                exact.mean[phase], rel=0.15, abs=0.35
            )


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(params=small_parameters(), seed=st.integers(0, 2**31 - 1))
    def test_states_stay_in_space_and_terminate(self, params, seed):
        batch = BatchChainSampler(params).sample(8, seed=seed)
        assert (batch.n_hist >= 0).all()
        assert (batch.n_hist <= params.max_conns).all()
        assert (batch.b_hist >= 0).all()
        assert (batch.b_hist <= params.num_pieces).all()
        assert (batch.i_hist >= 0).all()
        assert (batch.i_hist <= params.ns_size).all()
        # Piece counts never regress and every run terminates complete.
        assert (np.diff(batch.b_hist, axis=0) >= 0).all()
        assert (batch.b_hist[-1] == params.num_pieces).all()

    @settings(max_examples=15, deadline=None)
    @given(params=small_parameters(), seed=st.integers(0, 2**31 - 1))
    def test_downloads_respect_connection_bound(self, params, seed):
        # Per round, b can grow by at most c = min(b + n, B) - i.e. the
        # paper's parallel-download bound.
        batch = BatchChainSampler(params).sample(4, seed=seed)
        c = np.minimum(
            batch.b_hist[:-1] + batch.n_hist[:-1], params.num_pieces
        )
        growth = np.diff(batch.b_hist, axis=0)
        bootstrap = batch.b_hist[:-1] == 0
        bound = np.where(bootstrap, 1, c)
        assert (growth <= bound).all()
