"""Tests for the download-evolution chain."""

import numpy as np
import pytest

from repro.core.chain import DownloadChain, State
from repro.core.parameters import ModelParameters
from repro.core.phases import Phase
from repro.errors import ParameterError, SimulationError


@pytest.fixture
def chain(small_params):
    return DownloadChain(small_params)


class TestBasics:
    def test_initial_state(self, chain):
        assert chain.initial_state == State(0, 0, 0)

    def test_not_complete_initially(self, chain):
        assert not chain.is_complete(chain.initial_state)

    def test_complete_at_b(self, chain):
        assert chain.is_complete(State(0, chain.params.num_pieces, 0))

    def test_phase_delegation(self, chain):
        assert chain.phase(State(0, 0, 0)) is Phase.BOOTSTRAP
        assert chain.phase(State(2, 5, 3)) is Phase.EFFICIENT

    def test_validate_state(self, chain):
        chain.validate_state(State(1, 5, 3))
        with pytest.raises(ParameterError):
            chain.validate_state(State(9, 5, 3))
        with pytest.raises(ParameterError):
            chain.validate_state(State(1, 99, 3))
        with pytest.raises(ParameterError):
            chain.validate_state(State(1, 5, 99))


class TestStep:
    def test_first_step_acquires_first_piece(self, chain, rng):
        nxt = chain.step(chain.initial_state, rng)
        assert nxt.b == 1
        assert nxt.n == 0  # no pieces at step time -> no connections

    def test_states_stay_in_bounds(self, chain, rng):
        state = chain.initial_state
        for _ in range(200):
            state = chain.step(state, rng)
            chain.validate_state(state)
            if chain.is_complete(state):
                break

    def test_pieces_never_decrease(self, chain, rng):
        state = chain.initial_state
        for _ in range(200):
            nxt = chain.step(state, rng)
            assert nxt.b >= state.b
            state = nxt
            if chain.is_complete(state):
                break


class TestTrajectory:
    def test_reaches_completion(self, chain):
        traj = chain.trajectory(seed=3)
        assert traj[0] == State(0, 0, 0)
        assert traj[-1].b == chain.params.num_pieces

    def test_deterministic_for_seed(self, chain):
        assert chain.trajectory(seed=11) == chain.trajectory(seed=11)

    def test_different_seeds_differ(self, chain):
        # Overwhelmingly likely for a stochastic chain.
        assert chain.trajectory(seed=1) != chain.trajectory(seed=2)

    def test_download_time(self, chain):
        traj = chain.trajectory(seed=5)
        assert chain.download_time_steps(traj) == len(traj) - 1

    def test_max_steps_guard(self):
        # alpha = gamma ~ 0 means a stall is inescapable in practice.
        params = ModelParameters(
            num_pieces=10, max_conns=1, ns_size=2,
            p_init=0.0, alpha=0.0, gamma=0.0,
        )
        starving = DownloadChain(params)
        with pytest.raises(SimulationError):
            starving.trajectory(seed=0, max_steps=500)


class TestTransitionDistribution:
    def test_sums_to_one(self, chain):
        dist = chain.transition_distribution(State(1, 3, 2))
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_keys_are_states(self, chain):
        dist = chain.transition_distribution(State(0, 0, 0))
        assert all(isinstance(s, State) for s in dist)

    def test_matches_empirical_sampling(self, chain):
        state = State(1, 3, 2)
        dist = chain.transition_distribution(state)
        rng = np.random.default_rng(0)
        counts = {}
        draws = 5000
        for _ in range(draws):
            nxt = chain.step(state, rng)
            counts[nxt] = counts.get(nxt, 0) + 1
        for successor, prob in dist.items():
            if prob > 0.02:
                assert counts.get(successor, 0) / draws == pytest.approx(
                    prob, abs=0.03
                )

    def test_invalid_state_rejected(self, chain):
        with pytest.raises(ParameterError):
            chain.transition_distribution(State(99, 0, 0))
