"""Tests for the sparse exact engine.

Five layers: structural contracts of the compiled
:class:`~repro.core.sparse.SparseChainOperator` (stochastic rows,
index round-trips, memoization, the state-space cap), the three-way
equivalence suite (sparse propagation vs the private dict oracles to
floating point tolerance, and both vs
:class:`~repro.core.batch.BatchChainSampler` statistically),
fundamental-matrix cross-checks (mean/variance against propagation and
:func:`~repro.core.sparse.mean_hitting_time`), the whole pipeline at
the paper's B=200 scale, and property-based invariants over randomly
drawn small parameter sets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import solve
from repro.core.batch import BatchChainSampler
from repro.core.chain import DownloadChain
from repro.core.exact import (
    _potential_ratio_dict,
    _propagate_dict,
    _propagate_sparse,
)
from repro.core.parameters import DEFAULT_PARAMETERS, ModelParameters
from repro.core.phases import Phase
from repro.core.sparse import compile_sparse_operator, mean_hitting_time
from repro.core.timeline import phase_duration_statistics
from repro.errors import ParameterError

#: The two small parameter sets of the equivalence acceptance criterion.
SMALL_PARAMS = [
    ModelParameters(num_pieces=8, max_conns=2, ns_size=4),
    ModelParameters(
        num_pieces=12, max_conns=3, ns_size=6,
        alpha=0.35, gamma=0.15, p_reenc=0.6, p_new=0.8,
    ),
]
SMALL_IDS = ["B8", "B12"]
HORIZON = 400


def small_parameters():
    return st.builds(
        lambda b, k, s: ModelParameters(num_pieces=b, max_conns=k, ns_size=s),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=7),
    )


class TestOperatorStructure:
    @pytest.mark.parametrize("params", SMALL_PARAMS, ids=SMALL_IDS)
    def test_rows_are_stochastic(self, params):
        operator = compile_sparse_operator(params)
        totals = np.asarray(operator.transition.sum(axis=1)).ravel()
        totals += operator.absorb
        assert np.allclose(totals, 1.0, atol=1e-12)
        # Absorption is deterministic: f has a single successor.
        assert set(np.unique(operator.absorb)) <= {0.0, 1.0}

    @pytest.mark.parametrize("params", SMALL_PARAMS, ids=SMALL_IDS)
    def test_index_state_round_trip(self, params):
        operator = compile_sparse_operator(params)
        for index in range(operator.num_states):
            n, b, i = operator.state_of(index)
            assert operator.index_of(n, b, i) == index
        with pytest.raises(ParameterError):
            operator.index_of(0, params.num_pieces, 0)  # absorbing b

    def test_rows_match_dict_kernel(self):
        params = SMALL_PARAMS[1]
        chain = DownloadChain(params)
        operator = compile_sparse_operator(params, drop_tol=0.0)
        dense = operator.transition.toarray()
        rng = np.random.default_rng(7)
        for index in rng.choice(operator.num_states, size=40, replace=False):
            n, b, i = operator.state_of(int(index))
            from repro.core.chain import State

            expected = np.zeros(operator.num_states)
            absorbed = 0.0
            for succ, prob in chain.transition_distribution(
                State(n=n, b=b, i=i)
            ).items():
                if succ.b >= params.num_pieces:
                    absorbed += prob
                else:
                    expected[operator.index_of(succ.n, succ.b, succ.i)] += prob
            assert np.allclose(dense[index], expected, atol=1e-12)
            assert operator.absorb[index] == pytest.approx(absorbed, abs=1e-12)

    def test_kernel_memoizes_operator(self):
        chain = DownloadChain(SMALL_PARAMS[0])
        first = chain.kernel.sparse_operator()
        assert chain.kernel.sparse_operator() is first
        # A different tolerance is a different compile.
        assert chain.kernel.sparse_operator(drop_tol=0.0) is not first

    def test_state_space_cap(self):
        with pytest.raises(ParameterError, match="max_states"):
            compile_sparse_operator(SMALL_PARAMS[0], max_states=10)
        # Paper scale exceeds a deliberately small cap with the same
        # actionable message.
        big = ModelParameters(num_pieces=200, max_conns=7, ns_size=50)
        with pytest.raises(ParameterError, match="Monte-Carlo"):
            compile_sparse_operator(big, max_states=50_000)

    def test_invalid_tolerances(self):
        with pytest.raises(ParameterError):
            compile_sparse_operator(SMALL_PARAMS[0], drop_tol=0.1)
        with pytest.raises(ParameterError):
            compile_sparse_operator(SMALL_PARAMS[0], max_states=0)


class TestSparseVsDict:
    @pytest.mark.parametrize("params", SMALL_PARAMS, ids=SMALL_IDS)
    def test_propagation_total_variation(self, params):
        chain = DownloadChain(params)
        dict_result = _propagate_dict(chain, HORIZON, prune=0.0)
        sparse_result = _propagate_sparse(chain, HORIZON)
        tv_distance = float(
            np.abs(
                dict_result.completion_pmf - sparse_result.completion_pmf
            ).sum()
        )
        assert tv_distance <= 1e-10
        for attr in (
            "expected_pieces", "expected_potential", "expected_connections"
        ):
            assert np.allclose(
                getattr(dict_result, attr), getattr(sparse_result, attr),
                atol=1e-9,
            )
        assert dict_result.method == "dict"
        assert sparse_result.method == "sparse"
        assert sparse_result.mean_download_time() == pytest.approx(
            dict_result.mean_download_time(), abs=1e-8
        )

    @pytest.mark.parametrize("params", SMALL_PARAMS, ids=SMALL_IDS)
    def test_potential_ratio_agrees(self, params):
        chain = DownloadChain(params)
        dict_result = _potential_ratio_dict(chain, prune=0.0)
        solution = chain.kernel.sparse_operator().solution()
        assert np.array_equal(
            np.isnan(dict_result.ratio), np.isnan(solution.potential_ratio)
        )
        finite = np.isfinite(dict_result.ratio)
        # The dict path truncates at a horizon; the sparse path is
        # horizon-free, so agreement is to the truncated tail mass.
        assert np.allclose(
            dict_result.ratio[finite], solution.potential_ratio[finite],
            atol=1e-7,
        )
        assert solution.potential_ratio[-1] == 0.0
        assert solution.occupancy_by_pieces.sum() == pytest.approx(
            mean_hitting_time(chain), rel=1e-9
        )


class TestFundamentalSolution:
    @pytest.mark.parametrize("params", SMALL_PARAMS, ids=SMALL_IDS)
    def test_mean_agrees_with_propagation(self, params):
        chain = DownloadChain(params)
        solution = chain.kernel.sparse_operator().solution()
        transient = _propagate_sparse(chain, HORIZON)
        assert solution.mean_download_time == pytest.approx(
            transient.mean_download_time(), abs=1e-6
        )
        # The public hitting-time helper reads the same solve.
        assert mean_hitting_time(chain) == pytest.approx(
            solution.mean_download_time
        )
        # Variance from the truncated pmf converges to the exact one.
        pmf = transient.completion_pmf / transient.completion_cdf[-1]
        second = float((transient.rounds.astype(float) ** 2) @ pmf)
        mean = float(transient.rounds @ pmf)
        assert solution.variance_download_time == pytest.approx(
            second - mean * mean, rel=1e-5
        )

    @pytest.mark.parametrize("params", SMALL_PARAMS, ids=SMALL_IDS)
    def test_mean_and_variance_agree_with_monte_carlo(self, params):
        chain = DownloadChain(params)
        solution = chain.kernel.sparse_operator().solution()
        runs = 4000
        steps = BatchChainSampler(chain).sample(runs, seed=11).steps
        sem = steps.std(ddof=1) / np.sqrt(runs)
        assert abs(solution.mean_download_time - steps.mean()) <= 4.5 * sem
        assert solution.variance_download_time == pytest.approx(
            float(steps.var(ddof=1)), rel=0.25
        )

    def test_occupancy_identities(self):
        chain = DownloadChain(SMALL_PARAMS[0])
        solution = chain.kernel.sparse_operator().solution()
        # Total occupancy is the mean download time, split consistently
        # across piece counts, the timeline, and the phases.
        assert solution.occupancy_by_pieces.sum() == pytest.approx(
            solution.mean_download_time
        )
        assert solution.timeline[0] == 0.0
        assert solution.timeline[-1] == pytest.approx(
            solution.mean_download_time
        )
        assert np.all(np.diff(solution.timeline) >= -1e-12)
        assert sum(solution.phase_rounds.values()) == pytest.approx(
            solution.mean_download_time
        )

    def test_phase_statistics_exact_method(self):
        chain = DownloadChain(SMALL_PARAMS[0])
        exact = solve(SMALL_PARAMS[0], "phases", "exact").payload
        assert exact.runs == 0
        assert all(np.isnan(v) for v in exact.std.values())
        assert sum(exact.occupancy.values()) == pytest.approx(1.0)
        sampled = phase_duration_statistics(chain, runs=4000, seed=5)
        for phase in (Phase.BOOTSTRAP, Phase.EFFICIENT, Phase.LAST):
            assert exact.mean[phase] == pytest.approx(
                sampled.mean[phase], rel=0.15, abs=0.3
            )

    def test_timeline_agrees_with_monte_carlo(self):
        chain = DownloadChain(SMALL_PARAMS[1])
        solution = chain.kernel.sparse_operator().solution()
        hits = BatchChainSampler(chain).sample(3000, seed=13).first_passage()
        mc_mean = hits.mean(axis=0)
        sem = hits.std(axis=0, ddof=1) / np.sqrt(hits.shape[0])
        assert np.all(
            np.abs(solution.timeline - mc_mean) <= 5.0 * sem + 0.05
        )


class TestPaperScale:
    def test_paper_pipeline_absorbs_and_agrees_with_solution(self):
        """The whole exact pipeline at the paper's B=200, k=7, s=50:
        compile the operator, solve for the moments, then propagate
        until the completion CDF is essentially 1."""
        chain = DownloadChain(DEFAULT_PARAMETERS)
        solution = chain.kernel.sparse_operator().solution()
        mean = solution.mean_download_time
        std = solution.std_download_time
        horizon = max(int(mean + 10.0 * std), int(2.0 * mean))
        transient = _propagate_sparse(chain, horizon)
        assert transient.completion_cdf[-1] > 0.999
        assert abs(transient.mean_download_time() - mean) < 0.5


class TestSatellites:
    def test_dict_pruned_mass_tracked_and_warns(self):
        chain = DownloadChain(SMALL_PARAMS[0])
        with pytest.warns(RuntimeWarning, match="discarded"):
            result = _potential_ratio_dict(
                chain, prune=1e-4, warn_above=1e-12
            )
        assert result.pruned_mass > 1e-12
        quiet = _potential_ratio_dict(chain, prune=0.0)
        assert quiet.pruned_mass == 0.0

    def test_tail_mass_and_error_message(self):
        params = SMALL_PARAMS[0]
        short = solve(params, "transient", horizon=3).payload
        assert short.tail_mass == pytest.approx(
            1.0 - short.completion_cdf[-1]
        )
        assert short.tail_mass > 0.001
        with pytest.raises(ParameterError, match="mean_hitting_time"):
            short.mean_download_time()
        long = solve(params, "transient", horizon=HORIZON).payload
        assert long.tail_mass < 1e-3

    def test_singular_chain_raises_actionable_error(self):
        # alpha = 0 strands the chain in the bootstrap stall state.
        params = ModelParameters(
            num_pieces=6, max_conns=2, ns_size=3, alpha=0.0, gamma=0.2
        )
        with pytest.raises(ParameterError, match="singular|infinite"):
            solve(params, "download_time", method="exact")


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(params=small_parameters())
    def test_rows_stochastic_and_in_space(self, params):
        operator = compile_sparse_operator(params)
        matrix = operator.transition.tocoo()
        totals = np.asarray(operator.transition.sum(axis=1)).ravel()
        totals += operator.absorb
        assert np.allclose(totals, 1.0, atol=1e-12)
        # Every column index decodes to a valid in-space transient state
        # with a non-decreasing piece count.
        n_next = operator.n_of[matrix.col]
        b_next = operator.b_of[matrix.col]
        i_next = operator.i_of[matrix.col]
        assert np.all((0 <= n_next) & (n_next <= params.max_conns))
        assert np.all((0 <= b_next) & (b_next < params.num_pieces))
        assert np.all((0 <= i_next) & (i_next <= params.ns_size))
        assert np.all(b_next >= operator.b_of[matrix.row])
        assert np.all((matrix.data > 0.0) & (matrix.data <= 1.0))
