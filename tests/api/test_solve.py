"""Tests for the unified `repro.api.solve` front door.

Covers the quantity/method vocabulary, ``auto`` resolution, option
validation and coercion, the JSON view, and bit-identical results
between each `solve()` cell and a direct call of the engine it
dispatches to.
"""

import json

import numpy as np
import pytest

import repro
from repro.api import DownloadTimeResult, ModelParams, Quantity, Query, solve
from repro.core.exact import (
    PotentialRatioExact,
    TransientResult,
    _potential_ratio_dict,
    _propagate_sparse,
)
from repro.core.methods import Method
from repro.core.timeline import (
    PhaseStatistics,
    TimelineResult,
    _mean_timeline,
    phase_duration_statistics,
)
from repro.errors import ParameterError
from repro.runtime.cache import KernelCache


@pytest.fixture
def params():
    return ModelParams(num_pieces=10, max_conns=3, ns_size=6)


@pytest.fixture
def cache():
    return KernelCache()


class TestVocabulary:
    @pytest.mark.parametrize(
        "alias, quantity",
        [
            ("ratio", Quantity.POTENTIAL_RATIO),
            ("fig1a", Quantity.POTENTIAL_RATIO),
            ("first_passage", Quantity.TIMELINE),
            ("mean_download_time", Quantity.DOWNLOAD_TIME),
            ("TTD", Quantity.DOWNLOAD_TIME),
            ("phase_durations", Quantity.PHASES),
            ("distribution", Quantity.TRANSIENT),
        ],
    )
    def test_quantity_aliases(self, alias, quantity):
        assert Quantity.parse(alias) is quantity

    def test_unknown_quantity_lists_choices(self, params):
        with pytest.raises(ParameterError) as excinfo:
            solve(params, "magic")
        message = str(excinfo.value)
        assert "unknown quantity 'magic'" in message
        assert "'potential_ratio'" in message
        assert "aliases" in message

    def test_non_string_quantity_rejected(self, params):
        with pytest.raises(ParameterError, match="quantity must be a string"):
            solve(params, 7)

    def test_disallowed_method_lists_choices(self, params):
        with pytest.raises(ParameterError) as excinfo:
            solve(params, "transient", method="batch", horizon=5)
        message = str(excinfo.value)
        assert "method 'batch' is not valid here" in message
        assert "valid choices: 'exact'" in message
        # The dict loops are private test oracles, not methods: their
        # names are unknown everywhere, with the real choices listed.
        for name in ("dict", "reference"):
            with pytest.raises(ParameterError) as excinfo:
                solve(params, "potential_ratio", method=name)
            message = str(excinfo.value)
            assert f"unknown method {name!r}" in message
            assert "'exact'" in message and "'meanfield'" in message
            assert "'dict'" not in message.split(";", 1)[1]

    @pytest.mark.parametrize("name", ["serial", "monte-carlo", "montecarlo"])
    def test_retired_monte_carlo_names_rejected(self, params, name):
        # The per-trajectory sampler is gone; the batch sampler is the
        # one Monte Carlo estimator.  Its old names fail everywhere with
        # the valid choices listed.
        for call in (
            lambda: Method.parse(name),
            lambda: solve(params, "timeline", name, runs=4, seed=0),
            lambda: Query.from_request(
                {"params": params.to_dict(), "quantity": "timeline",
                 "method": name}
            ),
        ):
            with pytest.raises(ParameterError) as excinfo:
                call()
            message = str(excinfo.value)
            assert f"unknown method {name!r}" in message
            assert "'exact'" in message and "'batch'" in message
            assert "'meanfield'" in message

    def test_unknown_option_lists_accepted(self, params):
        with pytest.raises(ParameterError) as excinfo:
            solve(params, "timeline", method="exact", runs=8)
        message = str(excinfo.value)
        assert "unknown option(s) ['runs']" in message
        assert "drop_tol" in message
        # Malformed option values fail in Query.make, before any engine.
        for quantity, method, options, name in [
            ("transient", "exact", {"horizon": "abc"}, "horizon"),
            ("transient", "exact", {"horizon": 2.5}, "horizon"),
            ("download_time", "batch", {"runs": "x"}, "runs"),
            ("download_time", "batch", {"runs": 2.7}, "runs"),
            ("timeline", "batch", {"seed": "s"}, "seed"),
            ("timeline", "exact", {"max_states": [1]}, "max_states"),
            ("timeline", "exact", {"drop_tol": "tiny"}, "drop_tol"),
            ("potential_ratio", "exact", {"warn_above": {}}, "warn_above"),
            ("timeline", "meanfield", {"rtol": "r"}, "rtol"),
            ("timeline", "meanfield", {"atol": None}, "atol"),
            ("timeline", "meanfield", {"drain_tol": "d"}, "drain_tol"),
            ("timeline", "meanfield", {"max_rounds": 9.5}, "max_rounds"),
            ("timeline", "meanfield", {"swarm_size": "n"}, "swarm_size"),
        ]:
            with pytest.raises(ParameterError, match=f"^{name} must be"):
                Query.make(params, quantity, method, **options)


class TestAutoResolution:
    def test_small_space_goes_exact(self, params):
        assert Query.make(params, "timeline").method is Method.EXACT

    def test_large_space_goes_batch(self):
        big = ModelParams(num_pieces=500, max_conns=20, ns_size=50)
        assert Query.make(big, "timeline").method is Method.BATCH

    def test_max_states_option_steers_auto(self, params):
        # params has 280 transient states: over a cap of 100 but within
        # the 8x batch band, so auto lands on the sampler.
        query = Query.make(params, "download_time", max_states=100)
        assert query.method is Method.BATCH

    def test_transient_auto_is_exact(self):
        big = ModelParams(num_pieces=500, max_conns=20, ns_size=50)
        assert Query.make(big, "transient", horizon=5).method is Method.EXACT


class TestQueryCacheKey:
    def test_identical_queries_share_a_key(self, params):
        a = Query.make(params, "download_time", "exact")
        b = Query.make(params, "download_time", "exact")
        assert a.cache_key() == b.cache_key()

    def test_pinned_value(self, params):
        assert Query.make(params, "download_time", "exact").cache_key() == (
            "cd6fb9fec63159dd3cd62f3498ffac79bdc9eb75d1c53ed1f10410e27282c623"
        )

    def test_method_quantity_and_options_distinguish(self, params):
        base = Query.make(params, "timeline", "batch", runs=8, seed=0)
        assert (
            Query.make(params, "timeline", "exact").cache_key()
            != Query.make(params, "timeline", "meanfield").cache_key()
        )
        assert (
            Query.make(params, "timeline", "batch", runs=9, seed=0).cache_key()
            != base.cache_key()
        )
        assert (
            Query.make(params, "phases", "batch", runs=8, seed=0).cache_key()
            != base.cache_key()
        )

    def test_option_order_is_canonical(self, params):
        a = Query.make(params, "timeline", "batch", runs=8, seed=0)
        b = Query.make(params, "timeline", "batch", seed=0, runs=8)
        assert a.options == b.options
        assert a.cache_key() == b.cache_key()
        # Values are coerced by declared type before keying.
        whole = Query.make(params, "download_time", "batch", runs=64)
        floated = Query.make(
            params, "download_time", "batch", runs=64.0, seed=np.int64(3)
        )
        assert floated.options == (("runs", 64), ("seed", 3))
        assert type(floated.options[0][1]) is int
        assert (
            Query.make(params, "download_time", "batch", runs=64.0).cache_key()
            == whole.cache_key()
        )
        assert Query.make(params, "timeline", "batch", seed=None).options == (
            ("seed", None),
        )
        assert Query.make(params, "timeline", "exact", drop_tol=0).options == (
            ("drop_tol", 0.0),
        )


class TestDispatch:
    def test_potential_ratio_payload_types(self, params, cache):
        exact = solve(params, "potential_ratio", "exact", cache=cache)
        assert isinstance(exact.payload, PotentialRatioExact)
        assert exact.stats["transient_states"] > 0
        sampled = solve(
            params, "potential_ratio", "batch", cache=cache, runs=4, seed=0
        )
        assert sampled.payload.observations.shape[0] > 0

    def test_timeline_payload(self, params, cache):
        result = solve(params, "timeline", "exact", cache=cache)
        assert isinstance(result.payload, TimelineResult)
        assert result.payload.runs == 0
        assert result.payload.mean_steps.shape == (params.num_pieces + 1,)

    def test_download_time_payload(self, params, cache):
        result = solve(params, "download_time", "exact", cache=cache)
        assert isinstance(result.payload, DownloadTimeResult)
        assert result.payload.runs == 0
        assert result.payload.mean > 0

    def test_phases_payload(self, params, cache):
        result = solve(params, "phases", "exact", cache=cache)
        assert isinstance(result.payload, PhaseStatistics)

    def test_transient_payload(self, params, cache):
        result = solve(params, "transient", cache=cache, horizon=5)
        assert isinstance(result.payload, TransientResult)
        assert result.stats == {"horizon": 5}

    def test_transient_requires_horizon(self, params, cache):
        with pytest.raises(ParameterError, match="needs a 'horizon' option"):
            solve(params, "transient", cache=cache)

    def test_result_to_dict_is_json_ready(self, params, cache):
        for quantity, options in [
            ("potential_ratio", {}),
            ("timeline", {}),
            ("download_time", {}),
            ("phases", {}),
            ("transient", {"horizon": 4}),
        ]:
            view = solve(params, quantity, cache=cache, **options).to_dict()
            encoded = json.loads(json.dumps(view))
            assert encoded["quantity"] == quantity
            assert encoded["params"]["num_pieces"] == params.num_pieces

    def test_top_level_export(self, params):
        assert repro.solve is solve
        assert repro.ModelParams is ModelParams


class TestShimEquivalence:
    """Each `solve()` cell must match a direct engine call bit-for-bit."""

    def test_exact_potential_ratio_sparse(self, params, cache):
        operator = cache.sparse_operator(params)
        new = solve(params, "potential_ratio", "exact", cache=cache).payload
        assert np.array_equal(
            operator.solution().potential_ratio, new.ratio, equal_nan=True
        )
        assert np.array_equal(
            operator.solution().occupancy_by_pieces, new.occupancy
        )
        assert new.pruned_mass == operator.dropped_mass

    def test_exact_potential_ratio_dict(self, params, cache):
        # The dict oracle agrees with the exact cell to its truncated
        # tail, and reports the mass its pruning dropped.
        oracle = _potential_ratio_dict(cache.chain(params), prune=0.0)
        new = solve(params, "potential_ratio", "exact", cache=cache).payload
        assert oracle.method == "dict" and oracle.pruned_mass == 0.0
        assert np.array_equal(np.isnan(oracle.ratio), np.isnan(new.ratio))
        finite = np.isfinite(oracle.ratio)
        assert np.allclose(oracle.ratio[finite], new.ratio[finite], atol=1e-7)

    def test_propagate_distribution(self, params, cache):
        old = _propagate_sparse(cache.chain(params), 6)
        new = solve(params, "transient", cache=cache, horizon=6).payload
        assert np.array_equal(old.completion_pmf, new.completion_pmf)
        assert np.array_equal(old.expected_pieces, new.expected_pieces)
        assert old.pruned_mass == new.pruned_mass

    def test_mean_timeline(self, params, cache):
        old = _mean_timeline(cache.chain(params), runs=8, seed=3)
        new = solve(
            params, "timeline", "batch", cache=cache, runs=8, seed=3
        ).payload
        assert np.array_equal(old.mean_steps, new.mean_steps, equal_nan=True)
        assert np.array_equal(old.std_steps, new.std_steps, equal_nan=True)
        assert old.runs == new.runs

    @pytest.mark.parametrize("runs, seed", [(8, 3), (500, 1)])
    def test_batch_download_time_is_the_timelines_last_entry(
        self, params, cache, runs, seed
    ):
        """The batch download time reads each run's completion round,
        which is its first passage to B pieces.  The mean is a sum of
        integers, so it is exact.  The std sums its squares in another
        order than the timeline's column reduction, so it may differ
        in the last bits."""
        timeline = solve(
            params, "timeline", "batch", cache=cache, runs=runs, seed=seed
        ).payload
        result = solve(
            params, "download_time", "batch", cache=cache, runs=runs, seed=seed
        )
        assert result.payload.mean == timeline.mean_steps[-1]
        assert result.payload.std == pytest.approx(
            timeline.std_steps[-1], rel=1e-12
        )
        assert result.payload.variance == result.payload.std ** 2
        assert result.payload.runs == timeline.runs == runs
        assert result.stats == {"runs": runs}

    def test_solve_fundamental_moments(self, params, cache):
        old = cache.sparse_operator(params).solution()
        new = solve(params, "download_time", "exact", cache=cache).payload
        assert old.mean_download_time == new.mean
        assert old.variance_download_time == new.variance
        timeline = solve(params, "timeline", "exact", cache=cache).payload
        assert np.array_equal(old.timeline, timeline.mean_steps)

    @pytest.mark.parametrize(
        "quantity", ["potential_ratio", "timeline", "download_time", "phases"]
    )
    def test_exact_cells_honour_the_state_cap(self, params, cache, quantity):
        # params has 280 transient states; every exact cell compiles
        # through the same operator, so each refuses a cap of 100.
        with pytest.raises(ParameterError, match="280 transient states"):
            solve(params, quantity, "exact", cache=cache, max_states=100)

    def test_phases_matches_direct_call(self, params, cache):
        rounds = cache.sparse_operator(params).solution().phase_rounds
        exact = solve(params, "phases", "exact", cache=cache).payload
        assert exact.mean == rounds
        assert sum(exact.occupancy.values()) == pytest.approx(1.0)
        direct = phase_duration_statistics(cache.chain(params), runs=8, seed=3)
        sampled = solve(
            params, "phases", "batch", cache=cache, runs=8, seed=3
        ).payload
        assert direct == sampled
