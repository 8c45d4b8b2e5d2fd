"""Tests for exact transient analysis (cross-checked against Monte Carlo)."""

import numpy as np
import pytest

from repro.api import solve
from repro.core.chain import DownloadChain
from repro.core.parameters import ModelParameters
from repro.core.timeline import potential_ratio_by_pieces
from repro.errors import ParameterError

TINY = ModelParameters(num_pieces=8, max_conns=2, ns_size=4)


@pytest.fixture(scope="module")
def tiny_chain():
    return DownloadChain(TINY)


@pytest.fixture(scope="module")
def transient():
    return solve(TINY, "transient", horizon=200).payload


def exact_ratio():
    return solve(TINY, "potential_ratio", method="exact").payload.ratio


class TestPropagation:
    def test_cdf_monotone_to_one(self, transient):
        cdf = transient.completion_cdf
        assert (np.diff(cdf) >= -1e-12).all()
        assert cdf[-1] == pytest.approx(1.0, abs=1e-6)

    def test_pmf_non_negative(self, transient):
        assert (transient.completion_pmf >= 0).all()

    def test_mean_matches_hitting_time_solve(self, transient):
        exact = solve(TINY, "download_time", method="exact").payload.mean
        assert transient.mean_download_time() == pytest.approx(exact, rel=1e-3)

    def test_mean_matches_monte_carlo(self, transient):
        mc = solve(
            TINY, "timeline", method="batch", runs=500, seed=1
        ).payload.total_download_time()
        assert transient.mean_download_time() == pytest.approx(mc, rel=0.08)

    def test_expected_pieces_monotone(self, transient):
        assert (np.diff(transient.expected_pieces) >= -1e-9).all()

    def test_expected_pieces_converges_to_b(self, transient):
        assert transient.expected_pieces[-1] == pytest.approx(8.0, abs=1e-3)

    def test_pruned_mass_negligible(self, transient):
        assert transient.pruned_mass < 1e-6

    def test_short_horizon_mean_rejected(self):
        short = solve(TINY, "transient", horizon=3).payload
        with pytest.raises(ParameterError):
            short.mean_download_time()

    def test_validation(self):
        with pytest.raises(ParameterError, match="horizon must be >= 1"):
            solve(TINY, "transient", horizon=0)
        # Pruning belongs to the dict oracles; ``transient`` has none.
        with pytest.raises(ParameterError, match=r"unknown option\(s\) \['prune'\]"):
            solve(TINY, "transient", horizon=10, prune=0.01)


class TestExactPotentialRatio:
    def test_matches_monte_carlo(self, tiny_chain):
        exact = exact_ratio()
        mc = potential_ratio_by_pieces(tiny_chain, runs=2000, seed=2).ratio
        for b in range(1, 8):
            if np.isfinite(exact[b]) and np.isfinite(mc[b]):
                assert exact[b] == pytest.approx(mc[b], abs=0.05), f"b={b}"

    def test_bounds(self):
        exact = exact_ratio()
        finite = exact[np.isfinite(exact)]
        assert (finite >= 0).all()
        assert (finite <= 1).all()

    def test_completion_entry_zero(self):
        assert exact_ratio()[-1] == 0.0
