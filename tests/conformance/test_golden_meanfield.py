"""Pinned golden for the mean-field trajectory at paper scale.

The conformance table proves the mean-field backend agrees with the
other engines where they overlap; this golden pins its *own* output at
the paper's headline parameters (B=200, k=7, s=50) — far beyond the
exact engine's reach — so a future change to the closure (kernel
tables, continuization, round-boundary handling, solver tolerances)
shows up as a diff against recorded values rather than silently
shifting every large-scale answer.

The trajectory probes interpolate at fixed times instead of indexing
the solver's step grid, so the golden is robust to step-selection
differences across scipy versions while still pinning the path itself.
Tolerances are a few parts in 10**3 — far above integrator round-off,
far below the ~1% closure error a modelling change would introduce.

Two service-level checks ride along at the same parameters: a repeated
10**6-peer query is a memoized read, and a batch ensemble sized for a
1% confidence half-width agrees with the mean-field download time.
"""

import math

import numpy as np
import pytest

from repro.api import ModelParams, solve
from repro.core.phases import Phase

PAPER = dict(num_pieces=200, max_conns=7, ns_size=50)

GOLDEN_DOWNLOAD_TIME = 43.087411971197945
#: timeline[level] at a spread of piece levels.
GOLDEN_TIMELINE = {
    1: 1.0,
    40: 10.459183676682667,
    80: 18.622448982806347,
    120: 26.7857142889288,
    160: 34.948979595051256,
    200: GOLDEN_DOWNLOAD_TIME,
}
#: potential_ratio[level] — rises to the mid-download plateau and
#: falls back toward the endgame, the Figure-1(a) shape.
GOLDEN_RATIO = {
    20: 0.9457121281460096,
    100: 0.9850433378930956,
    180: 0.9453023100373904,
}
GOLDEN_PHASES = {
    Phase.BOOTSTRAP: 2.000027955306484,
    Phase.EFFICIENT: 41.08738401589144,
    Phase.LAST: 0.0,
}
#: (time, pieces_mean, completed_mass) probes along the trajectory.
GOLDEN_TRAJECTORY = (
    (5.0, 15.699999985085345, 0.0),
    (25.0, 113.69999998424888, 0.0),
    (41.0, 192.09999998424584, 0.0),
    (43.0, 199.96488209528377, 0.7479229874581788),
)


@pytest.fixture(scope="module")
def solution(cache):
    return cache.meanfield_solution(ModelParams(**PAPER))


def test_download_time(solution):
    assert solution.download_time == pytest.approx(
        GOLDEN_DOWNLOAD_TIME, rel=5e-4
    )


def test_timeline_levels(solution):
    for level, rounds in GOLDEN_TIMELINE.items():
        assert solution.timeline[level] == pytest.approx(
            rounds, rel=1e-3
        ), f"timeline[{level}]"
    assert solution.timeline[0] == 0.0


def test_potential_ratio_levels(solution):
    for level, ratio in GOLDEN_RATIO.items():
        assert solution.potential_ratio[level] == pytest.approx(
            ratio, abs=2e-3
        ), f"potential_ratio[{level}]"
    assert np.isnan(solution.potential_ratio[0])


def test_phase_rounds(solution):
    assert solution.phase_rounds[Phase.BOOTSTRAP] == pytest.approx(
        GOLDEN_PHASES[Phase.BOOTSTRAP], abs=1e-3
    )
    assert solution.phase_rounds[Phase.EFFICIENT] == pytest.approx(
        GOLDEN_PHASES[Phase.EFFICIENT], rel=1e-3
    )
    assert solution.phase_rounds[Phase.LAST] == pytest.approx(0.0, abs=1e-6)


def test_trajectory_probes(solution):
    trajectory = solution.trajectory
    for t, pieces, completed in GOLDEN_TRAJECTORY:
        b = np.interp(t, trajectory.times, trajectory.pieces_mean)
        a = np.interp(t, trajectory.times, trajectory.completed_mass)
        assert b == pytest.approx(pieces, rel=1e-3), f"pieces_mean(t={t})"
        assert a == pytest.approx(completed, abs=5e-3), f"completed(t={t})"
    # The integration drains: essentially all mass completes.
    assert trajectory.completed_mass[-1] == pytest.approx(1.0, abs=1e-6)
    assert trajectory.survivor_mass[-1] <= 1e-6


def test_solve_front_door_matches_the_golden(cache):
    """`solve(..., method="meanfield")` reads off the same solution."""
    result = solve(
        ModelParams(**PAPER), "download_time", "meanfield", cache=cache
    )
    assert result.payload.mean == pytest.approx(
        GOLDEN_DOWNLOAD_TIME, rel=5e-4
    )
    assert result.payload.method == "meanfield"


def test_million_peer_query_is_memoized(cache):
    """A repeated 10**6-peer query reads the memoized solution back."""
    first, repeat = (
        solve(
            ModelParams(**PAPER), "download_time", "meanfield",
            swarm_size=10**6, cache=cache,
        )
        for _ in range(2)
    )
    assert repeat.payload.mean == first.payload.mean
    assert first.stats["swarm_size"] == 10**6


def test_matched_accuracy_ensemble_agrees(solution, cache):
    """A batch ensemble sized so its 95% CI half-width is 1% of the
    download time (from a 32-run pilot's spread) lands within twice its
    half-width plus that 1% target of the mean-field download time."""
    pilot = solve(
        ModelParams(**PAPER), "download_time", "batch",
        runs=32, seed=2007, cache=cache,
    )
    target = 0.01 * solution.download_time
    runs = max(32, math.ceil((1.96 * pilot.payload.std / target) ** 2))
    matched = solve(
        ModelParams(**PAPER), "download_time", "batch",
        runs=runs, seed=2007, cache=cache,
    )
    half_width = 1.96 * matched.payload.std / runs ** 0.5
    assert abs(matched.payload.mean - solution.download_time) < (
        2.0 * half_width + target
    )
