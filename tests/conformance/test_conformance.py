"""Cross-backend conformance: exact vs Monte Carlo vs mean-field.

A declarative table of parameter cells, each executed against every
backend that supports it through the one ``solve()`` front door.  The
cells sit in the overlap band — small enough for the exact
fundamental-matrix solve, large enough that the mean-field limit is
already accurate — so three independent derivations of the same
quantity (linear algebra on the full chain, sampled trajectories, and
the deterministic ODE closure) must agree within per-quantity
tolerances:

* **download_time** — the headline three-way check: the mean-field mean
  within ``dt_rtol`` (2%) of the exact solve *and* inside the batch
  Monte-Carlo 3-sigma confidence interval.
* **timeline** — relative agreement on the interior band
  ``[0.2 B, 0.9 B]`` (the continuization is least faithful within a
  round of the boundaries, which the band excludes by construction).
* **potential_ratio** — absolute agreement on ``[0.1 B, 0.8 B]``.
* **phases** — bootstrap/efficient/last expected rounds.

The stall-dominated cell (``ns_size=5``) participates in the
download-time check only: with a tiny potential set the per-peer
variance of the *path* (not just its endpoint) stays O(1) at every
swarm size, which is exactly where a mean-field trajectory is not the
right description — see the accuracy-regime column of the backend
table in docs/MODEL.md.
"""

import dataclasses
import math
from typing import Dict, Optional, Tuple

import numpy as np
import pytest

from repro.api import ModelParams, solve
from repro.core.phases import Phase


@dataclasses.dataclass(frozen=True)
class Cell:
    """One conformance cell: a parameter set plus its tolerances.

    Attributes:
        name: cell id in the pytest parametrization.
        params: keyword arguments for :class:`ModelParams`.
        runs: batch Monte-Carlo trajectories for the CI check.
        seed: the (fixed) Monte-Carlo seed — conformance must be
            deterministic, flakes are findings.
        dt_rtol: max relative error of the mean-field download time
            against the exact solve.
        timeline_rtol: max relative timeline error on ``[0.2B, 0.9B]``
            (None = cell opts out; see the stall cell).
        ratio_atol: max absolute potential-ratio error on
            ``[0.1B, 0.8B]`` (None = opt out).
        phase_tols: (bootstrap_atol, efficient_rtol, last_atol)
            (None = opt out).
    """

    name: str
    params: Dict[str, object]
    runs: int = 192
    seed: int = 2007
    dt_rtol: float = 0.02
    timeline_rtol: Optional[float] = 0.05
    ratio_atol: Optional[float] = 0.10
    phase_tols: Optional[Tuple[float, float, float]] = (0.35, 0.05, 0.6)


CELLS = (
    # Low p_init parks extra initial mass at i=0, stretching the exact
    # bootstrap tail the deterministic closure averages over — hence
    # the wider bootstrap tolerance on this cell.
    Cell(name="tiny", params=dict(num_pieces=24, max_conns=3, ns_size=8,
                                  p_init=0.35),
         phase_tols=(0.45, 0.05, 0.6)),
    Cell(name="small", params=dict(num_pieces=30, max_conns=3, ns_size=12)),
    Cell(name="asymmetric", params=dict(num_pieces=40, max_conns=4,
                                        ns_size=16, alpha=0.3, gamma=0.2)),
    Cell(name="wide", params=dict(num_pieces=60, max_conns=5, ns_size=20)),
    # Stall-dominated regime: mean download time still conforms, the
    # trajectory-shaped quantities are documented as out of regime.
    Cell(name="stall", params=dict(num_pieces=30, max_conns=3, ns_size=5),
         timeline_rtol=None, ratio_atol=None, phase_tols=None),
)


def _cells(predicate=lambda cell: True):
    chosen = [cell for cell in CELLS if predicate(cell)]
    return pytest.mark.parametrize(
        "cell", chosen, ids=[cell.name for cell in chosen]
    )


def _params(cell: Cell) -> ModelParams:
    return ModelParams(**cell.params)


def _band(num_pieces: int, lo: float, hi: float) -> slice:
    return slice(max(int(lo * num_pieces), 1), int(hi * num_pieces))


@_cells()
def test_download_time_three_way(cell, cache):
    """Exact, batch-MC, and mean-field agree on the expected rounds."""
    params = _params(cell)
    exact = solve(params, "download_time", "exact", cache=cache).payload
    field = solve(params, "download_time", "meanfield", cache=cache).payload
    sampled = solve(
        params, "download_time", "batch",
        cache=cache, runs=cell.runs, seed=cell.seed,
    ).payload

    assert field.mean == pytest.approx(exact.mean, rel=cell.dt_rtol)

    sem = sampled.std / math.sqrt(cell.runs)
    # The sampler must bracket the exact value (sanity on the CI
    # itself), and the mean-field value must sit inside the same CI.
    assert abs(sampled.mean - exact.mean) <= 3.0 * sem
    assert abs(field.mean - sampled.mean) <= 3.0 * sem


@_cells(lambda cell: cell.timeline_rtol is not None)
def test_timeline_band(cell, cache):
    """Mean-field first-passage rounds track the exact timeline."""
    params = _params(cell)
    exact = solve(params, "timeline", "exact", cache=cache).payload
    field = solve(params, "timeline", "meanfield", cache=cache).payload
    band = _band(params.num_pieces, 0.2, 0.9)
    np.testing.assert_allclose(
        field.mean_steps[band], exact.mean_steps[band],
        rtol=cell.timeline_rtol,
    )
    # Shared invariants of the deterministic backends.
    assert field.mean_steps[0] == 0.0
    assert field.runs == 0 and exact.runs == 0


@_cells(lambda cell: cell.ratio_atol is not None)
def test_potential_ratio_band(cell, cache):
    """Mean-field E[i/s] per piece level tracks the exact curve."""
    params = _params(cell)
    exact = solve(params, "potential_ratio", "exact", cache=cache).payload
    field = solve(params, "potential_ratio", "meanfield", cache=cache).payload
    band = _band(params.num_pieces, 0.1, 0.8)
    exact_band = exact.ratio[band]
    field_band = field.ratio[band]
    mask = ~np.isnan(exact_band) & ~np.isnan(field_band)
    assert mask.sum() >= (band.stop - band.start) // 2
    np.testing.assert_allclose(
        field_band[mask], exact_band[mask], atol=cell.ratio_atol,
    )


@_cells(lambda cell: cell.phase_tols is not None)
def test_phases(cell, cache):
    """Mean-field phase decomposition matches the exact one."""
    params = _params(cell)
    exact = solve(params, "phases", "exact", cache=cache).payload
    field = solve(params, "phases", "meanfield", cache=cache).payload
    boot_atol, eff_rtol, last_atol = cell.phase_tols
    assert field.mean[Phase.BOOTSTRAP] == pytest.approx(
        exact.mean[Phase.BOOTSTRAP], abs=boot_atol
    )
    assert field.mean[Phase.EFFICIENT] == pytest.approx(
        exact.mean[Phase.EFFICIENT], rel=eff_rtol
    )
    assert field.mean[Phase.LAST] == pytest.approx(
        exact.mean[Phase.LAST], abs=last_atol
    )
    assert field.dominant() is exact.dominant()
    occupancy_total = sum(field.occupancy.values())
    assert occupancy_total == pytest.approx(1.0)


@_cells()
def test_meanfield_serializes_like_every_backend(cell, cache):
    """The service payload shape is method-independent."""
    params = _params(cell)
    result = solve(params, "download_time", "meanfield", cache=cache)
    body = result.to_dict()
    assert body["method"] == "meanfield"
    assert body["result"]["runs"] == 0
    assert body["result"]["mean"] == pytest.approx(
        result.payload.mean
    )
    # NaN moments serialize as null, exactly like the exact engine's
    # NaN std entries do.
    assert body["result"]["std"] is None
