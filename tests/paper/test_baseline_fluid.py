"""Baseline: the Qiu-Srikant fluid model fed with the derived efficiency.

The fluid model treats the sharing effectiveness ``eta`` as an exogenous
input — exactly the protocol detail the paper's model derives.  This
test closes the loop: the balance-equation eta per k parameterises the
fluid steady state, and the fluid trajectory is checked against its own
equilibrium.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.baselines.fluid import FluidModel
from repro.efficiency.efficiency import efficiency_curve


def test_baseline_fluid():
    points = efficiency_curve([1, 2, 4, 8])
    rows = []
    for point in points:
        model = FluidModel(
            arrival_rate=2.0, upload_rate=0.1, download_rate=1.0,
            efficiency=point.eta, seed_departure_rate=0.5,
        )
        steady = model.steady_state()
        trajectory = model.integrate(400.0, points=400)
        rows.append((point.max_conns, point.eta, steady, trajectory))
    print()
    print(format_table(
        ["k", "eta (derived)", "leechers", "seeds", "mean T", "bottleneck"],
        [
            [k, round(eta, 3), round(steady.leechers, 1),
             round(steady.seeds, 1), round(steady.mean_download_time, 1),
             "downlink" if steady.download_constrained else "uplink"]
            for k, eta, steady, _traj in rows
        ],
    ))

    # Higher derived efficiency -> fewer queued leechers, shorter T.
    leechers = [steady.leechers for _k, _e, steady, _t in rows]
    assert leechers == sorted(leechers, reverse=True)

    # Trajectories converge to the closed-form equilibrium.
    for _k, _eta, steady, trajectory in rows:
        np.testing.assert_allclose(
            trajectory.leechers[-1], steady.leechers, rtol=0.05
        )
        np.testing.assert_allclose(
            trajectory.seeds[-1], steady.seeds, rtol=0.05
        )
