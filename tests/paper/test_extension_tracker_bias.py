"""Extension: tracker-biased arrivals vs. the bootstrap trap (Sec. 4.3).

The paper's suggestion: "the tracker can bias new peer arrivals into
the neighborhood of the peers which are trapped in the bootstrap
phase."  This test runs the bootstrap-prone swarm (near-complete,
highly overlapping initial population; strict-TFT donations to empty
peers only) with and without the bias and compares how long fresh
clients take to acquire tradable footing.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.sim.config import SimConfig
from repro.sim.swarm import run_swarm


def measure(bias: bool):
    config = SimConfig(
        num_pieces=60,
        max_conns=4,
        ns_size=10,
        arrival_process="poisson",
        arrival_rate=0.4,
        initial_leechers=30,
        initial_distribution="uniform",
        initial_fill=0.92,
        num_seeds=1,
        seed_upload_slots=1,
        optimistic_unchoke_prob=0.6,
        optimistic_targets="empty",
        piece_selection="random",
        tracker_bias_bootstrap=bias,
        max_time=400.0,
        seed=2,
    )
    result = run_swarm(config)
    completed = result.metrics.completed
    # Bootstrap exposure: rounds from the first piece to the fourth
    # (trading has clearly begun by then); trapped peers stretch this.
    exposures = []
    for download in completed:
        times = download.stats.piece_times
        if len(times) >= 4:
            exposures.append(times[3] - times[0])
    return {
        "bias": bias,
        "completed": len(completed),
        "mean_exposure": float(np.mean(exposures)) if exposures else float("nan"),
        "p90_exposure": float(np.percentile(exposures, 90)) if exposures else float("nan"),
    }


def test_extension_tracker_bias():
    rows = [measure(False), measure(True)]
    print()
    print(format_table(
        ["tracker bias", "completed", "mean bootstrap exposure", "p90"],
        [[r["bias"], r["completed"], round(r["mean_exposure"], 1),
          round(r["p90_exposure"], 1)] for r in rows],
    ))

    unbiased, biased = rows
    assert biased["completed"] > 0 and unbiased["completed"] > 0
    # Biased arrivals reach trapped peers first, shortening the stretch
    # from the first piece to a working trading position.
    assert biased["mean_exposure"] <= unbiased["mean_exposure"] * 1.05