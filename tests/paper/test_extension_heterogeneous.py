"""Extension: heterogeneous bandwidth under strict tit-for-tat.

The paper assumes homogeneous bandwidth and defers the heterogeneous
case (its Section 7; cf. [11]).  This test relaxes the assumption:
half the leechers can upload 1 piece per round, half 4.  Under strict
tit-for-tat, a swap needs budget on *both* sides, so slow uploaders
also download slowly — reciprocity couples the directions, the fairness
property the incentive mechanism is designed around.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.sim.config import SimConfig
from repro.sim.swarm import run_swarm


def test_extension_heterogeneous():
    base = dict(
        num_pieces=60, max_conns=4, ns_size=25,
        arrival_process="poisson", arrival_rate=2.0,
        initial_leechers=60, initial_distribution="uniform",
        initial_fill=0.5, num_seeds=1, seed_upload_slots=2,
        optimistic_unchoke_prob=0.5, piece_selection="rarest",
        max_time=120.0, seed=2,
    )
    homogeneous = run_swarm(SimConfig(**base))
    heterogeneous = run_swarm(
        SimConfig(**base, bandwidth_classes=((0.5, 1), (0.5, 4)))
    )
    print()

    durations = {1: [], 4: []}
    for download in heterogeneous.metrics.completed:
        if download.upload_capacity in durations:
            durations[download.upload_capacity].append(download.duration)
    slow = float(np.mean(durations[1]))
    fast = float(np.mean(durations[4]))
    homog_mean = homogeneous.metrics.mean_download_duration()

    print(format_table(
        ["population", "completed", "mean download time"],
        [
            ["homogeneous", len(homogeneous.metrics.completed),
             round(homog_mean, 1)],
            ["hetero: slow class (1 up/round)", len(durations[1]),
             round(slow, 1)],
            ["hetero: fast class (4 up/round)", len(durations[4]),
             round(fast, 1)],
        ],
    ))

    # Tit-for-tat reciprocity: slow uploaders download markedly slower.
    assert slow > 1.3 * fast, "TFT must couple upload and download rates"
    # Heterogeneity costs aggregate throughput relative to homogeneous
    # capacity (swaps stall on the slow side's budget).
    assert len(heterogeneous.metrics.completed) < len(
        homogeneous.metrics.completed
    )
