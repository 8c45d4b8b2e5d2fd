"""Extension: flash-crowd service capacity scales with the swarm.

The related-work claim from Yang & de Veciana [12] that the paper
summarises: "during the flash crowd phase, the service capacity of the
network scales logarithmically with the number of peers" — i.e. the
makespan of serving a burst of N peers from one seed grows like log N,
not N, because every completed piece becomes new upload capacity.

This test releases flash crowds of increasing size onto a single-seed
swarm and measures the 90%-completion makespan; doubling the crowd must
add far less than double the time (strongly sublinear growth).
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.sim.config import SimConfig
from repro.sim.swarm import run_swarm

CROWDS = (25, 50, 100, 200)


def makespan(flash_size: int) -> float:
    config = SimConfig(
        num_pieces=40,
        max_conns=4,
        ns_size=25,
        arrival_process="flash",
        flash_size=flash_size,
        arrival_rate=0.0,
        initial_leechers=0,
        num_seeds=1,
        seed_upload_slots=4,
        optimistic_unchoke_prob=0.6,
        piece_selection="rarest",
        max_time=400.0,
        seed=flash_size,
    )
    result = run_swarm(config)
    finish_times = sorted(c.completed_at for c in result.metrics.completed)
    target = int(0.9 * flash_size)
    if len(finish_times) < target:
        return float("inf")
    return float(finish_times[target - 1])


def test_extension_flash_crowd():
    spans = {n: makespan(n) for n in CROWDS}
    print()
    rows = []
    for n in CROWDS:
        rows.append([n, round(spans[n], 1),
                     round(spans[n] / np.log2(n), 2)])
    print(format_table(["crowd size", "90% makespan", "makespan / log2(N)"],
                       rows))

    # Every crowd is served.
    assert all(np.isfinite(spans[n]) for n in CROWDS)
    # Strongly sublinear scaling: serving 8x the peers costs well under
    # 8x the time (the paper's summary: logarithmic capacity growth).
    ratio = spans[CROWDS[-1]] / spans[CROWDS[0]]
    crowd_ratio = CROWDS[-1] / CROWDS[0]
    print(f"makespan ratio {ratio:.2f}x for a {crowd_ratio:.0f}x crowd")
    assert ratio < crowd_ratio / 2
