"""Baseline: the coupon replication system vs. BitTorrent.

The paper's related-work contrast (Section 2.2): the coupon system
samples encounters uniformly from the whole swarm with a single
connection, so encounters fail with positive probability and the k >= 2
efficiency gain is unavailable.  Same workload, both systems.
"""

from repro.analysis.reporting import format_table
from repro.baselines.coupon import run_coupon_system
from repro.sim.config import SimConfig
from repro.sim.metrics import MetricsCollector
from repro.sim.swarm import Swarm

NUM_PIECES = 40
ARRIVAL = 2.0
ROUNDS = 150


def test_baseline_coupon():
    config = SimConfig(
        num_pieces=NUM_PIECES, max_conns=4, ns_size=25,
        arrival_process="poisson", arrival_rate=ARRIVAL,
        initial_leechers=50, initial_distribution="uniform",
        initial_fill=0.5, num_seeds=1, seed_upload_slots=2,
        optimistic_unchoke_prob=0.5, piece_selection="rarest",
        connection_setup_prob=0.8, connection_failure_prob=0.1,
        max_time=float(ROUNDS), seed=5,
    )
    bt = MetricsCollector(config.max_conns, entropy_every=10)
    Swarm(config, metrics=bt).run()
    coupon = run_coupon_system(
        NUM_PIECES, ROUNDS, arrival_rate=ARRIVAL, initial_peers=50, seed=5
    )
    print()
    print(format_table(
        ["system", "completed", "mean sojourn", "efficiency", "failed enc."],
        [
            ["BitTorrent (k=4, NS)", len(bt.completed),
             round(bt.mean_download_duration(), 1),
             round(bt.efficiency(), 3), "-"],
            ["Coupon (k=1, global)", coupon.completed,
             round(coupon.mean_sojourn, 1), round(coupon.efficiency, 3),
             f"{coupon.failed_encounter_fraction:.1%}"],
        ],
    ))

    # The structural differences the paper argues:
    assert coupon.failed_encounter_fraction > 0.2, (
        "whole-swarm random encounters must fail often"
    )
    assert bt.mean_download_duration() < coupon.mean_sojourn, (
        "BitTorrent's multi-connection, NS-gated trading must finish faster"
    )
    assert bt.efficiency() > coupon.efficiency
