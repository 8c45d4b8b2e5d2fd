"""Ablation: optimistic-unchoke reach and the phase traps.

With full optimistic unchoking (``starved`` targets — any interested
neighbor with nothing to reciprocate), the bootstrap and last-phase
traps largely dissolve: trapped peers keep receiving free pieces.
Restricting the channel to zero-piece newcomers (``empty``) restores
the paper's strict-tit-for-tat regime, where escape waits on new
neighbors (the model's ``alpha``/``gamma``).  This test measures the
difference on a starvation-prone swarm.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.sim.config import SimConfig
from repro.sim.swarm import run_swarm


def run_targets(targets: str):
    config = SimConfig(
        num_pieces=80, max_conns=4, ns_size=8,
        arrival_process="poisson", arrival_rate=1.0,
        initial_leechers=50, initial_distribution="uniform",
        initial_fill=0.5, num_seeds=1, seed_upload_slots=2,
        optimistic_unchoke_prob=0.5, optimistic_targets=targets,
        piece_selection="rarest", announce_interval=1000.0,
        max_time=400.0, seed=4,
    )
    result = run_swarm(config)
    durations = [c.duration for c in result.metrics.completed]
    # Tail latency exposes the last-phase trap.
    p90 = float(np.percentile(durations, 90)) if durations else float("nan")
    return {
        "targets": targets,
        "completed": len(durations),
        "mean": float(np.mean(durations)) if durations else float("nan"),
        "p90": p90,
    }


def test_ablation_optimistic():
    rows = [run_targets(t) for t in ("starved", "empty")]
    print()
    print(format_table(
        ["optimistic targets", "completed", "mean duration", "p90 duration"],
        [[r["targets"], r["completed"], round(r["mean"], 1),
          round(r["p90"], 1)] for r in rows],
    ))

    by_targets = {r["targets"]: r for r in rows}
    # Full optimistic unchoking shortens the starved tail.
    assert by_targets["starved"]["p90"] < by_targets["empty"]["p90"]
    assert by_targets["starved"]["mean"] <= by_targets["empty"]["mean"] + 1.0
