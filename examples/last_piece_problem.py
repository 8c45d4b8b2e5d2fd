#!/usr/bin/env python
"""The last-piece problem and the peer-set shaking mitigation (Sec. 7.1).

Demonstrates, on a deliberately starved swarm (small neighbor sets, no
neighbor-set refills), that:

1. the time-to-download (TTD) of the final blocks ramps up sharply —
   the last download phase of the paper's model;
2. "shaking" the peer set at 90% completion (drop every neighbor, fetch
   a fresh random set from the tracker) flattens that ramp.

Run:  python examples/last_piece_problem.py
"""

from repro.analysis.reporting import format_table
from repro.experiments.fig3d import mean_ttd_by_ordinal, run_fig3d
from repro.sim.config import SimConfig


def main() -> None:
    print("Last-piece problem: TTD of the final 10 blocks of a 120-piece file")
    print("(small neighbor sets, strict tit-for-tat, no NS refills)\n")

    result = run_fig3d(
        num_pieces=120,
        window=10,
        initial_leechers=50,
        max_time=500.0,
        seed=0,
    )
    print(result.format())

    normal_tail = result.ttd["normal"][-3:].mean()
    shake_tail = result.ttd["shake"][-3:].mean()
    print(f"\nmean TTD over the last 3 blocks: "
          f"normal = {normal_tail:.2f} rounds, shake = {shake_tail:.2f} rounds "
          f"({normal_tail / shake_tail:.2f}x faster with shaking)")

    # Sensitivity: earlier shaking thresholds.
    print("\nShake-threshold sensitivity (mean TTD of the last 3 blocks):")
    rows = []
    for threshold in (0.8, 0.9, 0.95):
        config = SimConfig(
            num_pieces=120, max_conns=4, ns_size=8,
            arrival_process="poisson", arrival_rate=1.0,
            initial_leechers=50, initial_distribution="uniform",
            initial_fill=0.5, num_seeds=1, seed_upload_slots=2,
            optimistic_unchoke_prob=0.5, optimistic_targets="empty",
            piece_selection="rarest", announce_interval=1000.0,
            shake_threshold=threshold, max_time=500.0, seed=1,
        )
        _ordinals, ttd, completed, _events, _profile = mean_ttd_by_ordinal(
            config, window=10
        )
        rows.append([threshold, float(ttd[-3:].mean()), completed])
    print(format_table(["threshold", "tail TTD", "completed"], rows))


if __name__ == "__main__":
    main()
