#!/usr/bin/env python
"""Measurement pipeline: instrumented clients, trace files, swarm filter.

Mirrors the paper's Section-4.2 methodology end to end:

1. run swarms with an instrumented client (optionally refusing all seed
   interaction, as the paper's modified BitTornado did);
2. apply the tracker-statistics swarm filter (keep stable swarms, drop
   flash crowds and dying swarms);
3. persist the collected traces as JSON-lines and read them back;
4. segment each trace into the three phases and print a summary table.

Run:  python examples/trace_pipeline.py
"""

import tempfile
from pathlib import Path

from repro.analysis.reporting import format_table
from repro.sim.config import SimConfig
from repro.sim.swarm import Swarm
from repro.traces.analysis import classify_swarm, summarize_trace
from repro.traces.collector import trace_from_peer
from repro.traces.io import read_trace_jsonl, write_trace_jsonl

SWARM_SETUPS = {
    "stable-swarm": dict(arrival_rate=1.5, initial_leechers=25),
    "flash-crowd": dict(arrival_rate=8.0, initial_leechers=2),
    "dying-swarm": dict(arrival_process="none", initial_leechers=40),
}


def run_and_collect(name: str, overrides: dict):
    config = SimConfig(
        num_pieces=50,
        max_conns=5,
        ns_size=25,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=1,
        seed_upload_slots=2,
        optimistic_unchoke_prob=0.5,
        piece_selection="rarest",
        max_time=150.0,
        seed=11,
        **overrides,
    )
    swarm = Swarm(config, instrument_first=2, instrumented_avoid_seeds=True)
    result = swarm.run()
    traces = [
        trace_from_peer(peer, swarm_id=name,
                        num_pieces=config.num_pieces,
                        piece_size_bytes=config.piece_size_bytes)
        for peer in result.instrumented
    ]
    verdict = classify_swarm(
        result.metrics.population_series, resolution=15.0
    )
    return traces, verdict


def main() -> None:
    print("Swarm selection (the paper: keep stable swarms only):")
    kept = []
    for name, overrides in SWARM_SETUPS.items():
        traces, verdict = run_and_collect(name, overrides)
        keep = verdict == "stable"
        print(f"  {name:<14} tracker-statistics verdict: {verdict:<12}"
              f"{'KEEP' if keep else 'DROP'}")
        if keep:
            kept.extend(traces)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traces.jsonl"
        write_trace_jsonl(kept, path)
        loaded = read_trace_jsonl(path)
        print(f"\nwrote and re-read {len(loaded)} traces "
              f"({path.stat().st_size} bytes on disk)")

    print("\nPer-trace phase summary:")
    rows = []
    for trace in kept:
        summary = summarize_trace(trace)
        rows.append([
            summary["client_id"],
            f"{summary['pieces']}/{summary['num_pieces']}",
            summary["dominant_phase"],
            round(summary["bootstrap_time"], 1),
            round(summary["efficient_time"], 1),
            round(summary["last_time"], 1),
        ])
    print(format_table(
        ["client", "pieces", "label", "bootstrap", "efficient", "last"],
        rows,
    ))


if __name__ == "__main__":
    main()
