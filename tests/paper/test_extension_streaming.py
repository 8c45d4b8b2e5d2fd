"""Extension: streaming over the swarm (the related work [1]).

The paper summarises Arthur & Panigrahy [1]: BitTorrent "can be
effective for streaming content provided proper upload scheduling
policies are used".  This test makes that claim concrete as a 2x2 of
piece-selection policy x reciprocity regime, measuring the minimal
stall-free startup delay of in-order playback:

* strict piece barter (the paper's TFT assumption): strictly in-order
  selection destroys mutual novelty — arriving peers never finish —
  while rarest-first both sustains the swarm and streams acceptably;
* bandwidth-style reciprocity (strict_tft off): the windowed in-order
  policy now beats rarest-first on startup delay at comparable
  throughput — the "proper upload scheduling" of [1].
"""

from repro.analysis.reporting import format_table
from repro.analysis.streaming import swarm_streaming_summary
from repro.sim.config import SimConfig
from repro.sim.swarm import run_swarm

NUM_PIECES = 40
PLAYBACK_INTERVAL = 0.5


def measure(policy: str, strict: bool):
    config = SimConfig(
        num_pieces=NUM_PIECES, max_conns=2, ns_size=20,
        arrival_process="poisson", arrival_rate=1.5,
        initial_leechers=30, initial_distribution="uniform",
        initial_fill=0.5, num_seeds=1, seed_upload_slots=2,
        piece_selection=policy, strict_tft=strict,
        max_time=120.0, seed=2,
    )
    result = run_swarm(config)
    summary = swarm_streaming_summary(
        result.metrics.completed, NUM_PIECES,
        playback_interval=PLAYBACK_INTERVAL,
    )
    summary["completed"] = len(result.metrics.completed)
    summary["policy"] = policy
    summary["strict"] = strict
    return summary


def test_extension_streaming():
    rows = []
    for strict in (True, False):
        for policy in ("rarest", "windowed", "sequential"):
            rows.append(measure(policy, strict))
    print()
    print(format_table(
        ["reciprocity", "policy", "completed", "full downloads",
         "mean startup", "p90 startup"],
        [
            ["strict barter" if r["strict"] else "bandwidth-style",
             r["policy"], r["completed"], int(r["downloads"]),
             round(r["mean_startup_delay"], 1),
             round(r["p90_startup_delay"], 1)]
            for r in rows
        ],
    ))

    by_key = {(r["strict"], r["policy"]): r for r in rows}
    # Strict barter: in-order selection starves the swarm outright.
    assert by_key[(True, "sequential")]["downloads"] == 0
    assert by_key[(True, "rarest")]["downloads"] > 20
    # Bandwidth-style reciprocity: the windowed policy streams better.
    windowed = by_key[(False, "windowed")]
    rarest = by_key[(False, "rarest")]
    assert windowed["downloads"] > 20
    assert windowed["mean_startup_delay"] < rarest["mean_startup_delay"]
    # ...without giving up most of the throughput.
    assert windowed["completed"] > 0.6 * rarest["completed"]
