"""Ablation: connection-formation discipline (blind vs. greedy).

The model's formation rate carries the factor ``(1 - x_k)``: an attempt
succeeds only if the blindly contacted partner has an open slot.  The
``greedy`` discipline is the idealised matchmaker (retry candidates
until an open one accepts) — an upper bound that removes that friction.
This test quantifies how much of the simulated inefficiency is
decentralised matching friction, per k.
"""

from repro.analysis.reporting import format_table
from repro.sim.config import SimConfig
from repro.sim.metrics import MetricsCollector
from repro.sim.swarm import Swarm

K_VALUES = (1, 2, 4)


def run_matching(matching: str, k: int) -> float:
    config = SimConfig(
        num_pieces=60, max_conns=k, ns_size=30,
        arrival_process="poisson", arrival_rate=4.0,
        initial_leechers=80, initial_distribution="uniform",
        initial_fill=0.5, num_seeds=1, seed_upload_slots=2,
        optimistic_unchoke_prob=0.5, piece_selection="rarest",
        connection_setup_prob=0.8, connection_failure_prob=0.1,
        matching=matching, max_time=100.0, seed=10 + k,
    )
    metrics = MetricsCollector(k, entropy_every=1_000_000)
    Swarm(config, metrics=metrics).run()
    return metrics.efficiency()


def test_ablation_matching():
    etas = {
        matching: [run_matching(matching, k) for k in K_VALUES]
        for matching in ("blind", "greedy")
    }
    print()
    print(format_table(
        ["k", "blind eta", "greedy eta", "friction cost"],
        [
            [k, round(etas["blind"][i], 3), round(etas["greedy"][i], 3),
             round(etas["greedy"][i] - etas["blind"][i], 3)]
            for i, k in enumerate(K_VALUES)
        ],
    ))

    # The idealised matchmaker upper-bounds the decentralised protocol.
    for i in range(len(K_VALUES)):
        assert etas["greedy"][i] >= etas["blind"][i] - 0.03

    # The friction is largest at k = 1 (one busy candidate idles the
    # whole peer) — the mechanism behind the Figure 3/4(a) jump.
    blind = etas["blind"]
    assert blind[1] > blind[0], "blind matching must improve from k=1 to 2"
