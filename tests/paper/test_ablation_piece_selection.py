"""Ablation: piece selection is the stability mechanism.

Section 6 attributes the entropy repair in the trading phase to the
protocol exchanging "the least replicated pieces ... at a faster rate
than the more replicated pieces" — i.e. to rarest-first.  This ablation
replays the high-skew stability experiment (the Figure 3/4(b,c) setup
with B = 10, which *recovers* under rarest-first) with each
piece-selection policy:

* ``rarest`` — noisy per-view rarest-first (realistic);
* ``strict-rarest`` — idealised shared-view argmin;
* ``random`` — the paper's random-piece-first.

Expected: both rarest variants repair the skew (bounded population,
entropy well off zero); random selection cannot create the repair
drift, so even B = 10 diverges like the paper's B = 3.
"""

from repro.analysis.reporting import format_table
from repro.stability.experiments import (
    run_stability_experiment,
    stability_config,
)

POLICIES = ("rarest", "strict-rarest", "random")


def run_policy(policy: str):
    config = stability_config(
        10,
        arrival_rate=15.0,
        initial_leechers=250,
        max_time=100.0,
        seed=2,
    ).with_changes(piece_selection=policy)
    run = run_stability_experiment(config, entropy_every=4)
    return {
        "policy": policy,
        "final_population": run.final_population(),
        "tail_entropy": float(run.entropy[-10:].mean()),
        "diverged": run.diverged,
    }


def test_ablation_piece_selection():
    rows = [run_policy(p) for p in POLICIES]
    print()
    print(format_table(
        ["policy", "final peers", "tail entropy", "outcome"],
        [[r["policy"], r["final_population"], round(r["tail_entropy"], 3),
          "DIVERGED" if r["diverged"] else "bounded"] for r in rows],
    ))

    by_policy = {r["policy"]: r for r in rows}
    # Rarest-first (either view) repairs the skew at B = 10...
    assert not by_policy["rarest"]["diverged"]
    assert by_policy["rarest"]["tail_entropy"] > 0.3
    assert not by_policy["strict-rarest"]["diverged"]
    # ...random selection cannot, and the swarm diverges like B = 3.
    assert by_policy["random"]["diverged"]
    assert by_policy["random"]["tail_entropy"] < 0.05
