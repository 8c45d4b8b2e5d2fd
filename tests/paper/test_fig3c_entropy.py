"""Figure 3/4(c): effect of B on entropy.

Paper finding: from the same high-skew start, the entropy E collapses
toward 0 for B = 3 (the skew wins) and recovers toward 1 for B = 10
(rarest-first repairs the replication imbalance).

B = 3 is decided on one seed: its tail entropy is about 0.001 on every
seed measured, far below its 0.05 bound.  B = 10 sits near the 0.5
recovery level, and whether a rare piece recovers is a matter of chance
(Griffin et al., arXiv 1306.3160), so its verdict is the median tail
entropy over the fixed seed set 1-20.  EXPERIMENTS.md records the
measured spread.
"""

import numpy as np

from repro.analysis.reporting import ascii_chart, format_series, format_table
from repro.experiments.fig3bc import run_fig3bc
from repro.runtime.executor import ExperimentExecutor, TaskSpec
from repro.stability.experiments import (
    run_stability_experiment,
    stability_config,
)

RECOVERY_LEVEL = 0.5
ENSEMBLE_SEEDS = tuple(range(1, 21))
ENTROPY_EVERY = 4
SCALE = dict(initial_leechers=250, arrival_rate=15.0, max_time=120.0)


def tail_entropy(run) -> float:
    """Mean entropy over the final quarter of the run."""
    return float(run.entropy[-run.entropy.size // 4:].mean())


def bootstrap_median_interval(values, *, resamples=10_000, seed=0):
    """95% percentile-bootstrap interval of the median of ``values``."""
    rng = np.random.default_rng(seed)
    draws = rng.choice(values, size=(resamples, len(values)))
    low, high = np.percentile(np.median(draws, axis=1), [2.5, 97.5])
    return float(low), float(high)


def test_fig3c_entropy():
    run3 = run_fig3bc(
        piece_counts=(3,), seed=1, entropy_every=ENTROPY_EVERY, **SCALE
    ).runs[3]
    runs10 = ExperimentExecutor(workers=2).run([
        TaskSpec(
            run_stability_experiment,
            (stability_config(10, seed=seed, **SCALE),),
            {"entropy_every": ENTROPY_EVERY},
        )
        for seed in ENSEMBLE_SEEDS
    ])
    median10 = np.median([run.entropy for run in runs10], axis=0)

    print()
    print(format_series(
        "entropy (B=3, seed 1)", run3.times, run3.entropy,
        max_rows=14, x_label="t", y_label="E",
    ))
    print(format_series(
        "median entropy (B=10, seeds 1-20)", runs10[0].times, median10,
        max_rows=14, x_label="t", y_label="E",
    ))
    print()
    print(ascii_chart(
        {"B=3": run3.entropy, "B=10 median": median10},
        title="entropy over time (Figure 3/4(c))",
    ))

    tail3 = tail_entropy(run3)
    tails10 = np.array([tail_entropy(run) for run in runs10])
    median = float(np.median(tails10))
    q1, q3 = np.percentile(tails10, [25, 75])
    low, high = bootstrap_median_interval(tails10)
    print()
    print(format_table(
        ["seed", "B=10 tail entropy", f">= {RECOVERY_LEVEL}"],
        [[seed, round(tail, 3), bool(tail >= RECOVERY_LEVEL)]
         for seed, tail in zip(ENSEMBLE_SEEDS, tails10)],
    ))
    print(f"tail entropy: B=3 -> {tail3:.3f}; B=10 median {median:.3f} "
          f"[IQR {q1:.3f}-{q3:.3f}], 95% bootstrap interval "
          f"[{low:.3f}, {high:.3f}], "
          f"{int((tails10 >= RECOVERY_LEVEL).sum())}/{tails10.size} "
          f"seeds recovered")

    assert tail3 < 0.05, "B=3 entropy must collapse toward 0"
    assert not run3.entropy_recovered
    assert median >= RECOVERY_LEVEL, (
        f"B=10 median tail entropy {median:.3f} over seeds 1-20 must "
        f"reach the recovery level {RECOVERY_LEVEL}"
    )
