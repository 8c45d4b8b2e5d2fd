"""Figure 3/4(b): effect of B on successful downloads (population curve).

Paper finding: from a high-skew start under a sustained arrival stream,
the swarm population grows without bound for B = 3 but stabilises for
B = 10.
"""

from repro.analysis.reporting import ascii_chart, format_series
from repro.experiments.fig3bc import run_fig3bc


def test_fig3b_population():
    result = run_fig3bc(
        piece_counts=(3, 10),
        initial_leechers=250,
        arrival_rate=15.0,
        max_time=120.0,
        seed=0,
        entropy_every=4,
    )
    print()
    for num_pieces in (3, 10):
        run = result.runs[num_pieces]
        print(format_series(
            f"# of peers (B={num_pieces})", run.times, run.population,
            max_rows=14, x_label="t", y_label="peers",
        ))
    print()
    print(ascii_chart(
        {f"B={b}": result.runs[b].population for b in (3, 10)},
        title="population over time (Figure 3/4(b))",
    ))

    run3, run10 = result.runs[3], result.runs[10]
    assert run3.diverged, "B=3 population must grow without bound"
    assert not run10.diverged, "B=10 population must stay bounded"

    # The B=3 curve grows roughly monotonically (smoothed halves).
    half = run3.population.size // 2
    assert run3.population[half:].mean() > run3.population[:half].mean()

    # The B=10 population stays within a few x of its starting level.
    start = 250 + 1
    assert run10.population.max() < 3 * start
