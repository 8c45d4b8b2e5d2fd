"""Figure 3/4(d): shaking the peer set vs the last-piece problem.

Paper finding: re-randomising the neighbor set at 90% completion
("shaking") sharply reduces the time-to-download of the last blocks.
"""

from repro.experiments.fig3d import run_fig3d


def test_fig3d_shake():
    result = run_fig3d(
        num_pieces=120,
        window=10,
        initial_leechers=50,
        arrival_rate=1.0,
        max_time=500.0,
        seed=0,
    )
    print()
    print(result.format())

    normal = result.ttd["normal"]
    shake = result.ttd["shake"]

    # The last-piece problem exists: normal TTD grows toward the end.
    assert normal[-1] > 1.5 * normal[0], (
        "normal protocol must show a TTD ramp on the final blocks"
    )
    # Shaking flattens the tail (the figure's headline contrast).
    assert shake[-1] < normal[-1], "shaking must reduce the last-block TTD"
    tail_gain = normal[-3:].mean() / shake[-3:].mean()
    print(f"tail TTD ratio normal/shake = {tail_gain:.2f}x")
    assert tail_gain > 1.1

    assert result.completed["normal"] > 20
    assert result.completed["shake"] > 20
