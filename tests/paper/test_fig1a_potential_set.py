"""Figure 1(a): potential-set ratio vs pieces downloaded (model, PSS sweep).

Paper setting: B = 200, PSS in {5, 10, 25, 40}.  Expected shape: the
normalised potential-set size rises from ~0.5, plateaus near 1 around
mid-download, and declines toward the end; small peer sets track lower.
"""

from repro.analysis.reporting import format_checks
from repro.analysis.validation import potential_ratio_shape
from repro.api import solve
from repro.core.phases import Phase
from repro.experiments.fig1a import run_fig1a


def test_fig1a_potential_set():
    result = run_fig1a(
        pss_values=(5, 10, 25, 40), num_pieces=120, runs=24, seed=0
    )
    print()
    print(result.format())

    # Shape assertions on the largest peer set (the paper: "the model
    # validates the results with a high accuracy for higher values of
    # the peer set size").
    checks = potential_ratio_shape(result.pieces, result.ratios[40])
    print(format_checks("Figure 1(a) shape [PSS=40]", checks))
    assert checks["mid_high"], checks
    assert checks["rises_from_start"], checks
    assert checks["falls_to_end"], checks

    # Small peer sets visit emptiness: the bootstrap and last phases
    # occur.  Exact expected rounds per phase (fundamental-matrix solve,
    # no sampling) at this scale:
    #
    #   PSS   bootstrap  efficient  last
    #     5     2.414     36.69     3.3e-2
    #    10     2.023     25.06     2.5e-4
    #    25     2.000     24.72     7.8e-9
    #    40     2.000     24.71     2.7e-13
    #
    # The PSS = 5 bounds sit at about half its measured gap to PSS = 40;
    # the last-phase rounds fall at least tenfold per PSS step (measured
    # 130-fold or more).
    rounds = {
        pss: solve(result.params[pss], "phases", "exact").payload.mean
        for pss in result.params
    }
    print({pss: {p.name: round(v, 4) for p, v in r.items()}
           for pss, r in rounds.items()})
    small, large = rounds[5], rounds[40]
    assert small[Phase.BOOTSTRAP] > large[Phase.BOOTSTRAP] + 0.2
    assert small[Phase.LAST] > 0.015 > 1e-3 > large[Phase.LAST]
    assert small[Phase.EFFICIENT] > 1.25 * large[Phase.EFFICIENT]
    last = [rounds[pss][Phase.LAST] for pss in sorted(rounds)]
    assert all(a > 10 * b for a, b in zip(last, last[1:])), last
