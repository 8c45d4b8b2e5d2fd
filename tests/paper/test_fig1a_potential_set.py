"""Figure 1(a): potential-set ratio vs pieces downloaded (model, PSS sweep).

Paper setting: B = 200, PSS in {5, 10, 25, 40}.  Expected shape: the
normalised potential-set size rises from ~0.5, plateaus near 1 around
mid-download, and declines toward the end; small peer sets track lower.
"""

import numpy as np

from repro.analysis.reporting import format_checks
from repro.analysis.validation import potential_ratio_shape
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

    # Small peer sets visit emptiness (bootstrap / last phases occur).
    small = result.ratios[5]
    finite = small[np.isfinite(small)]
    assert finite.min() < 0.3, "PSS=5 should visit near-empty potential sets"
