"""Figure 2: the three download-evolution archetypes.

Regenerates the smooth / significant-last-phase / significant-bootstrap
instances from simulated swarms and prints both series each panel plots
(cumulative bytes and potential-set size over time).
"""

from repro.experiments.fig2 import run_fig2
from repro.traces.analysis import phase_segments


def test_fig2_traces():
    result = run_fig2(seed=0)
    print()
    print(result.format())

    # Each archetype classifies as itself.
    assert result.labels == {
        "smooth": "smooth",
        "last": "last",
        "bootstrap": "bootstrap",
    }

    # Panel-specific signatures.
    smooth = result.traces["smooth"]
    assert smooth.is_complete
    assert min(smooth.potential_series()[3:]) >= 1, (
        "smooth download keeps a non-empty potential set"
    )

    last = result.traces["last"]
    last_segments = phase_segments(last)
    assert last_segments.last > 0, "last-phase archetype has a visible tail"

    bootstrap = result.traces["bootstrap"]
    leading = [s for s in bootstrap.samples[:8]]
    assert all(s.potential_set_size == 0 for s in leading), (
        "bootstrap archetype starts with an empty potential set"
    )
