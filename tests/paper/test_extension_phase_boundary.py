"""Extension: the stability phase boundary (critical B vs. arrival rate).

The paper's conclusion — "the stability of [the] BitTorrent protocol
depends heavily on the number of pieces a file is divided into and the
arrival rate of clients" — stated as a measurable boundary: for each
arrival rate, the minimal B at which the high-skew swarm recovers.
The boundary must rise with load; the first-order drift model tracks it
at low-to-moderate load.
"""

from repro.stability.critical import phase_boundary

RATES = (5.0, 12.0, 20.0)


def test_extension_phase_boundary():
    boundary = phase_boundary(
        RATES, initial_leechers=120, max_time=70.0, seed=0
    )
    print()
    print(boundary.format())

    criticals = [p.critical_b_sim for p in boundary.points]
    # The boundary rises (weakly) with the offered load.
    assert criticals == sorted(criticals), (
        "critical B must not decrease with arrival rate"
    )
    assert criticals[-1] > criticals[0], (
        "higher load must demand strictly more pieces for stability"
    )
    # The paper's B = 3 sits on the unstable side everywhere...
    assert all(c > 3 for c in criticals)
    # ...and B = 10 on the stable side at the Figure 3/4(b,c)-like loads.
    assert criticals[0] <= 10
