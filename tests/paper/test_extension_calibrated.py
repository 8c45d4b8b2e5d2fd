"""Extension: the calibrated model loop (measured p_r into the model).

The paper defines ``p_r`` and ``p_n`` as system averages; this test
measures them from the simulator per k, feeds the measured ``p_r(k)``
back into the Section-5 balance equations, and checks the calibrated
model against the directly measured efficiency — plus the lifetime
model's prediction that ``p_r`` rises with k.
"""

from repro.analysis.reporting import format_table
from repro.efficiency.measurement import calibrated_efficiency_curve

K_VALUES = (1, 2, 4, 8)


def test_extension_calibrated():
    points = calibrated_efficiency_curve(K_VALUES, seed=0)
    print()
    print(format_table(
        ["k", "measured p_r", "measured p_n", "sim eta", "calibrated model eta"],
        [
            [p.max_conns, round(p.p_reenc, 3), round(p.p_new, 3),
             round(p.sim_eta, 3), round(p.model_eta, 3)]
            for p in points
        ],
    ))

    # The lifetime mechanism, observed: connection survival rises with k.
    survivals = [p.p_reenc for p in points]
    assert survivals[-1] > survivals[0] + 0.05, (
        "measured p_r(k) must rise with k (connections last longer)"
    )

    # The calibrated model tracks the simulation at every k.
    for point in points:
        assert abs(point.model_eta - point.sim_eta) < 0.12, point
