"""Figure 3/4(a): efficiency vs maximum connections, model vs simulation.

Paper finding: efficiency rises sharply from k = 1 to k = 2 and gains
little beyond; the balance-equation model upper-bounds the simulation.
"""

from repro.analysis.reporting import format_checks
from repro.analysis.validation import efficiency_shape
from repro.experiments.fig3a import run_fig3a


def test_fig3a_efficiency():
    result = run_fig3a(
        k_values=tuple(range(1, 9)),
        num_pieces=60,
        seed=0,
        sim_kwargs={
            "ns_size": 30,
            "initial_leechers": 80,
            "arrival_rate": 4.0,
            "max_time": 120.0,
        },
    )
    print()
    print(result.format())

    model_checks = efficiency_shape(result.k_values, result.model_eta)
    print(format_checks("model efficiency shape", model_checks))
    assert model_checks["first_gain_positive"], model_checks
    assert model_checks["first_gain_dominates"], model_checks
    assert model_checks["plateau_after_two"], model_checks

    # Simulation: the k=1 -> 2 jump exists and later ks stay in a band.
    sim = result.sim_eta
    assert sim[1] > sim[0] + 0.03, "sim efficiency must jump from k=1 to k=2"
    assert sim[2:].max() - sim[2:].min() < 0.2, "sim efficiency plateaus"

    # Model upper-bounds the simulation (small tolerance for noise).
    assert (result.model_eta >= result.sim_eta - 0.05).all()
