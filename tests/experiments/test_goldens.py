"""Golden-regression suite for the figure runners.

Each of the six experiment runners is executed at a reduced, fixed-seed
scale and its canonical JSON payload (``to_dict()`` with the
nondeterministic ``timing`` block stripped) is compared against a
checked-in fixture under ``tests/experiments/goldens/``.  Numeric
tolerances are tight (rel 1e-7): the fixtures pin the *values*, not
just the shapes, so any behavioural drift in the model, the simulator,
or the runtime shows up as a diff.

A seventh golden pins a raw swarm run — and the same fixture must be
reproduced bit-for-bit by a run with a zero-intensity
:class:`~repro.faults.plan.FaultPlan` attached, proving that wiring the
fault-injection hooks into the simulator did not perturb fault-free
behaviour.

Regenerate after an *intentional* behaviour change with::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/experiments/test_goldens.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.experiments import (
    run_fig1a,
    run_fig1b,
    run_fig2,
    run_fig3a,
    run_fig3bc,
    run_fig3d,
)
from repro.experiments.result import to_jsonable
from repro.faults import FaultPlan
from repro.sim.config import SimConfig
from repro.sim.swarm import run_swarm

GOLDEN_DIR = Path(__file__).parent / "goldens"
REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"
REL_TOL = 1e-7
ABS_TOL = 1e-9

GOLDEN_CASES = {
    "F1a": lambda: run_fig1a(
        pss_values=(5, 20), num_pieces=40, runs=8, seed=0
    ),
    "F1b": lambda: run_fig1b(
        pss_values=(30,), num_pieces=30, model_runs=6, sim_instrument=2,
        max_time=120.0, seed=0,
    ),
    "F2": lambda: run_fig2(seed=0, max_attempts=8),
    "F3a": lambda: run_fig3a(
        k_values=(1, 2), num_pieces=30, seed=0,
        sim_kwargs={"initial_leechers": 30, "arrival_rate": 2.0,
                    "max_time": 50.0, "ns_size": 15},
    ),
    "F3bc": lambda: run_fig3bc(
        piece_counts=(3, 10), initial_leechers=80, arrival_rate=6.0,
        max_time=50.0, entropy_every=4, seed=0,
    ),
    "F3d": lambda: run_fig3d(
        num_pieces=40, window=4, initial_leechers=25, max_time=200.0,
        seed=0,
    ),
}


def canonical(payload: dict) -> dict:
    """JSON round-trip of a result payload with timing stripped."""
    payload = dict(to_jsonable(payload))
    payload.pop("timing", None)
    return json.loads(json.dumps(payload, sort_keys=True))


def assert_matches(actual, expected, path="$"):
    """Recursive equality with tight float tolerance; precise paths."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected dict"
        assert sorted(actual) == sorted(expected), (
            f"{path}: keys differ: {sorted(actual)} != {sorted(expected)}"
        )
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: expected list"
        assert len(actual) == len(expected), (
            f"{path}: length {len(actual)} != {len(expected)}"
        )
        for index, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{index}]")
    elif isinstance(expected, float) and not isinstance(expected, bool):
        assert isinstance(actual, (int, float)), f"{path}: expected number"
        assert actual == pytest.approx(expected, rel=REL_TOL, abs=ABS_TOL), (
            f"{path}: {actual} != {expected}"
        )
    else:
        assert actual == expected, f"{path}: {actual!r} != {expected!r}"


def check_golden(name: str, payload: dict) -> None:
    golden_path = GOLDEN_DIR / f"{name}.json"
    actual = canonical(payload)
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(
            json.dumps(actual, sort_keys=True, indent=1) + "\n"
        )
        return
    assert golden_path.exists(), (
        f"missing golden fixture {golden_path}; regenerate with "
        f"REPRO_REGEN_GOLDENS=1"
    )
    expected = json.loads(golden_path.read_text())
    assert_matches(actual, expected)


@pytest.mark.parametrize("exp_id", sorted(GOLDEN_CASES))
def test_runner_matches_golden(exp_id):
    result = GOLDEN_CASES[exp_id]()
    check_golden(exp_id, result.to_dict())


# ----------------------------------------------------------------------
# Swarm golden + the zero-intensity fault-plan identity
# ----------------------------------------------------------------------
def _golden_swarm_config() -> SimConfig:
    return SimConfig(
        num_pieces=30,
        max_conns=3,
        ns_size=15,
        arrival_process="poisson",
        arrival_rate=2.0,
        initial_leechers=25,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=1,
        seed_upload_slots=2,
        optimistic_unchoke_prob=0.5,
        connection_setup_prob=0.8,
        connection_failure_prob=0.1,
        shake_threshold=0.9,
        max_time=40.0,
        seed=11,
    )


def _swarm_summary(faults) -> dict:
    result = run_swarm(_golden_swarm_config(), faults=faults)
    stats = result.connection_stats
    return {
        "total_rounds": result.total_rounds,
        "final_leechers": result.final_leechers,
        "final_seeds": result.final_seeds,
        "seed_uploads": result.seed_upload_count,
        "events_processed": result.events_processed,
        "population_log": [
            list(row) for row in result.metrics.population_series
        ],
        "connection_stats": dict(stats.__dict__),
        "completed": len(result.metrics.completed),
        "efficiency": result.metrics.efficiency(),
    }


def test_swarm_run_matches_golden():
    check_golden("swarm", _swarm_summary(faults=None))


def test_zero_intensity_plan_reproduces_swarm_golden_exactly():
    """A zero plan must be *bit-identical* to the fault-free golden.

    Tolerance here is exact equality, not approx: the injector draws
    from its own RNG stream and a zero plan draws nothing, so every
    float must come out identical to the fault-free fixture.
    """
    if REGEN:
        pytest.skip("fixture regenerated by the fault-free swarm test")
    golden = json.loads((GOLDEN_DIR / "swarm.json").read_text())
    summary = canonical(_swarm_summary(faults=FaultPlan()))
    assert summary == golden
