"""A dropped swarm is freed by reference counting alone.

The event engine holds its owner's bound-method handlers weakly, so a
swarm is no reference cycle: with the cyclic garbage collector off,
``del swarm`` frees it, and a dropped 100k-peer swarm does not stay
resident until the next collection.
"""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.sim.config import SimConfig
from repro.sim.swarm import Swarm


def _config() -> SimConfig:
    return SimConfig(
        num_pieces=20,
        max_conns=3,
        ns_size=10,
        arrival_process="poisson",
        arrival_rate=1.5,
        initial_leechers=15,
        initial_distribution="uniform",
        initial_fill=0.5,
        num_seeds=1,
        shake_threshold=0.9,
        max_time=20.0,
        seed=5,
    )


_PLAN = FaultPlan(churn_hazard=0.02, connection_break_prob=0.05)

SWARMS = {
    "soa": lambda: Swarm(_config(), backend="soa"),
    "soa-profile": lambda: Swarm(_config(), backend="soa", profile=True),
    "soa-faults": lambda: Swarm(_config(), backend="soa", faults=_PLAN),
    "object": lambda: Swarm(_config()),
}


@pytest.fixture
def no_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _stepped(kind: str):
    swarm = SWARMS[kind]()
    swarm.setup()
    for _ in range(8):
        swarm.engine.step()
    return swarm


@pytest.mark.parametrize("kind", sorted(SWARMS))
def test_dropped_swarm_is_freed_without_the_cycle_collector(
    kind, no_cycle_collector
):
    swarm = _stepped(kind)
    alive = weakref.ref(swarm)
    del swarm
    assert alive() is None


def test_engine_outliving_its_swarm_fails_loudly(no_cycle_collector):
    engine = _stepped("soa").engine
    with pytest.raises(SimulationError, match="garbage collected"):
        engine.step()
