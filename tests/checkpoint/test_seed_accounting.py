"""Seed accounting: a resumed run consumes *zero* extra RNG draws.

The PR-2 runtime re-derives a task's seed per attempt so retried tasks
explore fresh streams.  Checkpointable tasks must do the opposite —
resume the *original* stream — or a resume would silently fork the
trajectory.  Pinned here from both ends:

* simulator end: the final ``bit_generator`` state of a resumed run
  equals the uninterrupted run's, for the swarm stream *and* the fault
  injector's isolated stream — the resume consumed exactly the draws
  the uninterrupted run would have, no more, no fewer;
* runtime end: ``TaskSpec.for_attempt`` leaves checkpointable tasks'
  seeds untouched on retries, while non-checkpointable tasks still get
  the PR-2 per-attempt re-derivation.
"""

import numpy as np
import pytest

from ckpt_helpers import replay_config, replay_fault_plan, run_to_round
from repro.checkpoint.format import dumps_payload, loads_payload
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.runtime.executor import _ATTEMPT_SALT, TaskSpec
from repro.runtime.seeding import derive_seed
from repro.sim.swarm import Swarm, run_swarm


def _final_states(swarm: Swarm) -> tuple:
    injector = swarm.fault_injector
    return (
        swarm.rng.bit_generator.state,
        None if injector is None else injector.rng.bit_generator.state,
    )


@pytest.mark.parametrize("with_faults", [False, True])
@pytest.mark.parametrize("snapshot_round", [1, 9, 20])
def test_resumed_run_ends_on_identical_rng_states(with_faults, snapshot_round):
    faults = replay_fault_plan() if with_faults else None
    config = replay_config()

    uninterrupted = Swarm(config, faults=faults)
    uninterrupted.run()

    partial = run_to_round(config, snapshot_round, faults=faults)
    document = loads_payload(dumps_payload(partial.snapshot()))
    resumed = Swarm.resume(document)
    resumed.run()

    assert _final_states(resumed) == _final_states(uninterrupted)


def test_restore_does_not_advance_rng_before_run():
    """Restoring alone must not draw: state out == state in."""
    partial = run_to_round(replay_config(), 7)
    state_at_snapshot = partial.rng.bit_generator.state
    document = loads_payload(dumps_payload(partial.snapshot()))
    resumed = Swarm.resume(document)
    assert resumed.rng.bit_generator.state == state_at_snapshot


class TestBatchedMaskDrawAccounting:
    """The vectorized fault masks keep the stream-consumption contract.

    A zero-probability plan must return all-false masks *without*
    consuming any RNG draws (the zero-intensity bit-identity
    guarantee); a non-zero plan must consume exactly one batched
    ``random(count)`` — the same stream positions as ``count``
    sequential scalar draws.
    """

    MASKS = ("churn_mask", "break_mask", "handshake_mask", "shake_mask")

    def test_zero_probability_masks_consume_no_draws(self):
        injector = FaultInjector(FaultPlan(), 3)
        before = injector.rng.bit_generator.state
        for name in self.MASKS:
            mask = getattr(injector, name)(17)
            assert mask.shape == (17,) and not mask.any()
        assert injector.rng.bit_generator.state == before
        assert injector.stats.total() == 0

    def test_nonzero_masks_consume_exactly_one_batched_draw(self):
        plan = FaultPlan(
            churn_hazard=0.4,
            connection_break_prob=0.4,
            handshake_failure_prob=0.4,
            shake_failure_prob=0.4,
        )
        injector = FaultInjector(plan, 3)
        reference = np.random.default_rng()
        reference.bit_generator.state = injector.rng.bit_generator.state
        for name in self.MASKS:
            expected = reference.random(17) < 0.4
            np.testing.assert_array_equal(
                getattr(injector, name)(17), expected
            )
        assert (
            injector.rng.bit_generator.state
            == reference.bit_generator.state
        )

    def test_empty_count_masks_consume_no_draws(self):
        plan = FaultPlan(churn_hazard=0.5)
        injector = FaultInjector(plan, 3)
        before = injector.rng.bit_generator.state
        assert injector.churn_mask(0).size == 0
        assert injector.rng.bit_generator.state == before

    @pytest.mark.parametrize("backend", ["object", "soa"])
    def test_zero_intensity_plan_is_bit_identical_to_no_plan(self, backend):
        """``plan.scaled(0)`` and ``faults=None`` share one trajectory.

        The deterministic outputs must match bit for bit apart from the
        ``fault_stats`` presence marker (None without a plan, all-zero
        counters with one) — the injector fired nothing and, thanks to
        the zero-probability gating, drew nothing.
        """
        from repro.checkpoint.fingerprint import result_summary

        config = replay_config()
        plan = replay_fault_plan().scaled(0.0)
        assert not plan.outages  # outages would perturb announces
        plain = result_summary(run_swarm(config, backend=backend))
        faulted_result = run_swarm(config, faults=plan, backend=backend)
        faulted = result_summary(faulted_result)
        assert faulted_result.fault_stats.total() == 0
        assert plain.pop("fault_stats") is None
        assert faulted.pop("fault_stats") is not None
        assert faulted == plain


class TestForAttemptExemption:
    def test_checkpointable_task_keeps_seed_on_retry(self):
        spec = TaskSpec(
            divmod, (7, 3), seed_index=0, checkpoint_interval=5
        )
        assert spec.for_attempt(2) is spec
        assert spec.for_attempt(5) is spec

    def test_non_checkpointable_task_still_reseeds(self):
        spec = TaskSpec(divmod, (7, 3), seed_index=0)
        retried = spec.for_attempt(2)
        assert retried is not spec
        assert retried.args[0] == derive_seed(7, _ATTEMPT_SALT, 2)

    def test_first_attempt_is_identity_either_way(self):
        for interval in (0, 5):
            spec = TaskSpec(
                divmod, (7, 3), seed_index=0, checkpoint_interval=interval
            )
            assert spec.for_attempt(1) is spec
