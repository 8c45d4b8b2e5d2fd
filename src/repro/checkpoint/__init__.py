"""Deterministic checkpoint/resume for swarm simulations.

The subsystem has four layers (see ``docs/CHECKPOINT.md``):

* :mod:`repro.checkpoint.format` — the on-disk container (magic,
  version, CRC32, atomic write-rename);
* :mod:`repro.checkpoint.schema` — snapshot schema v4: full simulation
  state at a round boundary (RNG streams, engine queue, peers, tracker,
  potential-set cache, metrics, fault injector);
* :mod:`repro.checkpoint.store` — checkpoint directories keyed by
  stable task names, plus the resume-or-run entry point experiment
  functions call;
* :mod:`repro.checkpoint.fingerprint` — the SHA-256 result fingerprint
  the replay-equivalence guarantee is stated in.

The guarantee: a run resumed from *any* round-boundary snapshot yields
a :class:`~repro.sim.swarm.SwarmResult` whose fingerprint equals the
uninterrupted run's, with or without an active fault plan.
"""

from repro.checkpoint.fingerprint import result_fingerprint, result_summary
from repro.checkpoint.format import (
    CHECKPOINT_MAGIC,
    CONTAINER_VERSION,
    read_checkpoint,
    write_checkpoint,
)
from repro.checkpoint.schema import (
    SCHEMA_VERSION,
    restore_swarm,
    snapshot_swarm,
)
from repro.checkpoint.store import CheckpointStore, run_swarm_with_checkpoints

__all__ = [
    "CHECKPOINT_MAGIC",
    "CONTAINER_VERSION",
    "SCHEMA_VERSION",
    "CheckpointStore",
    "read_checkpoint",
    "restore_swarm",
    "result_fingerprint",
    "result_summary",
    "run_swarm_with_checkpoints",
    "snapshot_swarm",
    "write_checkpoint",
]
