"""Checkpoint directories and the resume-or-run entry point.

:class:`CheckpointStore` maps stable task keys to ``.ckpt`` files in a
directory.  Keys are chosen by the *caller* (the runtime uses
``"{batch}-{index}"``), so a relaunched process — even after SIGKILL —
derives the same filename for the same task and finds its latest
snapshot without any registry or manifest.

:func:`run_swarm_with_checkpoints` is the single code path experiment
functions use: given a checkpoint path, it resumes when a valid
snapshot exists and starts fresh (writing snapshots as it goes)
otherwise.  Experiment task functions stay oblivious to which case
occurred beyond the result's ``resumed_from_round`` field.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.checkpoint.format import read_checkpoint
from repro.checkpoint.schema import restore_swarm
from repro.errors import CheckpointError
from repro.sim.config import SimConfig

__all__ = ["CheckpointStore", "run_swarm_with_checkpoints"]

_KEY_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")

#: Filename suffix for checkpoint files in a store directory.
CKPT_SUFFIX = ".ckpt"


class CheckpointStore:
    """A directory of checkpoints addressed by stable task keys."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def path_for(self, key: str) -> Path:
        """The checkpoint file for ``key`` (stable across processes)."""
        if not _KEY_RE.match(key):
            raise CheckpointError(
                f"invalid checkpoint key {key!r}: keys must be non-empty "
                f"and use only letters, digits, '.', '_', '-'"
            )
        return self.directory / f"{key}{CKPT_SUFFIX}"

    def exists(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def keys(self) -> Iterator[str]:
        """Keys of every checkpoint currently in the directory."""
        if not self.directory.is_dir():
            return
        for path in sorted(self.directory.glob(f"*{CKPT_SUFFIX}")):
            yield path.name[: -len(CKPT_SUFFIX)]

    def clear(self) -> int:
        """Delete every checkpoint (fresh-start semantics); returns count.

        Stray ``.tmp.<pid>`` files from killed writers are swept too.
        """
        removed = 0
        if not self.directory.is_dir():
            return removed
        for path in self.directory.glob(f"*{CKPT_SUFFIX}"):
            path.unlink()
            removed += 1
        for path in self.directory.glob(f"*{CKPT_SUFFIX}.tmp.*"):
            path.unlink()
        return removed


def run_swarm_with_checkpoints(
    config: SimConfig,
    *,
    checkpoint_path: Optional[Union[str, Path]] = None,
    checkpoint_every: int = 0,
    **swarm_kwargs,
):
    """Run (or resume) a swarm with periodic round-boundary snapshots.

    When ``checkpoint_path`` names an existing file, the run resumes
    from that snapshot — the simulation-defining options embedded in it
    win over ``config``/``swarm_kwargs``, which is what makes a retried
    task continue the *original* trajectory rather than start a subtly
    different one.  Otherwise a fresh swarm runs, writing a snapshot
    every ``checkpoint_every`` rounds.

    A corrupt or truncated checkpoint (a crash can never cause one — the
    writer is atomic — but disks happen) raises
    :class:`~repro.errors.CheckpointError` rather than silently
    restarting, so callers decide whether to clear and rerun.

    Returns:
        The :class:`~repro.sim.swarm.SwarmResult`; inspect
        ``result.resumed_from_round`` to learn which case ran.
    """
    from repro.sim.swarm import Swarm

    if checkpoint_path is not None and Path(checkpoint_path).is_file():
        document = read_checkpoint(checkpoint_path)
        # Only run-control options pass through on resume; everything
        # simulation-defining (metrics, faults, instrumentation) comes
        # from the snapshot — a resumed run must continue the original
        # trajectory, not a freshly-parameterised one.  A sharded
        # snapshot, or any snapshot resumed with ``backend="sharded"``,
        # additionally honours ``shards`` (elastic re-sharding
        # repartitions the checkpoint onto the new worker count).
        sharded = "sharded" in (
            document.get("backend"), swarm_kwargs.get("backend")
        )
        allowed = ("profile", "shards") if sharded else ("profile",)
        control = {
            key: value
            for key, value in swarm_kwargs.items()
            if key in allowed
        }
        swarm = restore_swarm(
            document,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            **control,
        )
        if swarm.config != config:
            raise CheckpointError(
                f"checkpoint {checkpoint_path} was taken for a different "
                f"configuration; refusing to resume a mismatched run"
            )
        return swarm.run()

    swarm = Swarm(
        config,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        **swarm_kwargs,
    )
    return swarm.run()
