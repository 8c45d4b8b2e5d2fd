"""Deterministic fingerprints over :class:`~repro.sim.swarm.SwarmResult`.

The replay-equivalence guarantee is stated in terms of this hash: a run
resumed from any round-boundary snapshot must produce the *same
fingerprint* as the uninterrupted run.  The fingerprint covers every
simulation-determined output — series, counters, per-peer stats — and
deliberately excludes everything wall-clock- or resume-dependent
(``wall_time``, ``round_profile``, ``resumed_from_round``,
``checkpoints_written``), which legitimately differ between an
interrupted and an uninterrupted execution of the *same* trajectory.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.metrics import (
    COMPLETION_COLUMNS,
    CompletionTable,
    phase_timeline,
)
from repro.sim.peer import PeerStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.swarm import SwarmResult

__all__ = ["result_summary", "result_fingerprint"]


def _num(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _seq(series) -> list:
    return [[_num(x) for x in row] for row in series]


def _stats_summary(stats: PeerStats) -> dict:
    return {
        "joined_at": _num(stats.joined_at),
        "completed_at": _num(stats.completed_at),
        "piece_times": [_num(t) for t in stats.piece_times],
        "piece_log": _seq(stats.piece_log),
        "potential_series": _seq(stats.potential_series),
        "connection_series": _seq(stats.connection_series),
        "shaken_at": _num(stats.shaken_at),
    }


def _completed_summary(table: CompletionTable) -> list:
    """One dict per completion-table row, read from the columns.  A row
    without stats summarizes the compressed timeline its
    :class:`~repro.sim.metrics.CompletedDownload` record would carry."""
    stats = table.stats
    rows = []
    for index, (
        peer_id, joined, completed, first, prelast, shaken_at, shaken,
        capacity,
    ) in enumerate(zip(*(
        table.column(name).tolist() for name, _ in COMPLETION_COLUMNS
    ))):
        if stats:
            stats_summary = _stats_summary(stats[index])
        else:
            stats_summary = {
                "joined_at": joined,
                "completed_at": completed,
                "piece_times": phase_timeline(first, prelast, completed),
                "piece_log": [],
                "potential_series": [],
                "connection_series": [],
                "shaken_at": None if math.isnan(shaken_at) else shaken_at,
            }
        rows.append({
            "peer_id": peer_id,
            "joined_at": joined,
            "completed_at": completed,
            "shaken": shaken,
            "upload_capacity": capacity if capacity >= 0 else None,
            "stats": stats_summary,
        })
    return rows


def result_summary(result: "SwarmResult") -> dict:
    """Canonical JSON-ready summary of every deterministic output."""
    metrics = result.metrics
    return {
        "config": result.config.to_dict(),
        "total_rounds": result.total_rounds,
        "final_leechers": result.final_leechers,
        "final_seeds": result.final_seeds,
        # The population series hashed a second time under this key
        # keeps every pinned fingerprint golden valid.
        "tracker_population_log": _seq(metrics.population_series),
        "connection_stats": {
            "survived": result.connection_stats.survived,
            "dropped": result.connection_stats.dropped,
            "attempts": result.connection_stats.attempts,
            "formed": result.connection_stats.formed,
        },
        "seed_upload_count": result.seed_upload_count,
        "events_processed": result.events_processed,
        "metrics": {
            "population_series": _seq(metrics.population_series),
            "entropy_series": _seq(metrics.entropy_series),
            "aborted": _seq(metrics.aborted),
            "rounds_observed": metrics.rounds_observed,
            "occupancy_sums": [float(v) for v in metrics._occupancy_sums],
            "occupancy_rounds": metrics._occupancy_rounds,
            "completed": _completed_summary(metrics.completions),
        },
        "instrumented": [
            {"peer_id": p.peer_id, "stats": _stats_summary(p.stats)}
            for p in result.instrumented
        ],
        "fault_stats": (
            None if result.fault_stats is None else result.fault_stats.to_dict()
        ),
    }


def result_fingerprint(result: "SwarmResult") -> str:
    """SHA-256 over the canonical JSON encoding of :func:`result_summary`.

    Python's ``repr``-based float serialization round-trips exactly, so
    two results are fingerprint-equal iff every covered value is
    bit-equal — the equivalence the replay tests assert.
    """
    payload = json.dumps(
        result_summary(result),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
