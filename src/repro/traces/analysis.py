"""Trace analysis: phase segmentation and swarm-selection filtering.

Two tools from the paper's measurement methodology:

* **Phase segmentation** — split a download trace into the bootstrap,
  efficient-download, and last-download phases from the potential-set
  series (bootstrap: the leading stretch with an empty potential set
  and at most one piece; last phase: the trailing stretch where the
  potential set has collapsed to ``<= last_phase_level``).
* **Swarm selection** — the paper selected "stable" swarms by manual
  inspection of tracker statistics ("number of peers involved in the
  download at a one hour resolution"), filtering out flash crowds
  (rapidly increasing populations) and dying swarms.
  :func:`classify_swarm` automates that filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ParameterError, TraceError
from repro.traces.schema import ClientTrace

__all__ = [
    "PhaseSegments",
    "phase_segments",
    "classify_trace",
    "classify_swarm",
    "summarize_trace",
    "download_rate_series",
]


@dataclass(frozen=True)
class PhaseSegments:
    """Durations of the three phases within one trace.

    Attributes:
        bootstrap: time from join until the peer first has both a piece
            and a non-empty potential set.
        efficient: time spent trading in between.
        last: time from the final potential-set collapse (at high
            completion) until the end of the trace.
        total: overall trace span.
    """

    bootstrap: float
    efficient: float
    last: float
    total: float

    def dominant_phase(self) -> str:
        """Which non-trading phase dominates *by time fraction*.

        Note: for archetype labelling prefer :func:`classify_trace`,
        which counts stall samples and is robust to fast downloads.
        """
        if self.total <= 0:
            return "empty"
        if self.bootstrap / self.total > 0.2:
            return "bootstrap"
        if self.last / self.total > 0.2:
            return "last"
        return "smooth"


def phase_segments(
    trace: ClientTrace,
    *,
    last_phase_level: int = 1,
    last_phase_completion: float = 0.5,
) -> PhaseSegments:
    """Segment a trace into the paper's three phases.

    Args:
        trace: the instrumented download.
        last_phase_level: potential-set size at or below which the peer
            counts as starved (the paper's Figure 2(d) shows a collapse
            to 1).
        last_phase_completion: minimum completion fraction for a
            starved stretch to count as the *last* phase rather than a
            bootstrap relapse.

    Raises:
        TraceError: for an empty trace.
    """
    if not trace.samples:
        raise TraceError("cannot segment an empty trace")
    times = np.asarray(trace.times())
    potential = np.asarray(trace.potential_series())
    bytes_dl = np.asarray(trace.bytes_series())
    piece = trace.piece_size_bytes
    total = float(times[-1] - times[0])

    # Bootstrap: leading samples with <= 1 piece and empty potential set.
    bootstrap_end = times[0]
    for t, pss, by in zip(times, potential, bytes_dl):
        if by > piece or pss > 0:
            bootstrap_end = t
            break
        bootstrap_end = t
    bootstrap = float(bootstrap_end - times[0])

    # Last phase: trailing samples at high completion with a starved
    # potential set.
    file_size = trace.file_size_bytes
    last_start = times[-1]
    for idx in range(len(times) - 1, -1, -1):
        starved = potential[idx] <= last_phase_level
        late = bytes_dl[idx] >= last_phase_completion * file_size
        if starved and late:
            last_start = times[idx]
        else:
            break
    last = float(times[-1] - last_start)

    efficient = max(total - bootstrap - last, 0.0)
    return PhaseSegments(
        bootstrap=bootstrap, efficient=efficient, last=last, total=total
    )


def classify_trace(
    trace: ClientTrace,
    *,
    significant_samples: int = 8,
    last_phase_level: int = 1,
    late_completion: float = 0.5,
) -> str:
    """Label a trace as ``"bootstrap"``, ``"last"``, or ``"smooth"``.

    The criteria count *stall samples* rather than time fractions, so a
    fast, healthy download is not mislabelled just because its absolute
    duration is short:

    * ``"bootstrap"`` — the leading run of samples with an empty
      potential set and at most one piece is at least
      ``significant_samples`` long (the paper's Fig. 2(e,f): download
      rate pinned at 0 until the potential set escapes state 0);
    * ``"last"`` — at completion >= ``late_completion``, at least
      ``significant_samples`` samples have a potential set at or below
      ``last_phase_level`` (Fig. 2(c,d): the set collapses to ~1 late);
    * ``"smooth"`` otherwise (Fig. 2(a,b)).

    Returns ``"empty"`` for a sample-less trace.
    """
    if not trace.samples:
        return "empty"
    piece = trace.piece_size_bytes
    file_size = trace.file_size_bytes

    leading_stall = 0
    for sample in trace.samples:
        if sample.potential_set_size == 0 and sample.cumulative_bytes <= piece:
            leading_stall += 1
        else:
            break
    if leading_stall >= significant_samples:
        return "bootstrap"

    late_starved = sum(
        1
        for sample in trace.samples
        if sample.cumulative_bytes >= late_completion * file_size
        and sample.potential_set_size <= last_phase_level
        and sample.cumulative_bytes < file_size
    )
    if late_starved >= significant_samples:
        return "last"
    return "smooth"


def download_rate_series(
    trace: ClientTrace, *, window: float = 5.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Windowed download rate (bytes per time unit) from a trace."""
    if window <= 0:
        raise ParameterError(f"window must be > 0, got {window}")
    times = np.asarray(trace.times(), dtype=float)
    bytes_dl = np.asarray(trace.bytes_series(), dtype=float)
    if times.size < 2:
        return times, np.zeros_like(times)
    rates = np.zeros_like(times)
    for idx, t in enumerate(times):
        lo = np.searchsorted(times, t - window, side="left")
        span = times[idx] - times[lo]
        if span > 0:
            rates[idx] = (bytes_dl[idx] - bytes_dl[lo]) / span
    return times, rates


def classify_swarm(
    population_series: Sequence[Tuple[float, int, int]],
    *,
    resolution: float = 60.0,
    flash_ratio: float = 1.5,
    dying_ratio: float = 0.5,
) -> str:
    """Classify a swarm from tracker population statistics.

    Mirrors the paper's selection criterion: population sampled at a
    coarse ("one hour") resolution; "rapidly increasing numbers of
    peers" mean a flash crowd, sustained shrinkage a dying swarm,
    anything else is stable.  The verdict compares the mean population
    of the final bucket against the first.

    Args:
        population_series: ``(time, leechers, seeds)`` records, such
            as a run's ``metrics.population_series``.
        resolution: aggregation bucket width ("one hour" analogue).
        flash_ratio: final/initial population ratio at or above which
            the swarm is a flash crowd.
        dying_ratio: final/initial ratio at or below which the swarm is
            dying.

    Returns:
        One of ``"flash_crowd"``, ``"dying"``, ``"stable"``, or
        ``"unknown"`` (fewer than two buckets of data).
    """
    if not population_series:
        return "unknown"
    if flash_ratio <= 1.0 or not 0.0 < dying_ratio < 1.0:
        raise ParameterError(
            f"need flash_ratio > 1 and 0 < dying_ratio < 1, got "
            f"{flash_ratio} / {dying_ratio}"
        )
    times = np.asarray([row[0] for row in population_series], dtype=float)
    totals = np.asarray(
        [row[1] + row[2] for row in population_series], dtype=float
    )
    start, end = times[0], times[-1]
    if end - start < 2 * resolution:
        return "unknown"
    edges = np.arange(start, end + resolution, resolution)
    buckets: List[float] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        in_bucket = (times >= lo) & (times < hi)
        if in_bucket.any():
            buckets.append(float(totals[in_bucket].mean()))
    if len(buckets) < 2:
        return "unknown"
    first, last = buckets[0], buckets[-1]
    if first <= 0:
        return "flash_crowd" if last > 0 else "unknown"
    ratio = last / first
    if ratio >= flash_ratio:
        return "flash_crowd"
    if ratio <= dying_ratio:
        return "dying"
    return "stable"


def summarize_trace(trace: ClientTrace) -> dict:
    """Compact per-trace summary (used by reports and the CLI)."""
    segments = phase_segments(trace) if trace.samples else None
    return {
        "client_id": trace.client_id,
        "swarm_id": trace.swarm_id,
        "pieces": trace.pieces_downloaded(),
        "num_pieces": trace.num_pieces,
        "complete": trace.is_complete,
        "duration": trace.duration(),
        "samples": len(trace.samples),
        "dominant_phase": classify_trace(trace),
        "bootstrap_time": segments.bootstrap if segments else 0.0,
        "efficient_time": segments.efficient if segments else 0.0,
        "last_time": segments.last if segments else 0.0,
    }
