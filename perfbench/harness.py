"""Arithmetic and tracing shared by every workload of the benchmark.

* :func:`median_and_tail` — a timing's median plus the highest
  percentile that still has at least ten samples beyond it, with the
  sample counts that back it.
* :class:`Tracer` — an in-memory span recorder wrapped around the
  program's public seams from outside; it also computes self-time.
* :func:`failed_frac`, :func:`check_metric_name` — result bookkeeping.
* :func:`environment` — the block describing the machine a result came
  from.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

#: Candidate tail levels, highest first.
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class Tail(NamedTuple):
    """A percentile with the evidence behind it.

    ``level`` is the percentile (50.0 when no higher level has
    ``TAIL_MIN_BEYOND`` samples beyond it), ``beyond`` the number of
    samples strictly after it in sorted order, ``n`` the sample count.
    """

    level: float
    value: float
    beyond: int
    n: int


def nearest_rank(ordered: Sequence[float], level: float) -> int:
    """0-based index of the nearest-rank ``level`` percentile."""
    n = len(ordered)
    # round() keeps float error (99.9 / 100 * 10000 = 9990.000000000002)
    # from pushing the rank up by one.
    return min(max(math.ceil(round(level / 100.0 * n, 9)) - 1, 0), n - 1)


def tail_percentile(samples: Iterable[float]) -> Tail:
    """Highest of :data:`TAIL_LEVELS` with ten samples beyond it.

    With fewer than 20 samples no level above the median qualifies; the
    median is then returned with its (smaller) ``beyond`` count, so the
    caller can see that the tail is not resolved.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    n = len(ordered)
    for level in TAIL_LEVELS:
        index = nearest_rank(ordered, level)
        beyond = n - 1 - index
        if beyond >= TAIL_MIN_BEYOND:
            return Tail(level, ordered[index], beyond, n)
    index = nearest_rank(ordered, 50.0)
    return Tail(50.0, statistics.median(ordered), n - 1 - index, n)


def median_and_tail(samples: Sequence[float]):
    """``(median, Tail)`` of one timing series."""
    return statistics.median(samples), tail_percentile(samples)


def failed_frac(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones (an operation is a request,
    round, checkpoint cycle or figure)."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise."""
    if not isinstance(name, str) or not METRIC_NAME.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals
        if min(b, end) > max(a, start)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children may overlap each other (threads); the union of their
    intervals is subtracted once.
    """
    children: Dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - covered_length(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }


class Tracer:
    """Records spans in memory; written out once at the end of a run.

    Spans nest per thread: a span opened while another is open on the
    same thread becomes its child.  Every span carries the run id.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = 0
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._ids += 1
            span_id = self._ids
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(span_id, name, start, end, parent, self.run_id)
                )

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a spanned call until :meth:`restore`."""
        had_own = attr in vars(owner)
        raw = vars(owner).get(attr)
        target = getattr(owner, attr)

        @functools.wraps(target)
        def spanned(*args, **kwargs):
            with self.span(name):
                return target(*args, **kwargs)

        setattr(owner, attr, spanned)
        self._patches.append((owner, attr, had_own, raw))

    def restore(self) -> None:
        for owner, attr, had_own, raw in reversed(self._patches):
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches = []

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def summary(self) -> Dict[str, dict]:
        """Per span name: count, total and self seconds."""
        selfs = self_times(self.spans)
        out: Dict[str, dict] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += selfs[span.id]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self_times(self.spans)
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                record = asdict(span)
                record["self"] = selfs[span.id]
                handle.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def environment(root: Path, shards: int = 0) -> dict:
    """The machine a result came from; flags shards beyond usable cores."""
    import numpy
    import scipy

    cores = len(os.sched_getaffinity(0))
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    shm_free = None
    if os.path.isdir("/dev/shm"):
        shm_free = shutil.disk_usage("/dev/shm").free / 2**20
    return {
        "usable_cores": cores,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "dev_shm_free_mb": shm_free,
        "shards": shards,
        "oversubscribed": shards > cores,
    }
