"""Generic discrete-event engine.

A minimal, deterministic event loop: events are ``(time, seq, Event)``
triples in a binary heap, where ``seq`` is a monotonically increasing
tie-breaker so same-time events fire in scheduling order — making runs
bit-for-bit reproducible for a fixed RNG seed.

Handlers are registered per event kind; the swarm orchestrator
registers one handler per protocol activity (rounds, arrivals, tracker
announces, shakes).  A bound-method handler is held weakly: the
orchestrator owns the engine, so a strong reference back would make
every swarm a reference cycle that only the cyclic garbage collector
frees — a dropped 100k-peer swarm would stay resident until it ran.
"""

from __future__ import annotations

import heapq
import inspect
import math
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ParameterError, SimulationError

__all__ = ["Event", "DiscreteEventEngine"]


@dataclass(frozen=True)
class Event:
    """A scheduled occurrence.

    Attributes:
        kind: dispatch key (string; the swarm uses e.g. ``"round"``,
            ``"arrival"``, ``"announce"``).
        payload: arbitrary handler data (peer ids, etc.).
    """

    kind: str
    payload: Any = field(default=None, compare=False)


class DiscreteEventEngine:
    """Deterministic heapq-backed event loop."""

    def __init__(self) -> None:
        self._queue: list = []
        # Explicit int counter (not itertools.count): the checkpoint
        # subsystem must capture and restore the exact tie-breaker
        # position for bit-identical resumes.
        self._next_seq = 0
        self._now = 0.0
        #: kind -> a call returning the handler, or None once a weakly
        #: held handler's object is gone.
        self._handlers: Dict[str, Callable[[], Optional[Callable]]] = {}
        self._pre_dispatch: List[Callable[[float, Event], None]] = []
        self._processed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events handled so far (diagnostics)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # Registration / scheduling
    # ------------------------------------------------------------------
    def register(self, kind: str, handler: Callable[[float, Event], None]) -> None:
        """Register the handler for an event kind (one handler per kind).

        A bound method is held weakly (see the module docstring); any
        other callable is held as given.
        """
        if kind in self._handlers:
            raise ParameterError(f"handler for event kind {kind!r} already registered")
        if inspect.ismethod(handler):
            self._handlers[kind] = weakref.WeakMethod(handler)
        else:
            self._handlers[kind] = lambda: handler

    def add_pre_dispatch_hook(
        self, hook: Callable[[float, Event], None]
    ) -> None:
        """Register a hook called before *every* event dispatch.

        Hooks observe ``(time, event)`` ahead of the handler — fault
        injectors track the simulation clock this way, and invariant
        tests assert clock monotonicity.  Hooks run in registration
        order and must not schedule or mutate the queue.
        """
        self._pre_dispatch.append(hook)

    def schedule_at(self, time: float, event: Event) -> None:
        """Schedule ``event`` at absolute time ``time`` (>= now, finite)."""
        if not math.isfinite(time):
            # A NaN key would corrupt the heap invariant (every
            # comparison is False) and make run_until exit silently
            # with events still pending.
            raise SimulationError(
                f"cannot schedule event {event.kind!r} at non-finite "
                f"time {time}"
            )
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event {event.kind!r} at {time} in the past "
                f"(now={self._now})"
            )
        heapq.heappush(self._queue, (time, self._next_seq, event))
        self._next_seq += 1

    def schedule_in(self, delay: float, event: Event) -> None:
        """Schedule ``event`` ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {event.kind!r}")
        self.schedule_at(self._now + delay, event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Pop and dispatch the next event; None if the queue is empty."""
        if not self._queue:
            return None
        time, _seq, event = heapq.heappop(self._queue)
        if time < self._now:
            # Tripwire for heap corruption: schedule_at validates its
            # inputs, so a backwards pop means the queue was mutated
            # behind the engine's back.
            raise SimulationError(
                f"event {event.kind!r} at {time} precedes the clock "
                f"(now={self._now}); event queue is corrupt"
            )
        self._now = time
        handler_ref = self._handlers.get(event.kind)
        if handler_ref is None:
            raise SimulationError(f"no handler registered for event {event.kind!r}")
        handler = handler_ref()
        if handler is None:
            raise SimulationError(
                f"the owner of the {event.kind!r} handler was garbage "
                f"collected"
            )
        # Count before dispatch: a checkpoint taken *inside* a handler
        # (the round hook) must include the event being handled, or the
        # resumed run's processed-event total comes up one short.
        self._processed += 1
        for hook in self._pre_dispatch:
            hook(time, event)
        handler(time, event)
        return event

    def run_until(
        self, end_time: float, *, max_events: Optional[int] = None
    ) -> int:
        """Dispatch events with time <= ``end_time``; returns count handled.

        Stops early when the queue drains.  ``max_events`` guards
        against runaway self-rescheduling loops.
        """
        handled = 0
        while self._queue and self._queue[0][0] <= end_time:
            if max_events is not None and handled >= max_events:
                raise SimulationError(
                    f"run_until exceeded max_events={max_events} before "
                    f"reaching t={end_time}"
                )
            self.step()
            handled += 1
        # Advance the clock to the horizon even if the queue drained early,
        # so successive run_until calls see monotone time.
        self._now = max(self._now, end_time)
        return handled

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None when idle."""
        return self._queue[0][0] if self._queue else None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable engine state (see ``repro.checkpoint.schema``).

        The pending queue is captured in its *internal heap order*; a
        restore that replays the same list reproduces the exact heap
        layout, and because ``(time, seq)`` is a total order, every
        subsequent pop agrees with the uninterrupted run.  Event
        payloads must be JSON-serializable (the swarm only schedules
        payload-free ``round``/``arrival`` events).
        """
        for _time, _seq, event in self._queue:
            if event.payload is not None and not isinstance(
                event.payload, (bool, int, float, str, list, dict)
            ):
                raise SimulationError(
                    f"cannot snapshot event {event.kind!r}: payload "
                    f"{event.payload!r} is not JSON-serializable"
                )
        return {
            "now": self._now,
            "next_seq": self._next_seq,
            "processed": self._processed,
            "queue": [
                [time, seq, event.kind, event.payload]
                for time, seq, event in self._queue
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Restore the counterpart of :meth:`snapshot_state`.

        Handlers and pre-dispatch hooks are *not* part of the state:
        they are re-registered by the owning orchestrator before this
        call.
        """
        self._now = float(state["now"])
        self._next_seq = int(state["next_seq"])
        self._processed = int(state["processed"])
        self._queue = [
            (float(time), int(seq), Event(str(kind), payload))
            for time, seq, kind, payload in state["queue"]
        ]
