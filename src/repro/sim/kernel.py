"""The discrete-event simulation kernel.

A :class:`Simulator` owns a virtual clock, a binary-heap event queue, and a
hashed hierarchical :class:`TimerWheel`.  Components schedule callbacks at
future virtual times; :meth:`Simulator.run` pops events in time order and
invokes them.  Ties are broken by insertion order (FIFO), which makes traces
deterministic.

Three scheduling entry points trade generality for speed:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` — general
  one-shot events with a cancellable :class:`EventHandle`.
* :meth:`Simulator.schedule_timer` — recurring/cancellation-heavy timers
  (periodic tasks, rpc timeouts).  These live on the timer wheel until
  they come due, so cancellation is O(1) bucket surgery instead of a heap
  tombstone, and a million pending heartbeats cost the heap nothing.
* :meth:`Simulator.post` — fire-and-forget events that are never cancelled
  (message deliveries).  No handle is allocated at all; the heap entry is
  a plain ``(time, seq, fn, args)`` tuple.

All three share one global sequence counter, so events fire in exactly the
same (time, seq) order regardless of which structure they waited in — the
equivalence goldens in ``tests/experiments/test_equivalence.py`` pin this.

The dispatch loop is *batched*: all events sharing a timestamp drain in one
pass with a single ``now`` store per batch.  Intra-timestamp order is still
FIFO by sequence number; an event scheduled with zero delay from inside a
batch joins the same batch, exactly as the unbatched loop behaved.

Cancelled heap events stay in the heap as tombstones (removing an arbitrary
heap entry is O(n)); the kernel counts them and compacts the heap —
filter + re-heapify, O(n) — once tombstones outnumber live entries.
Compaction never reorders live events: (time, seq) keys are unique, so the
re-heapified queue pops in exactly the same order.  Wheel timers cancelled
while still on the wheel never touch the heap and need no compaction.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

#: Compaction trigger floor: below this many tombstones the dead entries
#: cost less than the scan, so the kernel leaves the heap alone.
COMPACT_MIN_TOMBSTONES = 64

#: Timer-wheel geometry.  Level ``l`` buckets are ``GRANULARITY * FANOUT**l``
#: seconds wide; level 0 holds timers due within ``GRANULARITY * FANOUT``
#: seconds (32 s — covers heartbeat/monitor/stabilize intervals), and the
#: top level absorbs everything else (its dict of absolute slots is
#: unbounded, so no delay is too long).
WHEEL_GRANULARITY = 0.5
WHEEL_FANOUT = 64
WHEEL_LEVELS = 4


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("time", "fn", "args", "cancelled", "sim")

    def __init__(self, time: float, fn: Callable, args: tuple,
                 sim: "Simulator | None" = None):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: Owning simulator while the entry is live in a heap (None once
        #: fired or cancelled) — lets cancel() feed tombstone accounting.
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; safe after firing,
        and safe after the heap compacted the entry away (``sim`` is the
        exactly-once latch: accounting runs only on the first transition
        from live to cancelled)."""
        if self.cancelled:
            return
        self.cancelled = True
        # Drop references so cancelled-but-still-heaped events don't pin
        # large object graphs (e.g. whole jobs) in memory.
        self.fn = None
        self.args = ()
        sim = self.sim
        if sim is not None:
            self.sim = None
            sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6g}, {state})"


class WheelTimer(EventHandle):
    """An :class:`EventHandle` that waits on the timer wheel.

    Carries its insertion sequence number so that, when the wheel transfers
    it into the event heap, it interleaves with heap-scheduled events in
    exactly the global FIFO order.  ``on_wheel`` routes cancellation:
    still-bucketed timers cancel in O(1) on the wheel; transferred timers
    become ordinary heap tombstones.
    """

    __slots__ = ("seq", "on_wheel")

    def __init__(self, time: float, fn: Callable, args: tuple,
                 sim: "Simulator", seq: int):
        EventHandle.__init__(self, time, fn, args, sim)
        self.seq = seq
        self.on_wheel = True

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None
        self.args = ()
        sim = self.sim
        if sim is not None:
            self.sim = None
            if self.on_wheel:
                sim._note_wheel_cancel()
            else:
                sim._note_cancel()


class TimerWheel:
    """Hashed hierarchical timer wheel feeding a :class:`Simulator` heap.

    Buckets are dict entries keyed ``(level, absolute_slot)`` — no fixed
    ring, so arbitrarily distant timers hash to a slot without wraparound
    bookkeeping.  A lazy min-heap of bucket start times (``_starts``, one
    entry per live bucket) gives the run loop an O(1) lower bound on the
    earliest bucketed timer.  When the run loop is about to dispatch at
    time ``t`` it calls :meth:`fill`, which drains every bucket starting at
    or before ``t``: level-0 buckets push their timers straight into the
    event heap (the heap orders the handful that are due now), coarser
    buckets *cascade* — re-insert each timer at a strictly finer level
    based on its remaining delay.  Cancelled timers are simply skipped at
    drain time; :meth:`~WheelTimer.cancel` already uncounted them.
    """

    __slots__ = ("sim", "live", "timers_scheduled", "timers_cancelled",
                 "cascades", "_buckets", "_starts", "_widths", "_max_level")

    def __init__(self, sim: "Simulator",
                 granularity: float = WHEEL_GRANULARITY,
                 fanout: int = WHEEL_FANOUT,
                 levels: int = WHEEL_LEVELS):
        self.sim = sim
        #: Timers bucketed and not cancelled (transferred ones excluded).
        self.live = 0
        self.timers_scheduled = 0
        self.timers_cancelled = 0
        self.cascades = 0
        self._buckets: dict[tuple[int, int], list[WheelTimer]] = {}
        self._starts: list[tuple[float, int, int]] = []
        self._widths = [granularity * fanout ** lvl for lvl in range(levels)]
        self._max_level = levels - 1

    def insert(self, timer: WheelTimer, max_level: int | None = None) -> None:
        """Bucket ``timer`` by its delay from the current virtual time."""
        delay = timer.time - self.sim.now
        widths = self._widths
        top = self._max_level if max_level is None else max_level
        level = 0
        while level < top and delay >= widths[level + 1]:
            level += 1
        width = widths[level]
        slot = int(timer.time / width)
        key = (level, slot)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [timer]
            heapq.heappush(self._starts, (slot * width, level, slot))
        else:
            bucket.append(timer)
        self.live += 1

    def fill(self, limit: float) -> None:
        """Move every timer due by ``limit`` into the simulator's heap.

        Drains all buckets whose start time is <= ``limit``.  Level-0
        timers transfer directly (possibly with ``time > limit`` — the
        heap orders them); coarser buckets cascade to finer levels, so a
        timer's level strictly decreases and the loop terminates.  After
        this returns, every remaining bucketed timer fires strictly after
        ``limit``.
        """
        starts = self._starts
        if not starts or starts[0][0] > limit:
            return
        buckets = self._buckets
        heap = self.sim._heap
        push = heapq.heappush
        pop = heapq.heappop
        moved = 0
        while starts and starts[0][0] <= limit:
            _start, level, slot = pop(starts)
            bucket = buckets.pop((level, slot))
            if level == 0:
                for timer in bucket:
                    if not timer.cancelled:
                        timer.on_wheel = False
                        push(heap, (timer.time, timer.seq, timer))
                        moved += 1
            else:
                self.cascades += 1
                next_level = level - 1
                for timer in bucket:
                    if not timer.cancelled:
                        self.live -= 1
                        self.insert(timer, max_level=next_level)
        self.live -= moved

    def peek(self) -> float | None:
        """Exact virtual time of the earliest live bucketed timer.

        Scans buckets in start order and stops as soon as no later bucket
        can contain an earlier timer — typically one bucket's worth of
        work, not a full sweep.
        """
        best: float | None = None
        for start, level, slot in sorted(self._starts):
            if best is not None and start >= best:
                break
            for timer in self._buckets[(level, slot)]:
                if not timer.cancelled and (best is None or timer.time < best):
                    best = timer.time
        return best

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TimerWheel(live={self.live}, "
                f"buckets={len(self._buckets)})")


class Simulator:
    """Virtual-time event loop.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock (seconds).
    """

    def __init__(self, start_time: float = 0.0):
        self.now = float(start_time)
        self._heap: list[tuple] = []
        self._seq = 0
        self._tombstones = 0  # cancelled entries still in the heap
        self.events_processed = 0
        self.events_scheduled = 0
        self.events_cancelled = 0
        self.compactions = 0
        self._running = False
        self._wheel = TimerWheel(self)

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Inlined schedule_at (this is the hottest scheduling entry point;
        # delay >= 0 already guarantees time >= now).  ``time - time``
        # is 0.0 for every finite float and nan for nan/inf — one cheap
        # arithmetic test instead of two math-module calls.
        time = self.now + delay
        if time - time != 0.0:
            raise ValueError(f"invalid event time {time!r}")
        handle = EventHandle(time, fn, args, self)
        heapq.heappush(self._heap, (time, self._seq, handle))
        self._seq += 1
        self.events_scheduled += 1
        return handle

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        if time - time != 0.0:
            raise ValueError(f"invalid event time {time!r}")
        handle = EventHandle(time, fn, args, self)
        heapq.heappush(self._heap, (time, self._seq, handle))
        self._seq += 1
        self.events_scheduled += 1
        return handle

    def schedule_timer(self, delay: float, fn: Callable,
                       *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` on the timer wheel.

        Firing semantics are identical to :meth:`schedule` — ties with
        heap events break by global insertion order — but cancelling a
        still-pending timer is O(1) and leaves no heap tombstone.  Meant
        for recurring timers and timeouts, which are overwhelmingly
        cancelled or rescheduled rather than fired once.

        A zero delay routes through the plain heap: a zero-delay event
        must join the *current* timestamp batch, which only the heap can
        order it into.
        """
        if delay <= 0:
            if delay == 0:
                return self.schedule(0.0, fn, *args)
            raise ValueError(f"negative delay {delay!r}")
        time = self.now + delay
        if time - time != 0.0:
            raise ValueError(f"invalid event time {time!r}")
        timer = WheelTimer(time, fn, args, self, self._seq)
        self._seq += 1
        self.events_scheduled += 1
        wheel = self._wheel
        wheel.timers_scheduled += 1
        wheel.insert(timer)
        return timer

    def reschedule_timer(self, timer: WheelTimer, delay: float,
                         fn: Callable) -> EventHandle:
        """Revive a just-fired :class:`WheelTimer` in place.

        Firing semantics are *identical* to :meth:`schedule_timer` — the
        revived timer takes the next global sequence number and waits on
        the wheel — but no new handle is allocated: the caller's fired
        timer object (whose slots the run loop already cleared) is
        re-armed and re-bucketed.  This is the periodic-task fast path:
        one million heartbeat reschedules otherwise allocate one million
        single-use ``WheelTimer`` objects, which dominates the traced
        allocation profile at 10k-node scale.

        Falls back to plain scheduling when the delay is zero (it must
        route through the heap), returning a fresh handle in that case —
        callers must always re-point at the returned handle.
        """
        if delay <= 0:
            return self.schedule_timer(delay, fn)
        time = self.now + delay
        if time - time != 0.0:
            raise ValueError(f"invalid event time {time!r}")
        timer.time = time
        timer.seq = self._seq
        timer.fn = fn
        timer.args = ()
        timer.cancelled = False
        timer.on_wheel = True
        timer.sim = self
        self._seq += 1
        self.events_scheduled += 1
        wheel = self._wheel
        wheel.timers_scheduled += 1
        wheel.insert(timer)
        return timer

    def post(self, delay: float, fn: Callable, *args: Any) -> None:
        """Fire-and-forget schedule: no handle, cannot be cancelled.

        The heap entry is a bare ``(time, seq, fn, args)`` tuple — no
        :class:`EventHandle` allocation, no post-fire slot clearing.  This
        is the message-delivery fast path; use :meth:`schedule` whenever
        the caller might need to cancel.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        time = self.now + delay
        if time - time != 0.0:
            raise ValueError(f"invalid event time {time!r}")
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1
        self.events_scheduled += 1

    # -- heap hygiene ----------------------------------------------------

    def _note_cancel(self) -> None:
        """One live heap entry became a tombstone; compact when cancelled
        entries exceed half the queue (amortized O(1) per cancellation)."""
        self.events_cancelled += 1
        t = self._tombstones + 1
        self._tombstones = t
        heap = self._heap
        if t >= COMPACT_MIN_TOMBSTONES and 2 * t > len(heap):
            # In place (slice assignment): run() holds a local alias.
            # 4-tuple post() entries carry no handle and are never
            # tombstones; keep them unconditionally.
            heap[:] = [entry for entry in heap
                       if len(entry) == 4 or not entry[2].cancelled]
            heapq.heapify(heap)
            self._tombstones = 0
            self.compactions += 1

    def _note_wheel_cancel(self) -> None:
        """A still-bucketed wheel timer was cancelled: O(1), no tombstone."""
        self.events_cancelled += 1
        wheel = self._wheel
        wheel.live -= 1
        wheel.timers_cancelled += 1

    # -- execution -------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Process events in time order.

        Stops when the queue drains, the clock would pass ``until``, or
        ``max_events`` have been processed.  Returns the number of events
        processed by this call.  When stopped by ``until``, the clock is
        advanced to ``until`` so subsequent relative scheduling behaves
        intuitively.
        """
        if self._running:
            raise RuntimeError("Simulator.run is not reentrant")
        self._running = True
        processed = 0
        try:
            # Hot loop: the heap, heappop, and the wheel's bucket-start
            # heap live in locals; fired handles are cleared inline.
            # Outer iteration = one timestamp batch (single `now`
            # store); inner loop drains every event sharing that
            # timestamp, including zero-delay events scheduled by the
            # batch itself (they get higher seqs and pop last, exactly
            # as the unbatched loop ordered them).
            heap = self._heap
            wheel = self._wheel
            starts = wheel._starts
            fill = wheel.fill
            heappop = heapq.heappop
            while True:
                if starts:
                    # The wheel may own the next event: transfer
                    # everything due by the heap head (or, on an
                    # empty heap, by the earliest bucket) into the
                    # heap so the two sources merge in seq order.
                    if heap:
                        if starts[0][0] <= heap[0][0]:
                            fill(heap[0][0])
                    else:
                        next_start = starts[0][0]
                        if until is not None and next_start > until:
                            break
                        fill(next_start)
                        continue
                if not heap:
                    break
                t0 = heap[0][0]
                if until is not None and t0 > until:
                    break
                self.now = t0
                while heap and heap[0][0] == t0:
                    entry = heappop(heap)
                    if len(entry) == 4:
                        entry[2](*entry[3])
                    else:
                        handle = entry[2]
                        if handle.cancelled:
                            self._tombstones -= 1
                            continue
                        fn = handle.fn
                        args = handle.args
                        # Mark fired; frees references.
                        handle.cancelled = True
                        handle.fn = None
                        handle.args = ()
                        handle.sim = None
                        fn(*args)
                    processed += 1
                    if max_events is not None and processed >= max_events:
                        break
                if max_events is not None and processed >= max_events:
                    break
        finally:
            self.events_processed += processed
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return processed

    def step(self) -> bool:
        """Process exactly one event.  Returns False when the queue is empty."""
        return self.run(max_events=1) == 1

    @property
    def pending(self) -> int:
        """Queued entries: heap entries (including cancelled tombstones)
        plus live wheel timers."""
        return len(self._heap) + self._wheel.live

    @property
    def live_pending(self) -> int:
        """Events that will actually fire: heap entries net of cancelled
        tombstones, plus live wheel timers."""
        return len(self._heap) - self._tombstones + self._wheel.live

    def peek_time(self) -> float | None:
        """Virtual time of the next live event, or None if nothing is queued.

        Considers both the heap and the timer wheel.  Mid-:meth:`run` (a
        callback peeking at the queue) the heap is scanned without
        mutating — ``run`` is iterating the same heap list, and popping
        under it would skew the tombstone accounting; outside a run it
        lazily pops leading tombstones as before.
        """
        heap = self._heap
        if self._running:
            times = [e[0] for e in heap
                     if len(e) == 4 or not e[2].cancelled]
            heap_t = min(times) if times else None
        else:
            while heap and len(heap[0]) != 4 and heap[0][2].cancelled:
                heapq.heappop(heap)
                self._tombstones -= 1
            heap_t = heap[0][0] if heap else None
        wheel = self._wheel
        wheel_t = wheel.peek() if wheel.live else None
        if heap_t is None:
            return wheel_t
        if wheel_t is None:
            return heap_t
        return heap_t if heap_t <= wheel_t else wheel_t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now:.6g}, pending={self.pending})"
