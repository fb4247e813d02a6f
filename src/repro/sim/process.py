"""Periodic tasks on top of the one-shot event kernel.

Heartbeats, DHT stabilization, aggregation refresh, and neighbor load
exchange are all periodic soft-state protocols; :class:`PeriodicTask` gives
them a common cancellable implementation with optional phase jitter (so a
thousand nodes' timers don't fire in lockstep, which would both be
unrealistic and create pathological event bursts).

Each firing reschedules through :meth:`Simulator.schedule_timer`, so the
pending timer waits on the kernel's hierarchical timer wheel rather than
the event heap: stopping a task (churn, crash) is O(1) and leaves no heap
tombstone, and 10k nodes' worth of heartbeat timers cost the heap nothing
between firings.  Firing order is identical either way — wheel timers
carry the same global sequence numbers as heap events.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.sim.kernel import EventHandle, Simulator, WheelTimer
from repro.util.rng import KeyedUniform


class PeriodicTask:
    """Runs ``fn()`` every ``interval`` seconds until stopped.

    Parameters
    ----------
    rng:
        Source of phase randomness: a ``numpy`` ``Generator``, or a
        :class:`repro.util.rng.KeyedUniform` (the grid gives every
        protocol timer its own keyed stream, so no timer's phase depends
        on another's activity).  Only ``.uniform(low, high)`` is used.
    jitter:
        Fraction of ``interval`` used for uniform phase jitter on every
        firing (0 disables).  The *first* firing is additionally offset by a
        uniform random phase in ``[0, interval)`` when ``stagger`` is true.

    A body that finds nothing to do calls :meth:`park`: the timer is not
    rescheduled, so an idle task costs no kernel events.  Whoever creates
    work calls :meth:`wake`, which re-arms a parked task as :meth:`start`
    arms a new one and is a no-op on any other (ticking, stopped, new).
    """

    def __init__(self, sim: Simulator, interval: float, fn: Callable[[], None],
                 *, rng: np.random.Generator | KeyedUniform | None = None,
                 jitter: float = 0.0, stagger: bool = True,
                 start: bool = True):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if jitter < 0 or jitter >= 1:
            raise ValueError("jitter must be in [0, 1)")
        if (jitter > 0 or stagger) and rng is None:
            raise ValueError("rng required when jitter or stagger enabled")
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.rng = rng
        self.jitter = jitter
        self.stagger = stagger
        # Hot-path hoists: rescheduling happens once per firing per task,
        # so the jitter window and the bound _fire reference are computed
        # once here instead of per firing (creating a fresh bound-method
        # object every firing was measurable at heartbeat scale).
        self._lo = interval * (1 - jitter)
        self._hi = interval * (1 + jitter)
        self._fire_ref = self._fire
        self._handle: EventHandle | None = None
        self.firings = 0
        self.stopped = False
        self.parked = False
        if start:
            self.start()

    def start(self) -> None:
        if self._handle is not None:
            return
        self.stopped = self.parked = False
        first = self.interval
        if self.stagger and self.rng is not None:
            first = float(self.rng.uniform(0, self.interval))
        self._handle = self.sim.schedule_timer(first, self._fire_ref)

    def stop(self) -> None:
        self.stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def park(self) -> None:
        """Go idle until :meth:`wake`: no timer stays in flight."""
        self.parked = True
        if self._handle is not None:  # parked from outside the body
            self._handle.cancel()
            self._handle = None

    def wake(self) -> None:
        """Re-arm a parked task (fresh stagger); otherwise a no-op."""
        if self.parked and not self.stopped:
            self.start()

    def _fire(self) -> None:
        if self.stopped:
            return
        handle = self._handle
        self._handle = None
        self.firings += 1
        self.fn()
        # fn may have called stop() or park() — or park() then wake(),
        # which already put the one timer in flight.
        if not (self.stopped or self.parked or self._handle is not None):
            # No-jitter tasks skip the rng branch entirely: the common
            # telemetry/maintenance timers reschedule with two attribute
            # loads and a schedule().
            if self.jitter:
                delay = float(self.rng.uniform(self._lo, self._hi))
            else:
                delay = self.interval
            if type(handle) is WheelTimer:
                # Re-arm the fired wheel timer in place instead of
                # allocating a fresh one per firing (same sequence
                # numbering, same firing order — see reschedule_timer).
                self._handle = self.sim.reschedule_timer(
                    handle, delay, self._fire_ref)
            else:
                self._handle = self.sim.schedule_timer(delay, self._fire_ref)
