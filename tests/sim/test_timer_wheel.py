"""Timer wheel: heap-identical firing order, O(1) cancel, batching."""

import pytest

from repro.sim.kernel import (
    WHEEL_FANOUT,
    WHEEL_GRANULARITY,
    Simulator,
)

from tests.conftest import HeapOnlySimulator


class TestWheelOrdering:
    def test_wheel_timers_fire_in_time_order(self, sim):
        log = []
        sim.schedule_timer(3.0, log.append, "c")
        sim.schedule_timer(1.0, log.append, "a")
        sim.schedule_timer(2.0, log.append, "b")
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_wheel_and_heap_ties_fire_in_insertion_order(self, sim):
        """The bit-identity contract: wheel timers share the heap's global
        sequence counter, so same-time events fire in the exact order they
        were scheduled, regardless of which structure held them."""
        log = []
        sim.schedule(5.0, log.append, "heap-1")
        sim.schedule_timer(5.0, log.append, "wheel-1")
        sim.post(5.0, log.append, "post-1")
        sim.schedule_timer(5.0, log.append, "wheel-2")
        sim.schedule(5.0, log.append, "heap-2")
        sim.run()
        assert log == ["heap-1", "wheel-1", "post-1", "wheel-2", "heap-2"]

    def test_firing_order_identical_with_wheel_disabled(self):
        """A/B: the same schedule produces the same log with the wheel
        routed through the plain heap (the heap-only reference kernel)."""
        def build(sim, log):
            # Delays spanning several wheel levels plus exact ties.
            for i, delay in enumerate((0.2, 40.0, 40.0, 7.5, 2000.0,
                                       0.2, 7.5, 131071.0)):
                if i % 2:
                    sim.schedule(delay, log.append, (i, delay))
                else:
                    sim.schedule_timer(delay, log.append, (i, delay))

        logs = []
        for kernel in (Simulator, HeapOnlySimulator):
            sim = kernel()
            log = []
            build(sim, log)
            sim.run()
            logs.append(log)
        assert logs[0] == logs[1]

    def test_cascade_preserves_exact_fire_time(self, sim):
        """A timer bucketed at a coarse level cascades down and still fires
        at its exact scheduled time, not at bucket granularity."""
        fired = []
        delay = WHEEL_GRANULARITY * WHEEL_FANOUT ** 2 * 3 + 0.125
        sim.schedule_timer(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [delay]
        assert sim._wheel.cascades >= 1

    def test_zero_delay_timer_joins_current_batch(self, sim):
        """schedule_timer(0) routes through the heap so it runs within the
        *current* timestamp batch, after already-queued same-time events."""
        log = []

        def first():
            log.append("first")
            sim.schedule_timer(0.0, log.append, "zero-delay")

        sim.schedule(1.0, first)
        sim.schedule(1.0, log.append, "second")
        sim.run()
        assert log == ["first", "second", "zero-delay"]
        assert sim.now == 1.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule_timer(-1.0, lambda: None)

    def test_peek_time_sees_bucketed_timer(self, sim):
        sim.schedule_timer(100.0, lambda: None)
        sim.schedule(200.0, lambda: None)
        assert sim.peek_time() == 100.0


class TestWheelCancellation:
    def test_cancel_bucketed_timer_leaves_no_tombstone(self, sim):
        h = sim.schedule_timer(50.0, lambda: None)
        assert sim._wheel.live == 1
        h.cancel()
        assert sim._wheel.live == 0
        assert sim._tombstones == 0  # never touched the heap
        assert sim.events_cancelled == 1
        assert sim._wheel.timers_cancelled == 1
        assert sim.run() == 0

    def test_cancel_is_idempotent_on_wheel(self, sim):
        h = sim.schedule_timer(50.0, lambda: None)
        h.cancel()
        h.cancel()
        h.cancel()
        assert sim.events_cancelled == 1
        assert sim._wheel.timers_cancelled == 1
        assert sim._wheel.live == 0

    def test_cancel_after_transfer_is_heap_tombstone(self, sim):
        """A timer the wheel already handed to the heap cancels like any
        heap event: one tombstone, one cancellation, exactly once."""
        log = []
        victim = sim.schedule_timer(5.0, log.append, "victim")
        sim.schedule(5.0, log.append, "tick")

        def killer():
            victim.cancel()
            victim.cancel()  # idempotent post-transfer too

        sim.schedule(1.0, killer)
        # Step past the killer only: at t=1 the wheel has NOT yet been
        # drained for t=5, so the cancel is an O(1) wheel cancel.
        sim.run()
        assert log == ["tick"]
        assert sim.events_cancelled == 1

    def test_live_pending_counts_wheel_timers(self, sim):
        sim.schedule_timer(10.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        assert sim.live_pending == 2
        assert sim.pending == 2


class TestBatchedDispatch:
    def test_single_now_per_timestamp_batch(self, sim):
        """Every callback in a same-timestamp batch observes the same
        clock value — the batch advances ``now`` once."""
        seen = []
        for _ in range(5):
            sim.schedule(2.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.0] * 5

    def test_batch_drains_events_scheduled_by_the_batch(self, sim):
        """Zero-delay events scheduled from inside a batch extend that
        batch (higher seq => fire last), matching the unbatched loop."""
        log = []

        def head(n):
            log.append(f"head-{n}")
            if n == 0:
                sim.schedule(0.0, log.append, "tail")

        sim.schedule(3.0, head, 0)
        sim.schedule(3.0, head, 1)
        sim.run()
        assert log == ["head-0", "head-1", "tail"]

    def test_max_events_can_stop_mid_batch(self, sim):
        log = []
        for i in range(4):
            sim.schedule(1.0, log.append, i)
        assert sim.run(max_events=2) == 2
        assert log == [0, 1]
        assert sim.run() == 2
        assert log == [0, 1, 2, 3]

    def test_until_bound_respected_for_wheel_only_queue(self, sim):
        """run(until=...) with nothing in the heap must not drain wheel
        buckets that start beyond the bound."""
        log = []
        sim.schedule_timer(10.0, log.append, "late")
        sim.run(until=5.0)
        assert log == []
        assert sim.now == 5.0
        sim.run()
        assert log == ["late"]
