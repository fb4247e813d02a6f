"""The discrete-event kernel: ordering, cancellation, run bounds."""

import pytest


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        log = []
        sim.schedule(3.0, log.append, "c")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(2.0, log.append, "b")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_fifo_order(self, sim):
        log = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, log.append, tag)
        sim.run()
        assert log == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_in_the_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_nan_time_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_events_scheduled_from_callbacks(self, sim):
        log = []

        def chain(n):
            log.append(n)
            if n < 3:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert log == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        log = []
        handle = sim.schedule(1.0, log.append, "x")
        handle.cancel()
        sim.run()
        assert log == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.run() == 0

    def test_cancel_releases_references(self, sim):
        payload = object()
        handle = sim.schedule(1.0, lambda x: None, payload)
        handle.cancel()
        assert handle.args == ()
        assert handle.fn is None


class TestRunBounds:
    def test_run_until_stops_before_later_events(self, sim):
        log = []
        sim.schedule(1.0, log.append, "early")
        sim.schedule(5.0, log.append, "late")
        sim.run(until=2.0)
        assert log == ["early"]
        assert sim.now == 2.0  # clock advanced to the bound
        sim.run()
        assert log == ["early", "late"]

    def test_max_events(self, sim):
        log = []
        for i in range(5):
            sim.schedule(float(i + 1), log.append, i)
        assert sim.run(max_events=2) == 2
        assert log == [0, 1]

    def test_step(self, sim):
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_run_is_not_reentrant(self, sim):
        def bad():
            sim.run()

        sim.schedule(1.0, bad)
        with pytest.raises(RuntimeError):
            sim.run()

    def test_peek_time_skips_cancelled(self, sim):
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        assert sim.peek_time() == 2.0

    def test_counters(self, sim):
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_scheduled == 3
        assert sim.events_processed == 3


class TestRunLoop:
    """The single dispatch loop: per-call counts, batch boundaries, and
    state left behind when a callback raises."""

    def test_return_counts_this_call_and_totals_accumulate(self, sim):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.run(until=2.0) == 2
        assert sim.run() == 3
        assert sim.run() == 0
        assert sim.events_processed == 5

    def test_max_events_stops_inside_a_timestamp_batch(self, sim):
        log = []
        for i in range(5):
            sim.schedule(1.0, log.append, i)
        assert sim.run(max_events=2) == 2
        assert log == [0, 1]
        assert sim.run() == 3
        assert log == [0, 1, 2, 3, 4]

    def test_zero_delay_events_join_the_current_batch(self, sim):
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(0.0, lambda: log.append(("chained", sim.now)))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: log.append(("second", sim.now)))
        sim.schedule(2.0, lambda: log.append(("later", sim.now)))
        sim.run()
        assert log == [("first", 1.0), ("second", 1.0), ("chained", 1.0),
                       ("later", 2.0)]

    def test_posted_and_handled_events_fire_in_insertion_order(self, sim):
        log = []
        sim.post(1.0, log.append, "post-a")
        sim.schedule(1.0, log.append, "handle-b")
        sim.post(1.0, log.append, "post-c")
        sim.schedule_timer(1.0, log.append, "timer-d")
        sim.run()
        assert log == ["post-a", "handle-b", "post-c", "timer-d"]

    def test_cancelled_events_are_not_counted(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule_timer(2.0, lambda: None).cancel()
        assert sim.run() == 1
        assert sim.events_processed == 1

    def test_callback_exception_leaves_simulator_usable(self, sim):
        log = []

        def boom():
            raise RuntimeError("callback failed")

        sim.schedule(1.0, log.append, "before")
        sim.schedule(2.0, boom)
        sim.schedule(3.0, log.append, "after")
        with pytest.raises(RuntimeError, match="callback failed"):
            sim.run()
        assert sim.now == 2.0
        assert sim.events_processed == 1
        assert sim.run() == 1
        assert log == ["before", "after"]

    def test_until_in_the_past_does_not_rewind_the_clock(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=1.0) == 0
        assert sim.now == 5.0


class TestHeapHygiene:
    """Tombstone accounting, compaction, and mid-run peeking."""

    def test_live_pending_counts_only_uncancelled(self, sim):
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.live_pending == 10
        for h in handles[:4]:
            h.cancel()
        assert sim.live_pending == 6
        assert len(sim._heap) == 10  # tombstones still buried in the heap

    def test_compaction_evicts_tombstones(self, sim):
        from repro.sim.kernel import COMPACT_MIN_TOMBSTONES

        n = COMPACT_MIN_TOMBSTONES * 3
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(n)]
        keep = handles[: n // 3]
        for h in handles[n // 3:]:  # cancel 2/3: majority-tombstone trigger
            h.cancel()
        assert sim.compactions >= 1
        # The heap shed tombstones (it no longer holds all n entries) and
        # the live count is exact despite any re-accumulated tombstones.
        assert len(sim._heap) < n
        assert sim.live_pending == len(keep)
        assert len(sim._heap) - len(keep) == sim._tombstones

    def test_order_preserved_across_compaction(self, sim):
        from repro.sim.kernel import COMPACT_MIN_TOMBSTONES

        n = COMPACT_MIN_TOMBSTONES * 3 + 7
        log = []
        handles = []
        # Interleave ties (FIFO-sensitive) with distinct times.
        for i in range(n):
            t = float(1 + i // 3)
            handles.append(sim.schedule(t, log.append, i))
        cancelled = {i for i in range(n) if i % 3 != 0}  # 2/3: past trigger
        for i in sorted(cancelled):
            handles[i].cancel()
        assert sim.compactions >= 1
        sim.run()
        assert log == [i for i in range(n) if i not in cancelled]

    def test_cancel_after_compaction_counts_once(self, sim):
        """Cancelling a handle the compactor already evicted must not
        double-count telemetry: ``events_cancelled`` and the tombstone
        ledger see each event's live->cancelled transition exactly once."""
        from repro.sim.kernel import COMPACT_MIN_TOMBSTONES

        n = COMPACT_MIN_TOMBSTONES * 3
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(n)]
        victims = handles[n // 3:]
        for h in victims:
            h.cancel()
        assert sim.compactions >= 1
        assert sim.events_cancelled == len(victims)
        for h in victims:  # compacted away — cancel again is a no-op
            h.cancel()
        assert sim.events_cancelled == len(victims)
        live = n - len(victims)
        assert sim.live_pending == live
        assert sim._tombstones == len(sim._heap) - live

    def test_few_tombstones_do_not_compact(self, sim):
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(8)]
        for h in handles[:6]:
            h.cancel()
        assert sim.compactions == 0  # below the minimum-tombstone floor

    def test_peek_time_mid_run_does_not_pop(self, sim):
        seen = []

        def probe():
            # Cancel a pending event, then peek while _running: the peek
            # must not mutate the heap out from under the run loop.
            victims[0].cancel()
            seen.append(sim.peek_time())

        victims = [sim.schedule(1.5, lambda: None)]
        sim.schedule(1.0, probe)
        sim.schedule(2.0, seen.append, "fired")
        sim.run()
        assert seen == [2.0, "fired"]

    def test_fired_events_are_not_tombstones(self, sim):
        for i in range(100):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim._tombstones == 0
        assert sim.compactions == 0

    def test_cancel_after_fire_is_harmless(self, sim):
        h = sim.schedule(1.0, lambda: None)
        sim.run()
        h.cancel()  # already cleared inline by the run loop
        assert sim._tombstones == 0
