"""PeriodicTask: cadence, jitter, stop and park/wake semantics."""

import numpy as np
import pytest

from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicTask

from tests.conftest import HeapOnlySimulator


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestPeriodicTask:
    def test_fires_at_fixed_cadence(self, sim):
        times = []
        PeriodicTask(sim, 2.0, lambda: times.append(sim.now), stagger=False)
        sim.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_stagger_offsets_first_firing(self, sim, rng):
        times = []
        PeriodicTask(sim, 2.0, lambda: times.append(sim.now),
                     rng=rng, stagger=True)
        sim.run(until=1.99)
        assert len(times) == 1  # first firing within one interval
        assert 0.0 <= times[0] < 2.0

    def test_stop_halts_firing(self, sim):
        count = [0]
        task = PeriodicTask(sim, 1.0, lambda: count.__setitem__(0, count[0] + 1),
                            stagger=False)
        sim.run(until=2.5)
        task.stop()
        sim.run(until=10.0)
        assert count[0] == 2
        assert task.firings == 2

    def test_stop_from_within_callback(self, sim):
        task_box = {}

        def fn():
            task_box["t"].stop()

        task_box["t"] = PeriodicTask(sim, 1.0, fn, stagger=False)
        sim.run(until=10.0)
        assert task_box["t"].firings == 1

    def test_restart_after_stop(self, sim):
        count = [0]
        task = PeriodicTask(sim, 1.0, lambda: count.__setitem__(0, count[0] + 1),
                            stagger=False)
        sim.run(until=1.5)
        task.stop()
        task.start()
        sim.run(until=3.0)
        assert count[0] == 2  # at t=1.0 then t=2.5

    def test_jitter_varies_cadence(self, sim, rng):
        times = []
        PeriodicTask(sim, 1.0, lambda: times.append(sim.now),
                     rng=rng, jitter=0.3, stagger=False)
        sim.run(until=20.0)
        gaps = np.diff(times)
        assert all(0.7 - 1e-9 <= g <= 1.3 + 1e-9 for g in gaps)
        assert np.std(gaps) > 0.0

    def test_start_is_idempotent(self, sim):
        count = [0]
        task = PeriodicTask(sim, 1.0, lambda: count.__setitem__(0, count[0] + 1),
                            stagger=False)
        task.start()  # second start must not double-schedule
        sim.run(until=1.5)
        assert count[0] == 1

    def test_rejects_bad_params(self, sim, rng):
        with pytest.raises(ValueError):
            PeriodicTask(sim, 0.0, lambda: None, stagger=False)
        with pytest.raises(ValueError):
            PeriodicTask(sim, 1.0, lambda: None, jitter=1.5, rng=rng)
        with pytest.raises(ValueError):
            PeriodicTask(sim, 1.0, lambda: None, jitter=0.1)  # jitter needs rng


class TestParkWake:
    """Park-on-idle / wake-on-work: a parked task holds no timer, and no
    call sequence ever leaves two in flight (``sim.live_pending``)."""

    def _task(self, sim, rng, body=None, **kw):
        fired = []

        def fn():
            fired.append(sim.now)
            if body is not None:
                body(task)

        task = PeriodicTask(sim, 1.0, fn, rng=rng, jitter=0.1, **kw)
        return task, fired

    def test_park_in_body_stops_rescheduling(self, sim, rng):
        task, fired = self._task(sim, rng, body=lambda t: t.park())
        assert sim.live_pending == 1
        sim.run(until=10.0)
        assert len(fired) == 1 and task.parked
        assert sim.live_pending == 0  # an idle task costs no events

    def test_wake_rearms_with_fresh_stagger(self, sim, rng):
        task, fired = self._task(sim, rng, body=lambda t: t.park())
        sim.run(until=10.0)
        task.wake()
        assert not task.parked and sim.live_pending == 1
        task.wake()  # second wake is a no-op: already ticking
        assert sim.live_pending == 1
        sim.run(until=11.0)
        assert len(fired) == 2
        assert 10.0 <= fired[1] < 11.0  # stagger draw in [0, interval)

    def test_park_then_wake_in_same_body_leaves_one_timer(self, sim, rng):
        def body(t):
            t.park()
            t.wake()

        task, fired = self._task(sim, rng, body=body)
        for horizon in (1.0, 2.0, 5.0):
            sim.run(until=horizon)
            assert sim.live_pending == 1
        # One timer means one firing per period: two in flight would
        # roughly double the rate (gaps are stagger draws in [0, 1)).
        assert 5 <= len(fired) <= 5 / 0.25

    def test_wake_on_ticking_or_unstarted_task_is_a_noop(self, sim, rng):
        task, _ = self._task(sim, rng)
        task.wake()
        assert sim.live_pending == 1
        idle, _ = self._task(sim, rng, start=False)
        idle.wake()  # never parked: wake must not start it
        assert sim.live_pending == 1

    def test_stop_on_parked_task_and_wake_on_stopped_task(self, sim, rng):
        task, fired = self._task(sim, rng, body=lambda t: t.park())
        sim.run(until=5.0)
        task.stop()
        assert sim.live_pending == 0
        task.wake()  # stopped wins: a crashed node's timer stays dead
        assert sim.live_pending == 0 and task.stopped
        sim.run(until=10.0)
        assert len(fired) == 1

    def test_start_after_park_is_a_single_rearm(self, sim, rng):
        task, fired = self._task(sim, rng, body=lambda t: t.park())
        sim.run(until=5.0)
        task.start()
        task.start()
        assert sim.live_pending == 1 and not task.parked
        sim.run(until=6.0)
        assert len(fired) == 2

    def test_park_from_outside_the_body_cancels_the_timer(self, sim, rng):
        task, fired = self._task(sim, rng)
        task.park()
        assert sim.live_pending == 0
        sim.run(until=5.0)
        assert fired == []
        task.wake()
        assert sim.live_pending == 1

    def test_stop_inside_body_after_park(self, sim, rng):
        def body(t):
            t.park()
            t.stop()

        task, fired = self._task(sim, rng, body=body)
        sim.run(until=5.0)
        task.wake()
        assert sim.live_pending == 0 and len(fired) == 1

    def test_parking_works_on_the_plain_heap_too(self, rng):
        sim = HeapOnlySimulator()
        task, fired = self._task(sim, rng, body=lambda t: t.park())
        sim.run(until=5.0)
        assert sim.live_pending == 0
        task.wake()
        sim.run(until=6.0)
        assert len(fired) == 2 and sim.live_pending == 0


@pytest.fixture
def sim():
    return Simulator()
