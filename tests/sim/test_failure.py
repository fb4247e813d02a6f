"""Failure injection: the continuous churn process."""

import numpy as np
import pytest

from repro.sim.failure import CrashRecoveryProcess
from repro.sim.kernel import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestCrashRecoveryProcess:
    def test_alternates_crash_and_recover(self, sim):
        events = []
        CrashRecoveryProcess(
            sim, np.random.default_rng(0), [1],
            crash_fn=lambda n: events.append("down"),
            recover_fn=lambda n: events.append("up"),
            mean_uptime=10.0, mean_downtime=5.0,
        )
        sim.run(until=500.0)
        assert len(events) >= 4
        # Strict alternation starting with a crash.
        for i, e in enumerate(events):
            assert e == ("down" if i % 2 == 0 else "up")

    def test_all_nodes_get_churned(self, sim):
        seen = set()
        CrashRecoveryProcess(
            sim, np.random.default_rng(1), [1, 2, 3, 4],
            crash_fn=seen.add, recover_fn=lambda n: None,
            mean_uptime=10.0, mean_downtime=10.0,
        )
        sim.run(until=200.0)
        assert seen == {1, 2, 3, 4}

    def test_stop_halts_new_events(self, sim):
        events = []
        proc = CrashRecoveryProcess(
            sim, np.random.default_rng(0), [1],
            crash_fn=lambda n: events.append("down"),
            recover_fn=lambda n: events.append("up"),
            mean_uptime=1.0, mean_downtime=1.0,
        )
        sim.run(until=10.0)
        count = len(events)
        proc.stop()
        sim.run(until=100.0)
        assert len(events) == count

    def test_duty_cycle_roughly_matches(self, sim):
        # With mean up 30 / down 10, the node should be down ~25% of time.
        state = {"down_at": None, "down_total": 0.0}

        def crash(n):
            state["down_at"] = sim.now

        def recover(n):
            state["down_total"] += sim.now - state["down_at"]
            state["down_at"] = None

        CrashRecoveryProcess(sim, np.random.default_rng(3), [1],
                             crash_fn=crash, recover_fn=recover,
                             mean_uptime=30.0, mean_downtime=10.0)
        horizon = 100000.0
        sim.run(until=horizon)
        frac = state["down_total"] / horizon
        assert 0.15 < frac < 0.35

    def test_rejects_bad_means(self, sim):
        with pytest.raises(ValueError):
            CrashRecoveryProcess(sim, np.random.default_rng(0), [1],
                                 crash_fn=lambda n: None,
                                 recover_fn=lambda n: None,
                                 mean_uptime=0.0, mean_downtime=1.0)

    def test_rejects_bad_downtime(self, sim):
        with pytest.raises(ValueError):
            CrashRecoveryProcess(sim, np.random.default_rng(0), [1],
                                 crash_fn=lambda n: None,
                                 recover_fn=lambda n: None,
                                 mean_uptime=1.0, mean_downtime=-1.0)

    def test_start_false_waits_for_start(self, sim):
        events = []
        proc = CrashRecoveryProcess(
            sim, np.random.default_rng(0), [1, 2],
            crash_fn=events.append, recover_fn=lambda n: None,
            mean_uptime=1.0, mean_downtime=1.0, start=False)
        sim.run(until=50.0)
        assert events == [] and proc.crashes == 0
        proc.start()
        sim.run(until=100.0)
        assert set(events) == {1, 2}

    def test_counters_track_callbacks(self, sim):
        log = {"down": 0, "up": 0}

        def crash(n):
            log["down"] += 1

        def recover(n):
            log["up"] += 1

        proc = CrashRecoveryProcess(sim, np.random.default_rng(4), [1, 2, 3],
                                    crash_fn=crash, recover_fn=recover,
                                    mean_uptime=5.0, mean_downtime=5.0)
        sim.run(until=300.0)
        assert (proc.crashes, proc.recoveries) == (log["down"], log["up"])
        # Each node is down at most once at a time.
        assert 0 <= proc.crashes - proc.recoveries <= 3

    def test_same_seed_replays_exactly(self):
        def trace(seed):
            sim = Simulator()
            out = []
            CrashRecoveryProcess(
                sim, np.random.default_rng(seed), [1, 2, 3],
                crash_fn=lambda n: out.append(("down", n, sim.now)),
                recover_fn=lambda n: out.append(("up", n, sim.now)),
                mean_uptime=10.0, mean_downtime=5.0)
            sim.run(until=200.0)
            return out

        assert trace(11) == trace(11)
        assert trace(11) != trace(12)
