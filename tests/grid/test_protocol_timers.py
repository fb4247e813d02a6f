"""Park-on-idle protocol timers: nothing that needs a tick ever misses one.

A node's heartbeat and monitor timers, and a client's resubmission
watchdog, park when they have nothing to do and are woken by whatever
creates work (DESIGN.md, "Protocol timers").  The risk of that design is a
*missed wake site*: a job that sits on a run node with no heartbeat, or an
owner that holds records it never sweeps.  The tests here guard it three
ways:

* the **heartbeat-gap property** — on failure-free, rack-failure and
  partition-storm runs, every job queued or running on a live run node
  is heartbeaten, and every live owner with records sweeps, at least
  every ``interval × 1.1`` (the jitter bound);
* an **always-ticking reference** — today's pre-parking task, kept as an
  in-test subclass whose ``park()`` is a no-op, must agree with the
  parking task on heartbeats per job and on recovery latencies;
* **quiescence** — a settled run leaves no live timer behind, and a run
  that can never settle goes quiet instead of ticking to ``max_time``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import build_population, drive
from repro.grid import client as client_mod
from repro.grid import node as node_mod
from repro.grid.job import Job, JobProfile, JobState
from repro.grid.node import GridNode
from repro.grid.system import DesktopGrid, GridConfig
from repro.match import make_matchmaker
from repro.scenarios import get_scenario
from repro.sim.process import PeriodicTask
from repro.workloads.spec import WorkloadConfig

from tests.conftest import make_small_grid
from tests.invariants.test_invariants import _workload

INTERVAL = 5.0
#: PeriodicTask(jitter=0.1): consecutive firings are at most this far apart.
MAX_GAP = INTERVAL * 1.1
#: The observer below samples the grid this often; a bound it checks can
#: be overshot by at most one sample.
SAMPLE = 0.25


class AlwaysTicking(PeriodicTask):
    """The pre-parking behaviour: an idle tick is an early return."""

    def park(self) -> None:
        pass


def _build(scenario_name: str, seed: int, n_nodes: int = 24,
           n_jobs: int = 60) -> tuple[DesktopGrid, WorkloadConfig, list]:
    scenario = get_scenario(scenario_name)
    wl = _workload(n_nodes, n_jobs)
    nodes, stream = build_population(wl, seed)
    overrides = {"heartbeats_enabled": True, "client_resubmit_enabled": True,
                 "heartbeat_interval": INTERVAL, **scenario.grid_overrides}
    grid = DesktopGrid(GridConfig(seed=seed, spec=wl.spec, **overrides),
                       make_matchmaker("rn-tree"), nodes)
    scenario.install_faults(grid)
    return grid, wl, stream


def _held(node: GridNode) -> list[Job]:
    """The jobs a run node must heartbeat: queued, then running."""
    return [*node.queue, *([node.running] if node.running else [])]


def _job(client, name: str, work: float) -> Job:
    return Job(profile=JobProfile(name=name, client_id=client.node_id,
                                  requirements=(0.0, 0.0, 0.0), work=work))


class GapObserver:
    """Records heartbeat sends, sweeps and heals; samples the gap bounds."""

    def __init__(self, grid: DesktopGrid, monkeypatch):
        self.grid = grid
        self.last_hb: dict[tuple[int, int], float] = {}
        self.woken_at: dict[tuple[int, int], float] = {}
        self.last_sweep: dict[int, float] = {}
        self.reachable_since: dict[int, float] = {}
        self.owned_since: dict[int, float] = {}
        self.violations: list[str] = []
        self.first_after_wake = 0
        self.samples = 0
        sim = grid.sim

        send = grid.network.send

        def recording_send(kind, src, dst, payload=None, *args, **kwargs):
            if kind == "heartbeat":
                key = (src, payload[0])
                woke = self.woken_at.pop(key, None)
                if woke is not None:
                    # Woken from park: a fresh stagger draw in [0, interval).
                    self.first_after_wake += 1
                    if sim.now - woke >= INTERVAL:
                        self.violations.append(
                            f"first heartbeat {sim.now - woke:.2f}s after "
                            f"the wake at {woke:.2f}")
                self.last_hb[key] = sim.now
            return send(kind, src, dst, payload, *args, **kwargs)

        monkeypatch.setattr(grid.network, "send", recording_send)

        accept = GridNode._accept_assignment
        beat = GridNode._send_heartbeats
        sweep = GridNode._monitor_owned
        heal = GridNode.heal
        obs = self

        def recording_accept(node, job):
            task = node._hb_task
            was_parked = task is not None and task.parked
            had = node._has_job(job)
            ok = accept(node, job)
            if ok and not had and node.grid is grid and was_parked:
                obs.woken_at[(node.node_id, job.guid)] = sim.now
            return ok

        def recording_beat(node):
            if node.grid is grid:
                for job in _held(node):
                    if job.owner_id is None:
                        # Mid-resubmission (the client cleared the owner
                        # and the new one has not received the job yet):
                        # the tick came, but there is nobody to tell.
                        obs.last_hb[(node.node_id, job.guid)] = sim.now
            return beat(node)

        def recording_sweep(node):
            if node.grid is grid:
                obs.last_sweep[node.node_id] = sim.now
            return sweep(node)

        def recording_heal(node):
            if node.grid is grid:
                obs.reachable_since[node.node_id] = sim.now
            return heal(node)

        monkeypatch.setattr(GridNode, "_accept_assignment", recording_accept)
        monkeypatch.setattr(GridNode, "_send_heartbeats", recording_beat)
        monkeypatch.setattr(GridNode, "_monitor_owned", recording_sweep)
        monkeypatch.setattr(GridNode, "heal", recording_heal)
        # The observer itself never parks and draws no randomness.
        self.task = PeriodicTask(sim, SAMPLE, self._sample, stagger=False)

    def _sample(self) -> None:
        self.samples += 1
        now = self.grid.sim.now
        bound = MAX_GAP + SAMPLE
        for node in self.grid.node_list:
            nid = node.node_id
            if not node.owned:
                self.owned_since.pop(nid, None)
            elif nid not in self.owned_since:
                self.owned_since[nid] = now
            if not node.alive:
                continue
            since = self.reachable_since.get(nid, 0.0)
            for job in _held(node):
                last = max(self.last_hb.get((nid, job.guid), 0.0),
                           job.enqueue_time, since)
                if now - last > bound:
                    self.violations.append(
                        f"t={now:.2f} {node.name} holds {job.name} with no "
                        f"heartbeat for {now - last:.2f}s")
            if node.owned:
                last = max(self.last_sweep.get(nid, 0.0),
                           self.owned_since[nid], since)
                if now - last > bound:
                    self.violations.append(
                        f"t={now:.2f} owner {node.name} holds "
                        f"{len(node.owned)} records, no sweep for "
                        f"{now - last:.2f}s")


class TestHeartbeatGapProperty:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("scenario", [
        "baseline", "correlated_failure", "partition_storm"])
    def test_no_job_or_record_goes_unwatched(self, scenario, seed,
                                             monkeypatch):
        grid, wl, stream = _build(scenario, seed, n_nodes=32, n_jobs=150)
        obs = GapObserver(grid, monkeypatch)
        assert drive(grid, wl, stream, max_time=30_000.0)
        assert obs.samples > 500
        assert not obs.violations, obs.violations[:5]
        # The property was exercised: nodes really parked and were woken
        # (and, under faults, the recovery machinery really ran).
        assert obs.first_after_wake > 10
        assert grid.network.stats.by_kind["heartbeat"] > len(grid.jobs)
        if scenario != "baseline":
            assert sum(grid.metrics.recoveries.values()) > 0

    def _one_long_job(self):
        cfg = GridConfig(seed=5, heartbeats_enabled=True,
                         heartbeat_interval=INTERVAL)
        grid = make_small_grid(n_nodes=8, cfg=cfg)
        client = grid.client("c")
        job = _job(client, "long", 500.0)
        grid.submit_at(0.0, client, job)
        grid.sim.run(until=30.0)
        runner = grid.nodes[job.run_node_id]
        owner = grid.nodes[job.owner_id]
        assert runner.running is job and job.guid in owner.owned
        return grid, job, runner, owner

    def test_readoption_by_heartbeat_wakes_a_parked_monitor(self):
        """The rarest wake site: an owner that lost its record (and whose
        monitor parked on the empty set) re-adopts from a heartbeat."""
        grid, job, runner, owner = self._one_long_job()
        owner.owned.clear()
        owner._monitor_task.park()
        sweeps = owner._monitor_task.firings
        grid.sim.run(until=30.0 + 3 * MAX_GAP)
        assert job.guid in owner.owned  # the next heartbeat re-adopted it
        assert not owner._monitor_task.parked
        assert owner._monitor_task.firings >= sweeps + 2

    def test_partitioned_node_with_work_keeps_ticking_idle_one_parks(self):
        grid, job, runner, owner = self._one_long_job()
        hb_before = grid.network.stats.by_kind["heartbeat"]

        runner.partition()
        owner.partition()
        grid.sim.run(until=60.0)
        # Dark, state intact: nothing is sent, but neither timer parked —
        # heal() has no wake site, so parking here would end heartbeats.
        assert grid.network.stats.by_kind["heartbeat"] == hb_before
        assert not runner._hb_task.parked and runner._hb_task.firings > 6
        assert not owner._monitor_task.parked

        runner.heal()
        owner.heal()
        grid.sim.run(until=60.0 + MAX_GAP)
        assert grid.network.stats.by_kind["heartbeat"] > hb_before

        # An idle partitioned node has nothing to resume: it may park.
        idle = next(n for n in grid.node_list
                    if n is not runner and n is not owner)
        idle._ensure_runner_tasks()
        idle._ensure_owner_tasks()
        idle.partition()
        grid.sim.run(until=60.0 + 3 * MAX_GAP)
        assert idle._hb_task.parked and idle._monitor_task.parked


def _run_stats(scenario: str, seed: int, monkeypatch, task_cls) -> dict:
    with monkeypatch.context() as mp:
        mp.setattr(node_mod, "PeriodicTask", task_cls)
        mp.setattr(client_mod, "PeriodicTask", task_cls)
        grid, wl, stream = _build(scenario, seed, n_nodes=32, n_jobs=120)
        assert drive(grid, wl, stream, max_time=30_000.0)
    lat = grid.metrics.recovery_latencies
    return {
        "hb_per_job": grid.network.stats.by_kind["heartbeat"] / len(grid.jobs),
        "run_node_lat": lat.get("run-node", []),
        "owner_recoveries": grid.metrics.recoveries.get("owner", 0),
        "completed": sum(j.state is JobState.COMPLETED
                         for j in grid.jobs.values()),
        "events": grid.sim.events_processed,
    }


class TestAgreesWithAlwaysTicking:
    """Parking changes *which* variates a timer draws after an idle spell,
    not the protocol: per-job heartbeat cadence and failure-detection
    latency must match the always-ticking task in distribution."""

    SEEDS = tuple(range(1, 9))

    def _pooled(self, scenario, monkeypatch, task_cls):
        runs = [_run_stats(scenario, s, monkeypatch, task_cls)
                for s in self.SEEDS]
        return {
            "hb_per_job": float(np.mean([r["hb_per_job"] for r in runs])),
            "run_node_lat": [x for r in runs for x in r["run_node_lat"]],
            "owner_recoveries": sum(r["owner_recoveries"] for r in runs),
            "completed": sum(r["completed"] for r in runs),
            "events": sum(r["events"] for r in runs),
        }

    def test_failure_free_heartbeats_per_job(self, monkeypatch):
        park = self._pooled("baseline", monkeypatch, PeriodicTask)
        tick = self._pooled("baseline", monkeypatch, AlwaysTicking)
        assert park["completed"] == tick["completed"] == 120 * len(self.SEEDS)
        assert park["hb_per_job"] == pytest.approx(tick["hb_per_job"],
                                                   rel=0.03)
        # ... at a fraction of the kernel events: the point of parking.
        assert park["events"] < 0.8 * tick["events"]

    def test_rack_failure_recovery_latency(self, monkeypatch):
        park = self._pooled("correlated_failure", monkeypatch, PeriodicTask)
        tick = self._pooled("correlated_failure", monkeypatch, AlwaysTicking)
        assert park["hb_per_job"] == pytest.approx(tick["hb_per_job"],
                                                   rel=0.05)
        assert len(park["run_node_lat"]) >= 20
        assert len(tick["run_node_lat"]) >= 20
        # Run-node loss is detected by the owner's sweep: silence for
        # miss_limit intervals, then the next sweep (up to one more).
        assert np.mean(park["run_node_lat"]) == pytest.approx(
            np.mean(tick["run_node_lat"]), rel=0.08)
        for lat in (park["run_node_lat"], tick["run_node_lat"]):
            assert INTERVAL * 3 < np.mean(lat) < INTERVAL * 3 + 2 * MAX_GAP
        # Owner loss is detected by the run node when a heartbeat to the
        # dead owner cannot be delivered, so it rides the heartbeat timer;
        # the counts pool to the same order.
        assert park["owner_recoveries"] > 0 and tick["owner_recoveries"] > 0
        assert park["owner_recoveries"] == pytest.approx(
            tick["owner_recoveries"], rel=0.25)


class TestQuiescence:
    def _grid(self, **overrides) -> DesktopGrid:
        cfg = GridConfig(seed=11, heartbeats_enabled=True,
                         heartbeat_interval=INTERVAL, **overrides)
        return make_small_grid(n_nodes=12, cfg=cfg)

    def test_settled_run_leaves_no_live_timer(self):
        grid = self._grid(client_resubmit_enabled=True)
        client = grid.client("c")
        for i in range(10):
            grid.submit_at(float(i), client, _job(client, f"j{i}", 20.0 + i))
        assert grid.run_until_done(max_time=10_000.0)
        # Settled — but each timer only learns it is idle at its next
        # firing; let every node and the client take that one tick.
        grid.sim.run(until=grid.sim.now
                     + 1.1 * grid.cfg.client_check_interval + 1.0)
        assert grid.sim.live_pending == 0
        assert grid.sim.peek_time() is None
        assert client._watch_task.parked
        assert all(n._hb_task is None or n._hb_task.parked
                   for n in grid.node_list)
        assert all(n._monitor_task is None or n._monitor_task.parked
                   for n in grid.node_list)

    def test_parked_grid_wakes_for_late_work(self):
        grid = self._grid(client_resubmit_enabled=True)
        client = grid.client("c")
        grid.submit_at(0.0, client, _job(client, "early", 10.0))
        assert grid.run_until_done(max_time=10_000.0)
        grid.sim.run(until=200.0)
        assert grid.sim.live_pending == 0
        late = _job(client, "late", 60.0)
        grid.submit_at(grid.sim.now + 1.0, client, late)
        hb_before = grid.network.stats.by_kind["heartbeat"]
        grid.sim.run(until=grid.sim.now + 2.0)  # past the submission
        assert grid.run_until_done(max_time=10_000.0)
        assert late.state is JobState.COMPLETED
        assert grid.network.stats.by_kind["heartbeat"] >= hb_before + 60 / MAX_GAP - 1

    def test_unsettleable_run_returns_false_promptly(self):
        """Owner and run node both crash and no client resubmits: nothing
        can ever settle the job.  The run must go quiet and say so, not
        tick idle timers to ``max_time = 1e6``."""
        grid = self._grid()  # heartbeats on, client resubmission off
        client = grid.client("c")
        doomed = _job(client, "doomed", 500.0)
        grid.submit_at(0.0, client, doomed)
        for i in range(4):  # bystanders that finish and let their nodes park
            grid.submit_at(1.0 + i, client, _job(client, f"by{i}", 15.0))
        grid.sim.run(until=30.0)
        assert doomed.state is JobState.RUNNING
        assert doomed.owner_id != doomed.run_node_id
        grid.crash_node(doomed.run_node_id)
        grid.crash_node(doomed.owner_id)
        events_before = grid.sim.events_processed
        assert grid.run_until_done() is False
        assert not doomed.is_done
        assert grid.sim.live_pending == 0
        assert grid.sim.now < 1_000.0  # nowhere near DEFAULT_MAX_TIME
        assert grid.sim.events_processed - events_before < 2_000
