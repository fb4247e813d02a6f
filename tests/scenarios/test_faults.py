"""Fault plans and injectors: grouping, strikes, determinism."""

import numpy as np
import pytest

from repro.grid.job import Job, JobProfile, JobState
from repro.grid.system import GridConfig
from repro.scenarios.faults import (
    DoubleFailureInjector,
    DoubleFailurePlan,
    PartitionStormPlan,
    RackFailurePlan,
    node_groups,
)
from repro.sim.failure import GroupFailureInjector
from repro.sim.kernel import Simulator

from tests.conftest import make_small_grid


class TestNodeGroups:
    def test_partitions_all_nodes_once(self):
        grid = make_small_grid(n_nodes=16)
        groups = node_groups(grid, 4)
        assert len(groups) == 4
        flat = [nid for g in groups for nid in g]
        assert sorted(flat) == sorted(n.node_id for n in grid.node_list)

    def test_remainder_folds_into_last_group(self):
        grid = make_small_grid(n_nodes=10)
        groups = node_groups(grid, 3)
        assert len(groups) == 3
        assert sum(len(g) for g in groups) == 10
        assert len(groups[-1]) >= len(groups[0])

    def test_more_groups_than_nodes(self):
        grid = make_small_grid(n_nodes=3)
        groups = node_groups(grid, 8)
        assert len(groups) == 3
        assert all(len(g) == 1 for g in groups)

    def test_validation(self):
        grid = make_small_grid(n_nodes=4)
        with pytest.raises(ValueError):
            node_groups(grid, 0)


class TestGroupFailureInjector:
    def test_strikes_take_down_whole_group(self):
        sim = Simulator()
        downs, ups = [], []
        inj = GroupFailureInjector(
            sim, np.random.default_rng(3), [[1, 2, 3], [4, 5, 6]],
            take_down_fn=downs.append, bring_up_fn=ups.append,
            mean_interval=10.0, outage=5.0, max_strikes=1)
        sim.run(until=200.0)
        assert inj.strikes == 1
        assert inj.members_taken_down == 3
        # The struck group went down and came back, as a unit.
        assert sorted(downs) in ([1, 2, 3], [4, 5, 6])
        assert sorted(ups) == sorted(downs)

    def test_deterministic_replay(self):
        def run():
            sim = Simulator()
            events = []
            GroupFailureInjector(
                sim, np.random.default_rng(7), [[1, 2], [3, 4]],
                take_down_fn=lambda n: events.append(("down", n, sim.now)),
                bring_up_fn=lambda n: events.append(("up", n, sim.now)),
                mean_interval=20.0, outage=8.0, max_strikes=3)
            sim.run(until=500.0)
            return events

        assert run() == run()

    def test_stop_halts_new_strikes(self):
        sim = Simulator()
        downs = []
        inj = GroupFailureInjector(
            sim, np.random.default_rng(3), [[1, 2]],
            take_down_fn=downs.append, bring_up_fn=lambda n: None,
            mean_interval=10.0, outage=5.0)
        inj.stop()
        sim.run(until=500.0)
        assert downs == []
        assert inj.strikes == 0

    def test_validation(self):
        sim = Simulator()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            GroupFailureInjector(sim, rng, [], lambda n: None,
                                 lambda n: None, 10.0, 5.0)
        with pytest.raises(ValueError):
            GroupFailureInjector(sim, rng, [[1], []], lambda n: None,
                                 lambda n: None, 10.0, 5.0)
        with pytest.raises(ValueError):
            GroupFailureInjector(sim, rng, [[1]], lambda n: None,
                                 lambda n: None, -1.0, 5.0)


class TestPlans:
    def test_rack_plan_crashes_state(self):
        grid = make_small_grid(cfg=GridConfig(seed=7,
                                              heartbeats_enabled=True))
        inj = RackFailurePlan(n_groups=4, mean_interval=5.0, outage=3.0,
                              max_strikes=2).install(grid)
        grid.run(until=100.0)
        assert inj.strikes == 2
        assert inj.members_taken_down > 0
        # Everyone recovered by now.
        assert all(n.alive for n in grid.node_list)

    def test_partition_plan_uses_partition_not_crash(self):
        grid = make_small_grid(cfg=GridConfig(seed=7,
                                              heartbeats_enabled=True))
        inj = PartitionStormPlan(n_groups=4, mean_interval=5.0,
                                 outage=1e6).install(grid)
        grid.run(until=60.0)
        assert inj.members_taken_down > 0
        parted = [n for n in grid.node_list if not n.alive]
        assert parted
        # Partition keeps volatile state; crash would have cleared it —
        # distinguishable because partitioned nodes stay registered
        # with their queues intact (no state reset happened).
        assert all(n.queue is not None for n in parted)


class TestDoubleFailureInjector:
    def _grid_with_inflight_job(self):
        grid = make_small_grid(cfg=GridConfig(seed=7,
                                              heartbeats_enabled=True))
        owner, runner = grid.node_list[0], grid.node_list[1]
        client = grid.client("c")
        job = Job(profile=JobProfile(name="dbl", client_id=client.node_id,
                                     requirements=(0.0, 0.0, 0.0),
                                     work=1e6))
        job.state = JobState.RUNNING
        job.owner_id = owner.node_id
        job.run_node_id = runner.node_id
        grid.jobs[job.guid] = job
        return grid, job, owner, runner

    def test_candidates_require_live_distinct_pair(self):
        grid, job, owner, runner = self._grid_with_inflight_job()
        inj = DoubleFailureInjector(grid, np.random.default_rng(1),
                                    mean_interval=10.0, outage=5.0,
                                    start=False)
        assert inj._candidates() == [(owner.node_id, runner.node_id)]
        owner.crash()
        assert inj._candidates() == []


    @pytest.mark.parametrize("state", [JobState.COMPLETED, JobState.FAILED])
    def test_candidates_skip_finished_jobs(self, state):
        grid, job, owner, runner = self._grid_with_inflight_job()
        inj = DoubleFailureInjector(grid, np.random.default_rng(1),
                                    mean_interval=10.0, outage=5.0,
                                    start=False)
        job.state = state
        assert inj._candidates() == []

    def test_candidates_skip_job_owned_by_its_run_node(self):
        grid, job, owner, runner = self._grid_with_inflight_job()
        inj = DoubleFailureInjector(grid, np.random.default_rng(1),
                                    mean_interval=10.0, outage=5.0,
                                    start=False)
        job.run_node_id = owner.node_id
        assert inj._candidates() == []

    def test_strike_partitions_both_within_spread(self):
        grid, job, owner, runner = self._grid_with_inflight_job()
        inj = DoubleFailureInjector(grid, np.random.default_rng(1),
                                    mean_interval=1.0, outage=30.0,
                                    spread=0.25, max_strikes=1)
        # Run past the first strike but inside the outage window.
        grid.sim.run(until=20.0)
        assert inj.strikes == 1
        assert inj.pairs_hit == 1
        assert not owner.alive and not runner.alive
        grid.sim.run(until=60.0)
        assert owner.alive and runner.alive

    def test_no_candidates_still_reschedules(self):
        grid = make_small_grid()
        inj = DoubleFailureInjector(grid, np.random.default_rng(1),
                                    mean_interval=5.0, outage=2.0,
                                    max_strikes=3)
        grid.sim.run(until=200.0)
        assert inj.strikes == 3
        assert inj.pairs_hit == 0

    def test_stop_halts_new_strikes(self):
        grid, job, owner, runner = self._grid_with_inflight_job()
        inj = DoubleFailureInjector(grid, np.random.default_rng(1),
                                    mean_interval=5.0, outage=2.0)
        inj.stop()
        grid.sim.run(until=200.0)
        assert inj.strikes == 0
        assert owner.alive and runner.alive

    def test_validation(self):
        grid = make_small_grid()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            DoubleFailureInjector(grid, rng, mean_interval=0.0, outage=5.0)
        with pytest.raises(ValueError):
            DoubleFailureInjector(grid, rng, mean_interval=5.0, outage=5.0,
                                  spread=-1.0)

    def test_plan_installs_on_faults_stream(self):
        grid, *_ = self._grid_with_inflight_job()
        inj = DoubleFailurePlan(mean_interval=50.0,
                                outage=10.0).install(grid)
        assert inj.grid is grid
        assert inj.rng is grid.streams["faults"]
