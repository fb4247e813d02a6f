"""Columnar NodeRegistry: mirrors must track per-node state exactly."""

from collections import Counter

import numpy as np
import pytest

from repro.experiments.runner import build_population, drive
from repro.grid.job import Job, JobProfile, JobState
from repro.grid.sandbox import SandboxPolicy
from repro.grid.system import DesktopGrid, GridConfig
from repro.match import make_matchmaker
from repro.sim.failure import CrashRecoveryProcess
from repro.workloads.spec import WorkloadConfig

from tests.conftest import make_small_grid


class TestRegistryBasics:
    def test_initial_state(self):
        grid = make_small_grid(n_nodes=8)
        reg = grid.registry
        assert len(reg) == 8
        assert reg.live_count() == 8
        assert reg.live_queue_lens().sum() == 0
        assert reg.execution_counts() == [0] * 8
        assert reg.check_consistency() == []

    def test_index_maps_node_list_order(self):
        grid = make_small_grid(n_nodes=8)
        for i, node in enumerate(grid.node_list):
            assert grid.registry.index[node.node_id] == i
            assert node._reg_idx == i

    def test_liveness_flips_are_mirrored(self):
        grid = make_small_grid(n_nodes=8)
        reg = grid.registry
        node = grid.node_list[3]
        grid.crash_node(node.node_id)
        assert not reg.alive[3]
        assert reg.live_count() == 7
        grid.recover_node(node.node_id)
        assert reg.alive[3]
        other = grid.node_list[5]
        grid.partition_node(other.node_id)
        assert not reg.alive[5]
        grid.heal_node(other.node_id)
        assert reg.alive[5]
        assert reg.check_consistency() == []

    def test_loads_reads_queue_column(self):
        grid = make_small_grid(n_nodes=8)
        node = grid.node_list[2]
        loads = grid.registry.loads([node.node_id])
        assert loads == {node.node_id: 0}


    def test_loads_covers_several_nodes(self):
        grid = make_small_grid(n_nodes=8)
        reg = grid.registry
        a, b = grid.node_list[1], grid.node_list[6]
        reg.queue_len[6] = 4
        assert reg.loads([b.node_id, a.node_id]) == {a.node_id: 0,
                                                     b.node_id: 4}

    def test_note_executed_bumps_one_column_entry(self):
        grid = make_small_grid(n_nodes=8)
        reg = grid.registry
        reg.note_executed(2)
        reg.note_executed(2)
        reg.note_executed(5)
        assert reg.execution_counts() == [0, 0, 2, 0, 0, 1, 0, 0]
        assert all(type(c) is int for c in reg.execution_counts())


class TestConsistencyCheck:
    """check_consistency is the drift tripwire the tests below rely on;
    it must name each column that disagrees with the node objects."""

    @pytest.mark.parametrize("column, value, label", [
        ("alive", False, "alive[3]"),
        ("queue_len", 2, "queue_len[3]"),
    ])
    def test_reports_a_drifted_column(self, column, value, label):
        grid = make_small_grid(n_nodes=8)
        reg = grid.registry
        getattr(reg, column)[3] = value
        problems = reg.check_consistency()
        assert len(problems) == 1
        assert problems[0].startswith(label)
        assert grid.node_list[3].name in problems[0]

    def test_reports_every_drifted_node(self):
        grid = make_small_grid(n_nodes=8)
        reg = grid.registry
        reg.queue_len[[0, 7]] = 1
        assert [p.split(" ")[0] for p in reg.check_consistency()] == \
            ["queue_len[0]", "queue_len[7]"]

class TestRegistryUnderLoad:
    def test_consistent_after_failure_free_run(self):
        wl = WorkloadConfig(n_nodes=40, n_jobs=120, mean_interarrival=0.5)
        nodes, stream = build_population(wl, seed=5)
        grid = DesktopGrid(GridConfig(seed=5, spec=wl.spec),
                           make_matchmaker("rn-tree"), nodes)
        drive(grid, wl, stream)
        reg = grid.registry
        assert reg.check_consistency() == []
        # Failure-free, each job ran once, on the run node it completed
        # on: the executed column counts exactly those jobs.
        ran_on = Counter(j.run_node_id for j in grid.jobs.values()
                         if j.state is JobState.COMPLETED)
        assert sum(ran_on.values()) == wl.n_jobs
        assert reg.execution_counts() == \
            [ran_on[n.node_id] for n in grid.node_list]
        assert np.array_equal(
            reg.live_queue_lens(),
            np.array([n.queue_len for n in grid.node_list if n.alive]))

    def test_executed_column_counts_runs_not_refusals(self):
        # A run the sandbox kills was executed; a job refused at
        # admission never ran.
        cfg = GridConfig(seed=7, sandbox=SandboxPolicy(max_runtime_factor=0.5))
        grid = make_small_grid(cfg=cfg, n_nodes=1)
        client = grid.client("c")
        jobs = [Job(profile=JobProfile(
            name=name, client_id=client.node_id,
            requirements=(0.0, 0.0, 0.0), work=5.0, input_size_kb=kb))
            for name, kb in (("killed", 0.0), ("refused", 4096.0))]
        for job in jobs:
            grid.submit_at(0.0, client, job)
        grid.run_until_done(max_time=1000)
        assert [j.state for j in jobs] == [JobState.FAILED] * 2
        assert [j.executions for j in jobs] == [1, 0]
        assert grid.registry.execution_counts() == [1]
        assert grid.registry.check_consistency() == []

    def test_consistent_after_churny_run(self):
        """The drift tripwire: every liveness/queue mutation path (crash,
        recover, heartbeat failure recovery, sandbox rejection, dispatch)
        must have updated its mirror by the end of a churny run."""
        wl = WorkloadConfig(n_nodes=40, n_jobs=120, mean_interarrival=0.5,
                            mean_work=60.0)
        nodes, stream = build_population(wl, seed=9)
        cfg = GridConfig(seed=9, spec=wl.spec, heartbeats_enabled=True,
                         client_resubmit_enabled=True)
        grid = DesktopGrid(cfg, make_matchmaker("rn-tree"), nodes)
        churn = CrashRecoveryProcess(
            grid.sim, grid.streams["churn"],
            [n.node_id for n in grid.node_list],
            crash_fn=grid.crash_node, recover_fn=grid.recover_node,
            mean_uptime=120.0, mean_downtime=40.0)
        drive(grid, wl, stream, max_time=3000.0)
        assert churn.crashes > 0
        assert grid.registry.check_consistency() == []
