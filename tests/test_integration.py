"""Cross-cutting integration: every §2 mechanism enabled at once.

A 'kitchen sink' deployment — RN-Tree matchmaking, heartbeats, status
relay, client resubmission, DHT result pointers, fair-share queueing, a
DAG workflow, continuous churn AND a failure storm — must still deliver
the work.  This is the closest the test suite gets to the paper's target
deployment.
"""

import numpy as np

from repro.grid.dag import DagScheduler
from repro.grid.job import Job, JobProfile, JobState
from repro.grid.system import DesktopGrid, GridConfig
from repro.match import make_matchmaker
from repro.metrics.timeline import LoadTimeline
from repro.sim.failure import CrashRecoveryProcess
from repro.workloads import WorkloadConfig, generate_nodes

UNCONSTRAINED = (0.0, 0.0, 0.0)


def build_kitchen_sink(seed=5, n_nodes=60):
    workload = WorkloadConfig(n_nodes=n_nodes, node_mode="mixed")
    nodes = generate_nodes(workload, np.random.default_rng(seed))
    cfg = GridConfig(
        seed=seed,
        heartbeats_enabled=True,
        heartbeat_interval=4.0,
        client_resubmit_enabled=True,
        client_check_interval=10.0,
        client_timeout=120.0,
        client_max_attempts=8,
        match_retries=8,
        match_retry_backoff=8.0,
        result_return="pointer",
        queue_discipline="fair-share",
    )
    return DesktopGrid(cfg, make_matchmaker("rn-tree"), nodes)


class TestKitchenSink:
    def test_everything_at_once_still_delivers(self):
        grid = build_kitchen_sink()
        timeline = LoadTimeline(grid, interval=20.0)

        # A bag-of-tasks client.
        bag_client = grid.client("bag")
        rng = np.random.default_rng(0)
        bag_jobs = []
        for i in range(120):
            req = (float(rng.integers(0, 6)), 0.0, 0.0)
            job = Job(profile=JobProfile(name=f"bag-{i}",
                                         client_id=bag_client.node_id,
                                         requirements=req,
                                         work=float(rng.exponential(40.0)) + 1.0))
            grid.submit_at(float(rng.uniform(0, 200.0)), bag_client, job)
            bag_jobs.append(job)

        # A workflow client with a simulation -> analysis DAG.
        flow_client = grid.client("workflow")
        dag = DagScheduler(grid, flow_client)
        for i in range(6):
            dag.add_job(f"sim-{i}", (3.0, 0.0, 0.0), 30.0)
            dag.add_job(f"ana-{i}", UNCONSTRAINED, 10.0, deps=(f"sim-{i}",),
                        kind="analysis")
        dag.add_job("rollup", UNCONSTRAINED, 5.0,
                    deps=tuple(f"ana-{i}" for i in range(6)))
        grid.sim.schedule(1.0, dag.submit)

        # Continuous churn + a storm at t=100.
        CrashRecoveryProcess(grid.sim, grid.streams["churn"],
                             [n.node_id for n in grid.node_list],
                             crash_fn=grid.crash_node,
                             recover_fn=grid.recover_node,
                             mean_uptime=600.0, mean_downtime=100.0)
        for k, node in enumerate(grid.node_list[::4]):
            grid.sim.schedule_at(100.0 + 0.01 * k, grid.crash_node,
                                 node.node_id)

        assert grid.run_until_done(max_time=60000)
        timeline.stop()

        done_states = {j.state for j in bag_jobs}
        assert done_states <= {JobState.COMPLETED, JobState.LOST}
        completed = [j for j in bag_jobs if j.state is JobState.COMPLETED]
        assert len(completed) >= 0.95 * len(bag_jobs)
        # Result pointers round-tripped through the DHT.
        assert all(j.result == f"output:{j.name}" for j in completed)
        assert grid.network.stats.by_kind.get("result-pointer", 0) > 0

        # The workflow finished in dependency order.
        assert dag.complete
        rollup = dag.nodes["rollup"].job
        for i in range(6):
            assert dag.nodes[f"ana-{i}"].job.finish_time <= rollup.submit_time

        # Recovery machinery actually exercised.
        recoveries = grid.metrics.recoveries
        assert recoveries["run-node"] + recoveries["owner"] > 0
        assert len(timeline.samples) > 10

    def test_churn_run_is_deterministic(self):
        def signature():
            grid = build_kitchen_sink(seed=11, n_nodes=40)
            client = grid.client("d")
            rng = np.random.default_rng(1)
            jobs = [Job(profile=JobProfile(name=f"d-{i}",
                                           client_id=client.node_id,
                                           requirements=UNCONSTRAINED,
                                           work=float(rng.exponential(20.0)) + 1.0))
                    for i in range(40)]
            for i, job in enumerate(jobs):
                grid.submit_at(i * 2.0, client, job)
            CrashRecoveryProcess(grid.sim, grid.streams["churn"],
                                 [n.node_id for n in grid.node_list],
                                 crash_fn=grid.crash_node,
                                 recover_fn=grid.recover_node,
                                 mean_uptime=300.0, mean_downtime=60.0)
            grid.run_until_done(max_time=30000)
            return [(j.name, j.state.value, round(j.finish_time, 9),
                     j.attempt, j.run_node_id) for j in jobs]

        assert signature() == signature()
