"""Grid-integrated tracing: lifecycle events land in the recorder."""

from repro.grid.job import Job, JobProfile
from repro.grid.system import DesktopGrid, GridConfig
from repro.match import make_matchmaker
from repro.telemetry.bus import TelemetryBus
from repro.workloads import WorkloadConfig, generate_nodes

import numpy as np


def traced_grid(categories=None, n_nodes=10, seed=7):
    nodes = generate_nodes(WorkloadConfig(n_nodes=n_nodes, node_mode="mixed"),
                           np.random.default_rng(seed))
    trace = TelemetryBus(categories=categories)
    grid = DesktopGrid(GridConfig(seed=seed), make_matchmaker("rn-tree"),
                       nodes, trace=trace)
    return grid, trace


def run_jobs(grid, n=5, work=5.0):
    client = grid.client("c")
    jobs = []
    for i in range(n):
        job = Job(profile=JobProfile(name=f"trace-{i}",
                                     client_id=client.node_id,
                                     requirements=(0.0, 0.0, 0.0), work=work))
        grid.submit_at(float(i), client, job)
        jobs.append(job)
    grid.run_until_done(max_time=10000)
    return jobs


class TestLifecycleTracing:
    def test_full_lifecycle_recorded(self):
        grid, trace = traced_grid()
        run_jobs(grid, n=5)
        for category in ("submit", "match", "start", "complete"):
            assert len(trace.by_category(category)) == 5, category

    def test_events_time_ordered_per_job(self):
        grid, trace = traced_grid()
        run_jobs(grid, n=3)
        for i in range(3):
            times = [r.time for r in trace.records
                     if r.detail.get("job") == f"trace-{i}"]
            assert times == sorted(times)
            assert len(times) == 4  # submit, match, start, complete

    def test_category_filter_respected(self):
        grid, trace = traced_grid(categories=["complete"])
        run_jobs(grid, n=4)
        assert len(trace.by_category("complete")) == 4
        assert len(trace.by_category("submit")) == 0

    def test_crash_recovery_events(self):
        grid, trace = traced_grid()
        node = grid.node_list[0]
        grid.crash_node(node.node_id)
        grid.recover_node(node.node_id)
        assert trace.by_category("crash")[0].detail["node"] == node.name
        assert trace.by_category("recover")[0].detail["node"] == node.name

    def test_default_grid_traces_nothing(self):
        nodes = generate_nodes(WorkloadConfig(n_nodes=6, node_mode="mixed"),
                               np.random.default_rng(1))
        grid = DesktopGrid(GridConfig(seed=1), make_matchmaker("centralized"),
                           nodes)
        run_jobs(grid, n=2)
        assert len(grid.trace) == 0

    def test_trace_detail_carries_wait_time(self):
        grid, trace = traced_grid()
        jobs = run_jobs(grid, n=2)
        completes = {r.detail["job"]: r.detail["wait"]
                     for r in trace.by_category("complete")}
        for job in jobs:
            assert completes[job.name] == job.wait_time
