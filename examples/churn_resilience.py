#!/usr/bin/env python
"""Churn resilience: kill nodes mid-run and watch the grid recover.

Demonstrates the §2 fault-tolerance machinery live: heartbeats between
run nodes and owners, owner-side re-matching when a run node dies,
run-node-side owner replacement when an owner dies, and client
resubmission only as a last resort.  Midway through, a scripted
"failure storm" kills a third of the nodes at once.

Run:  python examples/churn_resilience.py
"""

import numpy as np

from repro import DesktopGrid, GridConfig, Job, JobProfile, make_matchmaker
from repro.sim.failure import CrashRecoveryProcess
from repro.workloads import WorkloadConfig, generate_nodes


def main() -> None:
    workload = WorkloadConfig(n_nodes=120, node_mode="mixed")
    nodes = generate_nodes(workload, np.random.default_rng(3))
    cfg = GridConfig(
        seed=3,
        heartbeats_enabled=True,
        heartbeat_interval=5.0,
        client_resubmit_enabled=True,
        client_timeout=180.0,
    )
    grid = DesktopGrid(cfg, make_matchmaker("rn-tree"), nodes)
    client = grid.client("survivor")

    rng = np.random.default_rng(0)
    jobs = []
    for i in range(300):
        job = Job(profile=JobProfile(
            name=f"resilient-{i}", client_id=client.node_id,
            requirements=(0.0, 0.0, 0.0),
            work=float(rng.exponential(60.0)) + 1.0))
        grid.submit_at(float(rng.uniform(0, 300.0)), client, job)
        jobs.append(job)

    # Background churn: every node alternates ~8-minute uptimes with
    # ~2-minute outages.
    CrashRecoveryProcess(
        grid.sim, grid.streams["churn"],
        [n.node_id for n in grid.node_list],
        crash_fn=grid.crash_node, recover_fn=grid.recover_node,
        mean_uptime=480.0, mean_downtime=120.0)

    # ... and a scripted failure storm at t=150 s: a third of the grid
    # vanishes within one second.
    storm_victims = [n.node_id for n in grid.node_list[::3]]
    for k, nid in enumerate(storm_victims):
        grid.sim.schedule_at(150.0 + k * 0.01, grid.crash_node, nid)

    print(f"running: {len(jobs)} jobs, continuous churn, "
          f"failure storm of {len(storm_victims)} nodes at t=150 s")
    grid.run_until_done(max_time=100_000)

    summary = grid.metrics.summary()
    completed = int(summary["completed"])
    first_try = sum(1 for j in jobs if j.is_done and j.attempt == 1)
    print(f"completed            : {completed}/{len(jobs)}")
    print(f"without resubmission : {first_try} "
          f"({100 * first_try / len(jobs):.1f}%)")
    print(f"run-node recoveries  : {summary['recoveries_run_node']:.0f} "
          f"(owner re-matched a silent run node)")
    print(f"owner recoveries     : {summary['recoveries_owner']:.0f} "
          f"(run node recruited a replacement owner)")
    print(f"client resubmissions : {summary['resubmissions']:.0f} "
          f"(both owner and run node lost)")
    print(f"mean turnaround      : "
          f"{grid.metrics.turnarounds().mean():.1f} s")


if __name__ == "__main__":
    main()
