"""Robustness-under-churn experiment (the paper's titular claim).

§1: a client-server desktop grid "is vulnerable to a single point of
failure.  No new jobs can be assigned to a client whenever the server
becomes unavailable ... which results in inherent shortcomings with
respect to robustness, reliability and scalability."  §2 describes the
P2P remedy: replicated owner/run state, heartbeats, and mutual recovery,
with client resubmission only when *both* parties die.

This experiment runs the same churning worker population under

* the P2P grid (RN-Tree and pushing-CAN matchmaking, decentralized
  owners), and
* a client-server comparator (one server owns every job; its job
  database survives outages — the paper grants the server a database —
  but while it is out, nothing can be matched or recovered),

and reports completion rates, how many jobs needed client resubmission
(the P2P design goal is: almost none), recovery counts, and turnaround.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.parallel import call, map_cells
from repro.experiments.runner import build_population, drive
from repro.grid.job import JobState
from repro.grid.system import DesktopGrid, GridConfig
from repro.match import make_matchmaker
from repro.metrics.report import format_table
from repro.sim.failure import CrashRecoveryProcess
from repro.workloads.spec import WorkloadConfig


@dataclass(frozen=True)
class ChurnConfig:
    """Churn-experiment parameters (defaults keep runtime modest)."""

    n_nodes: int = 120
    n_jobs: int = 400
    mean_work: float = 60.0
    target_utilization: float = 0.45
    mean_uptime: float = 500.0     # worker exponential up-time
    mean_downtime: float = 120.0   # worker exponential down-time
    server_uptime: float = 400.0   # server outage process (client-server only)
    server_downtime: float = 120.0
    heartbeat_interval: float = 5.0
    client_timeout: float = 240.0
    max_time: float = 40000.0

    def workload(self) -> WorkloadConfig:
        # interarrival chosen so offered load = target_utilization.
        interarrival = self.mean_work / (self.target_utilization * self.n_nodes)
        return WorkloadConfig(
            n_nodes=self.n_nodes, n_jobs=self.n_jobs,
            node_mode="mixed", job_mode="mixed", constraint_prob=0.4,
            mean_work=self.mean_work, mean_interarrival=interarrival,
        )


@dataclass
class ChurnResult:
    config: ChurnConfig
    rows: list[list] = field(default_factory=list)
    by_system: dict[str, dict[str, float]] = field(default_factory=dict)

    def report(self) -> str:
        return format_table(
            ["system", "completed %", "no-resubmit %", "lost",
             "run-node recoveries", "owner recoveries", "resubmissions",
             "turnaround mean (s)"],
            self.rows,
            title="Robustness under churn: P2P recovery vs client-server "
                  "single point of failure",
        )

    def shape_checks(self) -> dict[str, bool]:
        p2p = self.by_system["p2p/rn-tree"]
        srv = self.by_system["client-server"]
        return {
            # The P2P grid absorbs churn through owner/run recovery ...
            "p2p_high_completion": p2p["completed_frac"] >= 0.97,
            # ... with (almost) no client resubmissions,
            "p2p_few_resubmissions": p2p["no_resubmit_frac"] >= 0.95,
            # while the client-server grid leans on client resubmission and
            # stalls during outages.
            "server_more_resubmissions": srv["resubmissions"]
                > 2.0 * p2p["resubmissions"] + 1.0,
            "server_slower_turnaround": srv["turnaround_mean"]
                > p2p["turnaround_mean"],
        }


def _grid_config(cc: ChurnConfig, seed: int) -> GridConfig:
    return GridConfig(
        seed=seed,
        heartbeats_enabled=True,
        heartbeat_interval=cc.heartbeat_interval,
        client_resubmit_enabled=True,
        client_check_interval=cc.heartbeat_interval * 4,
        client_timeout=cc.client_timeout,
        client_max_attempts=8,
        match_retries=10,
        match_retry_backoff=cc.heartbeat_interval * 2,
    )


def _run_system(cc: ChurnConfig, system: str, seed: int) -> dict[str, float]:
    workload = cc.workload()
    nodes, stream = build_population(workload, seed)
    if system == "client-server":
        matchmaker = make_matchmaker("centralized", server_mode=True)
    else:
        matchmaker = make_matchmaker(system.split("/", 1)[1])
    grid = DesktopGrid(_grid_config(cc, seed), matchmaker, nodes)

    churn_rng = grid.streams["churn"]
    if system == "client-server":
        server_id = matchmaker.server.node_id
        workers = [n.node_id for n in grid.node_list if n.node_id != server_id]
        # The server suffers outages that preserve its database.
        CrashRecoveryProcess(grid.sim, grid.streams["server-outage"],
                             [server_id],
                             crash_fn=grid.partition_node,
                             recover_fn=grid.heal_node,
                             mean_uptime=cc.server_uptime,
                             mean_downtime=cc.server_downtime)
    else:
        workers = [n.node_id for n in grid.node_list]
    CrashRecoveryProcess(grid.sim, churn_rng, workers,
                         crash_fn=grid.crash_node,
                         recover_fn=grid.recover_node,
                         mean_uptime=cc.mean_uptime,
                         mean_downtime=cc.mean_downtime)

    drive(grid, workload, stream, max_time=cc.max_time)

    jobs = list(grid.jobs.values())
    completed = [j for j in jobs if j.state is JobState.COMPLETED]
    n = max(len(jobs), 1)
    s = grid.metrics.summary()
    turnarounds = grid.metrics.turnarounds()
    return {
        "completed_frac": len(completed) / n,
        "no_resubmit_frac": sum(1 for j in completed if j.attempt == 1) / n,
        "lost": float(sum(1 for j in jobs
                          if j.state not in (JobState.COMPLETED, JobState.FAILED))),
        "recoveries_run_node": s["recoveries_run_node"],
        "recoveries_owner": s["recoveries_owner"],
        "resubmissions": s["resubmissions"],
        "turnaround_mean": float(turnarounds.mean()) if turnarounds.size else float("nan"),
    }


SYSTEMS = ("p2p/rn-tree", "p2p/can-push", "client-server")


def run_churn_experiment(config: ChurnConfig | None = None,
                         seeds: tuple[int, ...] = (1,),
                         systems: tuple[str, ...] = SYSTEMS,
                         jobs: int | None = None) -> ChurnResult:
    cc = config or ChurnConfig()
    result = ChurnResult(config=cc)
    summaries = map_cells(
        _run_system,
        [call(cc, system, seed) for system in systems for seed in seeds],
        jobs=jobs)
    for i, system in enumerate(systems):
        per_seed = summaries[i * len(seeds):(i + 1) * len(seeds)]
        agg = {k: float(np.mean([p[k] for p in per_seed])) for k in per_seed[0]}
        result.by_system[system] = agg
        result.rows.append([
            system,
            round(100 * agg["completed_frac"], 1),
            round(100 * agg["no_resubmit_frac"], 1),
            round(agg["lost"], 1),
            round(agg["recoveries_run_node"], 1),
            round(agg["recoveries_owner"], 1),
            round(agg["resubmissions"], 1),
            round(agg["turnaround_mean"], 1),
        ])
    return result
