"""Matchmaking-pipeline ablation: selection policy × probe mode under churn.

The two-phase pipeline (see :mod:`repro.match.select`) makes two choices
orthogonal and therefore sweepable:

* **probe mode** — ``oracle`` (zero-time load reads, the historical
  simulator shortcut) vs ``rpc`` (real request/reply probes with
  timeouts, plus acknowledged dispatch);
* **selection policy** — ``least-loaded`` (the paper's rule), ``random``
  (no probing at all), ``power-of-d`` (probe a constant-size sample).

This experiment runs every cell over the same churning worker population
and reports matchmaking cost and wait time alongside the robustness
story: under ``rpc`` mode, a run node that dies between being probed and
receiving the job surfaces as a *dispatch ack timeout* and the owner
falls back to the next-ranked candidate within one rpc timeout — instead
of waiting for the heartbeat monitor sweep (``heartbeat_interval ×
heartbeat_miss_limit`` virtual seconds) to notice the silence.  The
"mean recovery latency" column quantifies that gap.
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

#: The sweep axes.
PROBE_MODES = ("oracle", "rpc")
SELECTION_POLICIES = ("least-loaded", "power-of-d", "random")


@dataclass(frozen=True)
class MatchPipeConfig:
    """Ablation parameters (defaults keep runtime modest)."""

    matchmaker: str = "rn-tree"
    n_nodes: int = 100
    n_jobs: int = 300
    mean_work: float = 60.0
    target_utilization: float = 0.5
    mean_uptime: float = 250.0    # aggressive churn: dispatch races happen
    mean_downtime: float = 60.0
    heartbeat_interval: float = 5.0
    heartbeat_miss_limit: int = 3
    probe_timeout: float = 1.0
    max_time: float = 60000.0

    def workload(self) -> WorkloadConfig:
        interarrival = self.mean_work / (self.target_utilization * self.n_nodes)
        return WorkloadConfig(
            n_nodes=self.n_nodes, n_jobs=self.n_jobs,
            node_mode="mixed", job_mode="mixed", constraint_prob=0.4,
            mean_work=self.mean_work, mean_interarrival=interarrival,
        )

    @property
    def sweep_timeout(self) -> float:
        """The monitor sweep's detection horizon the ack path undercuts."""
        return self.heartbeat_interval * self.heartbeat_miss_limit


@dataclass
class MatchPipeResult:
    config: MatchPipeConfig
    rows: list[list] = field(default_factory=list)
    #: ``(probe_mode, policy) -> aggregated per-cell summary``.
    by_cell: dict[tuple[str, str], dict[str, float]] = field(
        default_factory=dict)

    def report(self) -> str:
        cc = self.config
        return format_table(
            ["probe mode", "policy", "wait mean (s)", "match cost",
             "probes/job", "completed %", "run-node rec", "dispatch rec",
             "recovery latency (s)"],
            self.rows,
            title=f"Matchmaking pipeline ablation ({cc.matchmaker}, "
                  "churned workers; monitor sweep detects in "
                  f"~{cc.sweep_timeout:.0f}s)",
        )

    def shape_checks(self) -> dict[str, bool]:
        ll_oracle = self.by_cell[("oracle", "least-loaded")]
        rnd_oracle = self.by_cell[("oracle", "random")]
        ll_rpc = self.by_cell[("rpc", "least-loaded")]
        rnd_rpc = self.by_cell[("rpc", "random")]
        pod_rpc = self.by_cell[("rpc", "power-of-d")]
        # The probe step already weeds out dead candidates, so the
        # probe→assign race window is narrow; pool the rpc cells to judge
        # the ack-timeout path (any single cell can see zero races).
        rpc_cells = [cell for (mode, _), cell in self.by_cell.items()
                     if mode == "rpc"]
        raced = [cell for cell in rpc_cells
                 if cell["recoveries_dispatch"] > 0]
        return {
            # Load-aware selection is the point of matchmaking: probing
            # beats blind placement in both probe modes.
            "least_loaded_beats_random_oracle":
                ll_oracle["wait_mean"] < rnd_oracle["wait_mean"],
            "least_loaded_beats_random_rpc":
                ll_rpc["wait_mean"] < rnd_rpc["wait_mean"],
            # power-of-d probes less than least-loaded (constant vs all).
            "power_of_d_probes_fewer":
                pod_rpc["probes_mean"] < ll_rpc["probes_mean"],
            # Churn keeps every cell productive.
            "all_cells_complete": all(
                cell["completed_frac"] >= 0.9
                for cell in self.by_cell.values()),
            # The robustness claim: ack'd dispatch recovers from a run
            # node dying mid-dispatch in ~one rpc timeout — far inside
            # the monitor sweep's detection horizon.
            "dispatch_recoveries_observed": bool(raced),
            "dispatch_recovery_beats_sweep": all(
                cell["dispatch_latency_mean"]
                < 0.5 * self.config.sweep_timeout
                for cell in raced),
        }


def _grid_config(cc: MatchPipeConfig, probe_mode: str, policy: str,
                 seed: int) -> GridConfig:
    return GridConfig(
        seed=seed,
        heartbeats_enabled=True,
        heartbeat_interval=cc.heartbeat_interval,
        heartbeat_miss_limit=cc.heartbeat_miss_limit,
        client_resubmit_enabled=True,
        client_check_interval=cc.heartbeat_interval * 4,
        client_timeout=240.0,
        client_max_attempts=8,
        match_retries=10,
        match_retry_backoff=cc.heartbeat_interval * 2,
        probe_mode=probe_mode,
        selection_policy=policy,
        probe_timeout=cc.probe_timeout,
        # Ack'd dispatch is the rpc pipeline's failure-detection payoff;
        # oracle mode keeps the historical fire-and-forget assign.
        dispatch_ack=(probe_mode == "rpc"),
    )


def _run_cell(cc: MatchPipeConfig, probe_mode: str, policy: str,
              seed: int) -> dict[str, float]:
    workload = cc.workload()
    nodes, stream = build_population(workload, seed)
    grid = DesktopGrid(_grid_config(cc, probe_mode, policy, seed),
                       make_matchmaker(cc.matchmaker), nodes)
    CrashRecoveryProcess(grid.sim, grid.streams["churn"],
                         [n.node_id for n in grid.node_list],
                         crash_fn=grid.crash_node,
                         recover_fn=grid.recover_node,
                         mean_uptime=cc.mean_uptime,
                         mean_downtime=cc.mean_downtime)
    drive(grid, workload, stream, max_time=cc.max_time)

    jobs = list(grid.jobs.values())
    completed = [j for j in jobs if j.state is JobState.COMPLETED]
    s = grid.metrics.summary()
    dispatch_lat = grid.metrics.recovery_latencies.get("dispatch", [])
    return {
        "wait_mean": s["wait_mean"],
        "match_cost_mean": s["match_cost_mean"],
        "probes_mean": s["probes_mean"],
        "completed_frac": len(completed) / max(len(jobs), 1),
        "recoveries_run_node": s["recoveries_run_node"],
        "recoveries_dispatch": s["recoveries_dispatch"],
        "dispatch_latency_mean": (float(np.mean(dispatch_lat))
                                  if dispatch_lat else 0.0),
    }


def run_matchpipe_ablation(config: MatchPipeConfig | None = None,
                           seeds: tuple[int, ...] = (1,),
                           jobs: int | None = None) -> MatchPipeResult:
    cc = config or MatchPipeConfig()
    result = MatchPipeResult(config=cc)
    groups = [(probe_mode, policy) for probe_mode in PROBE_MODES
              for policy in SELECTION_POLICIES]
    summaries = map_cells(
        _run_cell,
        [call(cc, probe_mode, policy, seed)
         for probe_mode, policy in groups for seed in seeds],
        jobs=jobs)
    for i, (probe_mode, policy) in enumerate(groups):
        per_seed = summaries[i * len(seeds):(i + 1) * len(seeds)]
        agg = {k: float(np.mean([p[k] for p in per_seed]))
               for k in per_seed[0]}
        result.by_cell[(probe_mode, policy)] = agg
        result.rows.append([
            probe_mode,
            policy,
            round(agg["wait_mean"], 1),
            round(agg["match_cost_mean"], 2),
            round(agg["probes_mean"], 2),
            round(100 * agg["completed_frac"], 1),
            round(agg["recoveries_run_node"], 1),
            round(agg["recoveries_dispatch"], 1),
            round(agg["dispatch_latency_mean"], 2),
        ])
    return result
