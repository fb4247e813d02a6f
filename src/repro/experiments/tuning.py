"""Protocol-tuning ablations for the grid layer's soft-state machinery.

The paper fixes its protocol constants implicitly ("periodically sends
heartbeat messages", "a time period determined by the computational
complexity of the job"); these sweeps quantify the trade-offs behind
those choices:

* **Heartbeat interval** — failure-detection latency vs heartbeat
  traffic.  Run-node recovery cannot begin before ``interval *
  miss_limit`` seconds of silence, and owner loss surfaces only at the
  next failed heartbeat, so sparse heartbeats stretch turnaround under
  churn; dense heartbeats multiply per-job messaging.
* **RN-Tree random-walk length** (§3.1 "limited random walk") — the walk
  decorrelates search start points; with uniformly hashed job GUIDs the
  *owner* mapping is already uniform, so the walk mostly trades extra
  hops for a small dispersion benefit — measured here honestly.
* **Network latency sensitivity** — matchmaking consumes overlay hops,
  so a slower WAN stretches the pre-queue pipeline; the claim that
  matchmaking cost is negligible presumes queueing dominates, which this
  sweep verifies (wait times barely move while per-job protocol latency
  scales with the RTT).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.runner import build_population, drive
from repro.grid.system import DesktopGrid, GridConfig
from repro.match import make_matchmaker
from repro.metrics.report import format_table
from repro.sim.failure import CrashRecoveryProcess
from repro.workloads.spec import FIGURE2_SCENARIOS, WorkloadConfig


# ----------------------------------------------------------------------
# heartbeat interval sweep
# ----------------------------------------------------------------------

@dataclass
class HeartbeatResult:
    rows: list[list] = field(default_factory=list)
    by_interval: dict[float, dict[str, float]] = field(default_factory=dict)

    def report(self) -> str:
        return format_table(
            ["hb interval (s)", "protocol msgs/job", "completed %",
             "turnaround mean (s)", "run-node recoveries"],
            self.rows,
            title="Heartbeat cadence: detection latency vs soft-state traffic",
        )

    def shape_checks(self) -> dict[str, bool]:
        intervals = sorted(self.by_interval)
        lo, hi = self.by_interval[intervals[0]], self.by_interval[intervals[-1]]
        return {
            "dense_heartbeats_cost_messages":
                lo["msgs_per_job"] > 2.0 * hi["msgs_per_job"],
            "sparse_heartbeats_slow_recovery":
                hi["turnaround_mean"] > lo["turnaround_mean"],
            "all_settings_complete":
                all(s["completed_frac"] > 0.95
                    for s in self.by_interval.values()),
        }


def run_heartbeat_sweep(intervals: tuple[float, ...] = (2.0, 5.0, 10.0, 20.0),
                        n_nodes: int = 100, n_jobs: int = 300,
                        seed: int = 1, max_time: float = 40000.0
                        ) -> HeartbeatResult:
    result = HeartbeatResult()
    for interval in intervals:
        workload = WorkloadConfig(
            n_nodes=n_nodes, n_jobs=n_jobs, node_mode="mixed",
            job_mode="mixed", constraint_prob=0.4, mean_work=60.0,
            mean_interarrival=60.0 / (0.4 * n_nodes),
        )
        nodes, stream = build_population(workload, seed)
        cfg = GridConfig(seed=seed, heartbeats_enabled=True,
                         heartbeat_interval=interval,
                         client_resubmit_enabled=True,
                         client_timeout=max(240.0, 10 * interval),
                         client_max_attempts=8,
                         match_retries=10,
                         match_retry_backoff=interval)
        grid = DesktopGrid(cfg, make_matchmaker("rn-tree"), nodes)
        CrashRecoveryProcess(grid.sim, grid.streams["churn"],
                             [n.node_id for n in grid.node_list],
                             crash_fn=grid.crash_node,
                             recover_fn=grid.recover_node,
                             mean_uptime=500.0, mean_downtime=120.0)
        drive(grid, workload, stream, max_time=max_time)
        s = grid.metrics.summary()
        protocol_msgs = sum(
            grid.network.stats.by_kind.get(kind, 0)
            for kind in ("heartbeat", "status"))
        summary = {
            "msgs_per_job": protocol_msgs / max(s["completed"], 1.0),
            "completed_frac": s["completed"] / max(len(grid.jobs), 1),
            "turnaround_mean": float(grid.metrics.turnarounds().mean())
            if s["completed"] else float("nan"),
            "recoveries": s["recoveries_run_node"],
        }
        result.by_interval[interval] = summary
        result.rows.append([
            interval,
            round(summary["msgs_per_job"], 1),
            round(100 * summary["completed_frac"], 1),
            round(summary["turnaround_mean"], 1),
            round(summary["recoveries"], 0),
        ])
    return result


# ----------------------------------------------------------------------
# RN-Tree random-walk length sweep
# ----------------------------------------------------------------------

@dataclass
class WalkLengthResult:
    rows: list[list] = field(default_factory=list)
    by_len: dict[int, dict[str, float]] = field(default_factory=dict)

    def report(self) -> str:
        return format_table(
            ["walk length", "wait mean (s)", "wait stdev (s)", "match cost"],
            self.rows,
            title="RN-Tree limited random walk: length vs balance/cost",
        )

    def shape_checks(self) -> dict[str, bool]:
        lens = sorted(self.by_len)
        lo, hi = self.by_len[lens[0]], self.by_len[lens[-1]]
        return {
            "longer_walk_costs_hops":
                hi["match_cost_mean"] > lo["match_cost_mean"],
            # Uniform GUID hashing already spreads owners, so the walk must
            # not *hurt* balance materially either way.
            "walk_does_not_destroy_balance":
                hi["wait_mean"] < 2.0 * lo["wait_mean"] + 10.0
                and lo["wait_mean"] < 2.0 * hi["wait_mean"] + 10.0,
        }


def run_walk_length_sweep(lengths: tuple[int, ...] = (0, 1, 3, 6),
                          scale: float = 0.2, seed: int = 1,
                          max_time: float = 1e6) -> WalkLengthResult:
    from repro.experiments.runner import run_workload

    workload = FIGURE2_SCENARIOS["mixed-light"].scaled(scale)
    result = WalkLengthResult()
    for length in lengths:
        s = run_workload(workload, "rn-tree", seed=seed,
                         mm_kwargs={"random_walk_len": length},
                         max_time=max_time).summary
        result.by_len[length] = s
        result.rows.append([length, round(s["wait_mean"], 2),
                            round(s["wait_std"], 2),
                            round(s["match_cost_mean"], 2)])
    return result


# ----------------------------------------------------------------------
# network-latency sensitivity
# ----------------------------------------------------------------------

@dataclass
class LatencyResult:
    rows: list[list] = field(default_factory=list)
    by_latency: dict[float, dict[str, float]] = field(default_factory=dict)

    def report(self) -> str:
        return format_table(
            ["mean hop latency (ms)", "wait mean (s)", "wait stdev (s)",
             "match cost (msgs)"],
            self.rows,
            title="WAN latency sensitivity: queueing dominates matchmaking "
                  "delay",
        )

    def shape_checks(self) -> dict[str, bool]:
        lats = sorted(self.by_latency)
        lo, hi = self.by_latency[lats[0]], self.by_latency[lats[-1]]
        # 20x slower network must not move wait times by even 2x: queueing,
        # not matchmaking, dominates — the premise behind accepting DHT
        # indirection at all.
        return {
            "queueing_dominates_latency":
                hi["wait_mean"] < 2.0 * lo["wait_mean"] + 10.0,
        }


def run_latency_sensitivity(latencies_ms: tuple[float, ...] = (10.0, 50.0, 200.0),
                            scale: float = 0.2, seed: int = 1,
                            max_time: float = 1e6) -> LatencyResult:
    from repro.experiments.runner import run_workload

    workload = FIGURE2_SCENARIOS["clustered-light"].scaled(scale)
    result = LatencyResult()
    for ms in latencies_ms:
        cfg = GridConfig(seed=seed, mean_latency=ms / 1000.0)
        s = run_workload(workload, "rn-tree", seed=seed, grid_cfg=cfg,
                         max_time=max_time).summary
        result.by_latency[ms] = s
        result.rows.append([ms, round(s["wait_mean"], 2),
                            round(s["wait_std"], 2),
                            round(s["match_cost_mean"], 2)])
    return result
