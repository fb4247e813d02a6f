"""Collects the quantities the paper's evaluation reports.

Figure 2 reports the average and standard deviation of **job wait time**
(submission to execution start); the text additionally claims a "small
number of hops" of matchmaking cost and, for the churn story, recovery
without client resubmission.  The collector records terminal job records
and recovery events; summaries are computed on demand.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.grid.job import Job, JobState
from repro.util.stats import jains_fairness


class MetricsCollector:
    """Sink for job-lifecycle events, owned by a :class:`DesktopGrid`."""

    def __init__(self) -> None:
        self.done: list[Job] = []
        self.recoveries: Counter[str] = Counter()
        #: Per-kind recovery latencies: virtual seconds from the run node's
        #: last sign of life to the owner acting on its loss.
        self.recovery_latencies: dict[str, list[float]] = {}
        self.resubmissions = 0

    # -- event hooks (called by the grid/protocol layer) -------------------

    def on_job_done(self, job: Job) -> None:
        self.done.append(job)

    def on_recovery(self, kind: str, job: Job,
                    latency: float | None = None) -> None:
        self.recoveries[kind] += 1
        if latency is not None:
            self.recovery_latencies.setdefault(kind, []).append(latency)

    def on_resubmission(self, job: Job) -> None:
        self.resubmissions += 1

    # -- views --------------------------------------------------------------

    def completed(self) -> list[Job]:
        return [j for j in self.done if j.state is JobState.COMPLETED]

    def failed(self) -> list[Job]:
        return [j for j in self.done if j.state is JobState.FAILED]

    def lost(self) -> list[Job]:
        return [j for j in self.done if j.state is JobState.LOST]

    def wait_times(self) -> np.ndarray:
        """Wait time (start - submit) of every completed job."""
        return np.array([j.wait_time for j in self.completed()], dtype=float)

    def turnarounds(self) -> np.ndarray:
        return np.array([j.turnaround for j in self.completed()], dtype=float)

    def match_hops(self) -> np.ndarray:
        """Matchmaking overlay hops per completed job (search only)."""
        return np.array([j.match_hops for j in self.completed()], dtype=float)

    def total_matchmaking_cost(self) -> np.ndarray:
        """Hops + probes + pushes per completed job: total messages spent
        placing the job (the paper's "matchmaking cost")."""
        return np.array(
            [j.owner_route_hops + j.match_hops + j.match_probes + j.pushes
             for j in self.completed()],
            dtype=float,
        )

    # -- summaries ------------------------------------------------------------

    def wait_percentiles(self, qs: tuple[float, ...] = (50, 95, 99)
                         ) -> dict[str, float]:
        """Exact wait-time percentiles (``{"wait_p50": ...}``).  The mean
        hides the tail the paper's std-dev bars gesture at; p95/p99 name it
        directly."""
        waits = self.wait_times()
        if not waits.size:
            return {f"wait_p{q:g}": float("nan") for q in qs}
        values = np.percentile(waits, qs)
        return {f"wait_p{q:g}": float(v) for q, v in zip(qs, values)}

    def summary(self, node_loads: list[int] | None = None) -> dict[str, float]:
        waits = self.wait_times()
        hops = self.match_hops()
        cost = self.total_matchmaking_cost()
        jobs = self.completed()

        def mean_of(attr: str) -> float:
            if not jobs:
                return float("nan")
            return float(np.mean([getattr(j, attr) for j in jobs]))

        out: dict[str, float] = {
            "jobs_done": float(len(self.done)),
            "completed": float(len(jobs)),
            "failed": float(len(self.failed())),
            "lost": float(len(self.lost())),
            "wait_mean": float(waits.mean()) if waits.size else float("nan"),
            "wait_std": float(waits.std()) if waits.size else float("nan"),
            "wait_max": float(waits.max()) if waits.size else float("nan"),
            **self.wait_percentiles(),
            "match_hops_mean": float(hops.mean()) if hops.size else float("nan"),
            "match_cost_mean": float(cost.mean()) if cost.size else float("nan"),
            "owner_hops_mean": mean_of("owner_route_hops"),
            "probes_mean": mean_of("match_probes"),
            "pushes_mean": mean_of("pushes"),
            "recoveries_run_node": float(self.recoveries.get("run-node", 0)),
            "recoveries_owner": float(self.recoveries.get("owner", 0)),
            "recoveries_dispatch": float(self.recoveries.get("dispatch", 0)),
            "resubmissions": float(self.resubmissions),
        }
        all_latencies = [v for vals in self.recovery_latencies.values()
                         for v in vals]
        # 0.0 (not nan) when no recovery happened: keeps summaries of
        # identical runs equal (nan != nan) and reads as "nothing to
        # recover" in churn-free experiments.
        out["recovery_latency_mean"] = (
            float(np.mean(all_latencies)) if all_latencies else 0.0)
        if node_loads is not None:
            out["load_fairness"] = jains_fairness(node_loads)
        return out
