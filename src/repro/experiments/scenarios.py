"""Adversarial scenario sweep: scenario x mitigation cells.

The paper's sweeps exercise one benign regime (Poisson arrivals,
exponential runtimes, independent churn at worst).  This experiment
drives the full :mod:`repro.scenarios` catalog — flash crowds, diurnal
cycles, heavy-tailed runtimes, correlated rack failures, partition
storms, owner+run-node double failures — against the grid, once bare
and once with the three mitigation knobs on (speculative re-execution,
hot-owner replication, admission control), so each knob's effect is
attributable per regime.

Every (scenario, mitigation, seed) cell is an independent module-level
function over its own RNG streams, so the sweep fans out through
:func:`repro.experiments.parallel.map_cells` with bit-identical
serial/parallel results; each cell also returns a sha256 fingerprint of
every job's fate so the equality is checkable, not assumed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.experiments.parallel import call, map_cells
from repro.experiments.runner import build_population, drive
from repro.grid.job import JobState
from repro.grid.system import DesktopGrid, GridConfig
from repro.match import make_matchmaker
from repro.metrics.report import format_table
from repro.scenarios import get_scenario, scenario_names
from repro.workloads.spec import WorkloadConfig


@dataclass(frozen=True)
class ScenariosConfig:
    """Sweep parameters (defaults keep a full 8x2 sweep under a minute)."""

    n_nodes: int = 80
    n_jobs: int = 240
    mean_work: float = 60.0
    target_utilization: float = 0.5
    matchmaker: str = "rn-tree"
    max_time: float = 60_000.0

    def workload(self) -> WorkloadConfig:
        interarrival = self.mean_work / (self.target_utilization
                                         * self.n_nodes)
        return WorkloadConfig(
            n_nodes=self.n_nodes, n_jobs=self.n_jobs,
            node_mode="mixed", job_mode="mixed", constraint_prob=0.4,
            mean_work=self.mean_work, mean_interarrival=interarrival,
        )


#: Mitigation settings swept against every scenario.  "none" is the
#: control (all knobs at their bit-identical defaults); "mitigated"
#: turns all three on with thresholds tight enough to fire at this
#: experiment's scale.
MITIGATIONS: Mapping[str, Mapping[str, Any]] = {
    "none": {},
    "mitigated": {
        "speculative": True, "speculative_threshold": 4.0,
        "replicate": True, "replicate_threshold": 4,
        "admission": True, "admission_quota": 48,
    },
}


def _fates_fingerprint(grid: DesktopGrid) -> str:
    """sha256 over every job's terminal fate plus the metrics summary —
    the serial==parallel witness for one cell."""
    h = hashlib.sha256()
    for guid in sorted(grid.jobs):
        job = grid.jobs[guid]
        h.update(f"{guid}:{job.state.name}:{job.attempt}".encode())
    h.update(repr(sorted(grid.metrics.summary().items())).encode())
    h.update(repr(grid.sim.now).encode())
    return h.hexdigest()


def run_scenario_cell(cfg: ScenariosConfig, scenario_name: str,
                      mitigation_name: str, seed: int) -> dict[str, Any]:
    """One (scenario, mitigation, seed) cell — module-level, picklable."""
    scenario = get_scenario(scenario_name)
    workload = cfg.workload()
    nodes, stream = build_population(workload, seed)
    stream = scenario.shaped_stream(stream, seed)
    overrides: dict[str, Any] = dict(scenario.grid_overrides)
    overrides.update(MITIGATIONS[mitigation_name])
    grid_cfg = GridConfig(seed=seed, spec=workload.spec, **overrides)
    grid = DesktopGrid(grid_cfg, make_matchmaker(cfg.matchmaker), nodes)
    scenario.install_faults(grid)
    finished = drive(grid, workload, stream, max_time=cfg.max_time)

    jobs = list(grid.jobs.values())
    n = max(len(jobs), 1)
    s = grid.metrics.summary()
    rejected = sum(c.rejected for c in grid.clients.values())
    return {
        "scenario": scenario_name,
        "mitigation": mitigation_name,
        "seed": seed,
        "finished": float(finished),
        "completed_frac": sum(1 for j in jobs
                              if j.state is JobState.COMPLETED) / n,
        "failed": s["failed"],
        "lost": s["lost"],
        "rejected": float(rejected),
        "resubmissions": s["resubmissions"],
        "recoveries": (s["recoveries_run_node"] + s["recoveries_owner"]
                       + s["recoveries_dispatch"]),
        "speculated": float(grid.metrics.recoveries.get("speculative", 0)),
        "replicated": float(grid.metrics.recoveries.get("replica", 0)),
        "wait_mean": s["wait_mean"],
        "wait_p99": s["wait_p99"],
        "fingerprint": _fates_fingerprint(grid),
    }


@dataclass
class ScenariosResult:
    config: ScenariosConfig
    scenarios: tuple[str, ...]
    mitigations: tuple[str, ...]
    rows: list[list] = field(default_factory=list)
    #: (scenario, mitigation) -> seed-averaged cell summary.
    by_cell: dict[tuple[str, str], dict[str, float]] = field(
        default_factory=dict)
    #: (scenario, mitigation, seed) -> fate fingerprint (serial==parallel
    #: witness; compare across two sweeps of the same config).
    fingerprints: dict[tuple[str, str, int], str] = field(
        default_factory=dict)

    def report(self) -> str:
        return format_table(
            ["scenario", "mitigation", "completed %", "failed", "lost",
             "rejected", "resubmits", "recoveries", "spec", "repl",
             "wait mean (s)", "wait p99 (s)"],
            self.rows,
            title="Adversarial scenarios x mitigation knobs "
                  f"({self.config.matchmaker}, "
                  f"{self.config.n_nodes} nodes / {self.config.n_jobs} jobs)",
        )

    def shape_checks(self) -> dict[str, bool]:
        cells = self.by_cell

        def cell(s: str, m: str) -> dict[str, float]:
            return cells[(s, m)]

        fault_scenarios = [s for s in self.scenarios
                           if s in ("correlated_failure", "partition_storm",
                                    "double_failure")]
        checks = {
            # Every cell must have drained (or been truncated loudly).
            "all_cells_finished": all(c["finished"] == 1.0
                                      for c in cells.values()),
            # The benign control completes essentially everything bare.
            "baseline_completes": cell("baseline", "none")["completed_frac"]
            >= 0.98,
        }
        if fault_scenarios:
            # Fault scenarios must actually hurt: recovery machinery fires.
            checks["faults_exercise_recovery"] = all(
                cell(s, "none")["recoveries"]
                + cell(s, "none")["resubmissions"] > 0
                for s in fault_scenarios)
        if "mitigated" in self.mitigations:
            # The knobs must demonstrably engage somewhere in the sweep.
            checks["speculation_fires"] = any(
                c["speculated"] > 0 for (s, m), c in cells.items()
                if m == "mitigated")
            checks["replication_fires"] = any(
                c["replicated"] > 0 for (s, m), c in cells.items()
                if m == "mitigated")
        return checks


def run_scenarios_experiment(config: ScenariosConfig | None = None,
                             seeds: tuple[int, ...] = (1,),
                             scenarios: tuple[str, ...] | None = None,
                             mitigations: tuple[str, ...] = ("none",
                                                             "mitigated"),
                             jobs: int | None = None) -> ScenariosResult:
    """Sweep scenario x mitigation x seed cells through the parallel engine."""
    cfg = config or ScenariosConfig()
    names = tuple(scenarios) if scenarios is not None \
        else tuple(scenario_names())
    for m in mitigations:
        if m not in MITIGATIONS:
            raise KeyError(f"unknown mitigation {m!r}; "
                           f"choose from {sorted(MITIGATIONS)}")
    result = ScenariosResult(config=cfg, scenarios=names,
                             mitigations=tuple(mitigations))
    cells = [(s, m, seed) for s in names for m in mitigations
             for seed in seeds]
    summaries = map_cells(
        run_scenario_cell, [call(cfg, s, m, seed) for s, m, seed in cells],
        jobs=jobs)
    grouped: dict[tuple[str, str], list[dict]] = {}
    for (s, m, seed), summary in zip(cells, summaries):
        result.fingerprints[(s, m, seed)] = summary["fingerprint"]
        grouped.setdefault((s, m), []).append(summary)
    numeric = ("finished", "completed_frac", "failed", "lost", "rejected",
               "resubmissions", "recoveries", "speculated", "replicated",
               "wait_mean", "wait_p99")
    for (s, m), per_seed in grouped.items():
        agg = {k: float(np.mean([p[k] for p in per_seed])) for k in numeric}
        result.by_cell[(s, m)] = agg
        result.rows.append([
            s, m,
            round(100 * agg["completed_frac"], 1),
            round(agg["failed"], 1),
            round(agg["lost"], 1),
            round(agg["rejected"], 1),
            round(agg["resubmissions"], 1),
            round(agg["recoveries"], 1),
            round(agg["speculated"], 1),
            round(agg["replicated"], 1),
            round(agg["wait_mean"], 1),
            round(agg["wait_p99"], 1),
        ])
    return result
