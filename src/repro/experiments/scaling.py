"""Grid-scale sweep: the paper's headline "scalable" claim (§1).

"Our goal is to design and build a scalable infrastructure ... Such
infrastructure must be decentralized, robust, highly available, and
scalable."  Concretely: growing the population at *constant per-node
offered load* must keep job wait times flat (no coordination bottleneck)
while matchmaking cost grows only logarithmically — against the implicit
alternative of centralized designs whose server works linearly harder.

We sweep N with the same offered load (`WorkloadConfig.scaled` keeps
``work / (interarrival * N)`` constant) and report wait time and
matchmaking messages per job for the decentralized matchmakers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.parallel import call, map_cells
from repro.experiments.runner import run_workload
from repro.grid.system import DEFAULT_MAX_TIME
from repro.metrics.report import format_table
from repro.workloads.spec import FIGURE2_SCENARIOS


@dataclass
class ScalingResult:
    sizes: tuple[int, ...]
    matchmakers: tuple[str, ...]
    #: (matchmaker, n) -> summary dict
    cells: dict[tuple[str, int], dict[str, float]] = field(default_factory=dict)

    def report(self) -> str:
        rows = []
        for mm in self.matchmakers:
            for n in self.sizes:
                s = self.cells[(mm, n)]
                rows.append([mm, n, round(s["wait_mean"], 1),
                             round(s["wait_std"], 1),
                             round(s["match_cost_mean"], 2),
                             round(float(np.log2(n)), 1)])
        return format_table(
            ["matchmaker", "N", "wait mean (s)", "wait stdev (s)",
             "cost msgs/job", "log2 N"],
            rows,
            title="Grid scalability: constant offered load, growing "
                  "population",
        )

    def shape_checks(self) -> dict[str, bool]:
        checks = {}
        n_lo, n_hi = self.sizes[0], self.sizes[-1]
        for mm in self.matchmakers:
            lo = self.cells[(mm, n_lo)]
            hi = self.cells[(mm, n_hi)]
            # Matchmaking cost grows logarithmically: allow a generous
            # per-doubling hop budget (+ slack), which linear growth blows
            # through immediately.
            doublings = np.log2(n_hi / n_lo)
            allowed = 5.0 * doublings + 3.0
            checks[f"{mm}_cost_logarithmic"] = (
                hi["match_cost_mean"] - lo["match_cost_mean"] < allowed)
            # ... and wait times do not blow up with scale (no bottleneck;
            # they typically *improve* through statistical multiplexing).
            checks[f"{mm}_wait_flat"] = hi["wait_mean"] < 2.0 * lo["wait_mean"] + 30.0
        return checks


def run_scaling_experiment(sizes: tuple[int, ...] = (64, 128, 256, 512),
                           matchmakers: tuple[str, ...] = ("rn-tree", "can-push"),
                           seed: int = 1, scenario: str = "mixed-heavy",
                           max_time: float = DEFAULT_MAX_TIME,
                           jobs: int | None = None) -> ScalingResult:
    base = FIGURE2_SCENARIOS[scenario]
    result = ScalingResult(sizes=sizes, matchmakers=matchmakers)
    groups = [(n, mm) for n in sizes for mm in matchmakers]
    outcomes = map_cells(
        run_workload,
        [call(base.scaled(n / base.n_nodes), mm, seed=seed,
              max_time=max_time) for n, mm in groups],
        jobs=jobs)
    for (n, mm), outcome in zip(groups, outcomes):
        result.cells[(mm, n)] = outcome.summary
    return result
