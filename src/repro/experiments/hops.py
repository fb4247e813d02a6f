"""Matchmaking-cost experiment (paper prose, results "not shown").

"In results not shown, we have verified that both the CAN and RN-Tree can
find an appropriate run node for a job with a small number of hops
through the P2P overlay network."

We regenerate that table: for every Figure 2 scenario and decentralized
matchmaker, the mean overlay hops spent mapping the job to its owner, the
mean search hops spent finding the run node, the candidate load probes,
and the total matchmaking cost per job.  "Small" means O(log N)-flavoured,
far below N.
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
class HopsResult:
    n_nodes: int
    seeds: tuple[int, ...] = (1,)
    rows: list[list] = field(default_factory=list)

    def report(self) -> str:
        replicates = (f", mean of seeds {list(self.seeds)}"
                      if len(self.seeds) > 1 else "")
        return format_table(
            ["scenario", "matchmaker", "owner hops", "search hops",
             "probes", "total cost"],
            self.rows,
            title=f"Matchmaking cost per job, N={self.n_nodes}"
                  f"{replicates} (paper: 'a small number of hops')",
        )

    def shape_checks(self) -> dict[str, bool]:
        total_by_mm: dict[str, list[float]] = {}
        for _scenario, mm, _oh, _sh, _pr, total in self.rows:
            total_by_mm.setdefault(mm, []).append(total)
        # "Small number of hops" means O(log N)-flavoured.  The cost also
        # has constant parts (k candidate probes, the random-walk length),
        # so the bound has an additive floor that dominates at tiny N.
        import math

        bound = 4.0 * math.log2(max(self.n_nodes, 2)) + 12.0
        return {
            f"{mm}_cost_small": max(vals) < min(bound, self.n_nodes / 2)
            for mm, vals in total_by_mm.items()
        }


def run_hops_experiment(scale: float = 0.25, seed: int | None = None,
                        matchmakers: tuple[str, ...] = ("rn-tree", "can"),
                        max_time: float = DEFAULT_MAX_TIME,
                        seeds: tuple[int, ...] = (1,),
                        telemetry=None,
                        jobs: int | None = None) -> HopsResult:
    """Every seed in ``seeds`` is run and the per-seed means averaged
    (``seed=`` remains as a single-seed alias).  Earlier versions accepted
    a seed list upstream and silently ran only the first — if you pass
    several seeds, you now pay for (and get) all of them."""
    if seed is not None:
        seeds = (seed,)
    first = next(iter(FIGURE2_SCENARIOS.values())).scaled(scale)
    result = HopsResult(n_nodes=first.n_nodes, seeds=seeds)
    cols = ("owner_hops_mean", "match_hops_mean", "probes_mean",
            "match_cost_mean")
    groups = [(scenario, workload.scaled(scale), mm)
              for scenario, workload in FIGURE2_SCENARIOS.items()
              for mm in matchmakers]
    outcomes = map_cells(
        run_workload,
        [call(wl, mm, seed=s, max_time=max_time)
         for _scenario, wl, mm in groups for s in seeds],
        jobs=jobs, telemetry=telemetry)
    for i, (scenario, _wl, mm) in enumerate(groups):
        summaries = [o.summary
                     for o in outcomes[i * len(seeds):(i + 1) * len(seeds)]]
        result.rows.append([
            scenario, mm,
            *(round(float(np.mean([s[c] for s in summaries])), 2)
              for c in cols),
        ])
    return result
