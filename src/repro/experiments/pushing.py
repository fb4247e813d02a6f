"""Load-aware pushing experiment (paper §3.3, "preliminary experiments").

"We have verified that the modified CAN-based matchmaking mechanism
dramatically improves the quality of load balancing compared to the basic
CAN scheme presented here, still with low matchmaking cost."

Regenerated on the pathological scenario the pushing mechanism was built
for — lightly-constrained jobs on mixed nodes — comparing basic CAN,
pushing CAN, and the centralized target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.parallel import call, map_cells
from repro.experiments.runner import aggregate_outcomes, run_workload
from repro.grid.system import DEFAULT_MAX_TIME
from repro.metrics.report import format_table
from repro.workloads.spec import FIGURE2_SCENARIOS


@dataclass
class PushingResult:
    rows: list[list] = field(default_factory=list)
    by_mm: dict[str, dict[str, float]] = field(default_factory=dict)

    def report(self) -> str:
        return format_table(
            ["matchmaker", "wait mean (s)", "wait stdev (s)",
             "match cost", "pushes/job"],
            self.rows,
            title="Load-aware pushing on the pathological workload "
                  "(mixed nodes, lightly-constrained jobs)",
        )

    def shape_checks(self) -> dict[str, bool]:
        can = self.by_mm["can"]
        push = self.by_mm["can-push"]
        cent = self.by_mm["centralized"]
        return {
            # "Dramatically improves": at least a 3x wait-time reduction.
            "push_dramatically_improves": push["wait_mean"]
                < can["wait_mean"] / 3.0,
            # And lands near the centralized target (same order).
            "push_near_centralized": push["wait_mean"]
                <= 10.0 * max(cent["wait_mean"], 1.0) + 30.0,
            # "Still with low matchmaking cost."
            "push_cost_low": push["match_cost_mean"] < can["match_cost_mean"] + 20.0,
        }


def run_pushing_experiment(scale: float = 0.25, seeds: tuple[int, ...] = (1,),
                           max_time: float = DEFAULT_MAX_TIME,
                           telemetry=None,
                           jobs: int | None = None) -> PushingResult:
    workload = FIGURE2_SCENARIOS["mixed-light"].scaled(scale)
    result = PushingResult()
    matchmakers = ("can", "can-push", "centralized")
    outcomes = map_cells(
        run_workload,
        [call(workload, mm, seed=s, max_time=max_time)
         for mm in matchmakers for s in seeds],
        jobs=jobs, telemetry=telemetry)
    for i, mm in enumerate(matchmakers):
        s = aggregate_outcomes(outcomes[i * len(seeds):(i + 1) * len(seeds)])
        result.by_mm[mm] = s
        result.rows.append([
            mm,
            round(s["wait_mean"], 2),
            round(s["wait_std"], 2),
            round(s["match_cost_mean"], 2),
            round(s["pushes_mean"], 2),
        ])
    return result
