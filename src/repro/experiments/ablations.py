"""Ablations of the design choices DESIGN.md calls out.

* **Virtual dimension** (§3.2): without it, identical nodes cannot split a
  zone at all (construction fails for clustered populations), and
  identical jobs pile onto "the single node that owns the zone containing
  the origin".  We measure both effects.
* **Extended search k** (§3.1): the RN-Tree keeps searching "until at
  least k capable nodes are found for better load balancing"; we sweep k
  to show the cost/balance trade-off.
* **TTL random walk** (§4): "such mechanisms may fail to find a resource
  capable of running a given job, even though such a resource exists
  somewhere in the network" — we count exactly those failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.parallel import call, map_cells
from repro.experiments.runner import build_population, run_workload
from repro.grid.system import DEFAULT_MAX_TIME, DesktopGrid, GridConfig
from repro.match import make_matchmaker
from repro.metrics.report import format_table
from repro.workloads.spec import FIGURE2_SCENARIOS, WorkloadConfig


# ----------------------------------------------------------------------
# virtual dimension
# ----------------------------------------------------------------------

@dataclass
class VirtualDimResult:
    clustered_construction_fails: bool = False
    rows: list[list] = field(default_factory=list)
    by_variant: dict[str, dict[str, float]] = field(default_factory=dict)

    def report(self) -> str:
        lines = [
            "Virtual-dimension ablation",
            "==========================",
            "CAN construction over *clustered* (identical) nodes without the "
            f"virtual dimension fails: {self.clustered_construction_fails} "
            "(identical representative points cannot split a zone).",
            "",
            format_table(
                ["variant", "wait mean (s)", "wait stdev (s)", "completed"],
                self.rows,
                title="Mixed nodes / clustered (identical) jobs",
            ),
        ]
        return "\n".join(lines)

    def shape_checks(self) -> dict[str, bool]:
        return {
            "no_vdim_cannot_split_identical_nodes":
                self.clustered_construction_fails,
            "vdim_improves_identical_jobs":
                self.by_variant["can (virtual dim)"]["wait_mean"]
                < self.by_variant["can (no virtual dim)"]["wait_mean"],
        }


def run_virtual_dimension_ablation(scale: float = 0.2, seed: int = 1,
                                   max_time: float = DEFAULT_MAX_TIME,
                                   jobs: int | None = None
                                   ) -> VirtualDimResult:
    result = VirtualDimResult()

    # Part 1: clustered nodes, no virtual dimension -> zone splits between
    # coincident points are impossible; construction must fail loudly.
    clustered = FIGURE2_SCENARIOS["clustered-light"].scaled(scale)
    nodes, _ = build_population(clustered, seed)
    try:
        DesktopGrid(GridConfig(seed=seed),
                    make_matchmaker("can", use_virtual_dimension=False), nodes)
    except ValueError:
        result.clustered_construction_fails = True

    # Part 2: the job-spreading half of the fix.  Nodes keep their virtual
    # coordinate (any realistic discrete-level population has coincident
    # capability points, so construction *needs* it — part 1), but jobs get
    # either a fixed virtual coordinate (identical jobs -> one owner zone,
    # "all of those jobs will be mapped to the single node that owns the
    # zone") or the paper's random one.
    workload = WorkloadConfig(node_mode="mixed", job_mode="clustered",
                              constraint_prob=0.4, job_classes=4).scaled(scale)
    variants = (
        ("can (no virtual dim)", {"job_virtual_spread": False}),
        ("can (virtual dim)", {"job_virtual_spread": True}),
    )
    outcomes = map_cells(
        run_workload,
        [call(workload, "can", seed=seed, mm_kwargs=kwargs,
              max_time=max_time) for _label, kwargs in variants],
        jobs=jobs)
    for (label, _kwargs), outcome in zip(variants, outcomes):
        s = outcome.summary
        result.by_variant[label] = s
        result.rows.append([label, round(s["wait_mean"], 2),
                            round(s["wait_std"], 2), int(s["completed"])])
    return result


# ----------------------------------------------------------------------
# RN-Tree extended-search k sweep
# ----------------------------------------------------------------------

@dataclass
class KSweepResult:
    rows: list[list] = field(default_factory=list)
    by_k: dict[int, dict[str, float]] = field(default_factory=dict)

    def report(self) -> str:
        return format_table(
            ["k", "wait mean (s)", "wait stdev (s)", "match cost"],
            self.rows,
            title="RN-Tree extended search: candidates k vs balance/cost",
        )

    def shape_checks(self) -> dict[str, bool]:
        ks = sorted(self.by_k)
        lo, hi = self.by_k[ks[0]], self.by_k[ks[-1]]
        return {
            # More candidates -> better balance (lower dispersion)...
            "larger_k_better_balance": hi["wait_std"] < lo["wait_std"],
            # ... at higher matchmaking cost.
            "larger_k_costlier": hi["match_cost_mean"] > lo["match_cost_mean"],
        }


def run_k_sweep_ablation(ks: tuple[int, ...] = (1, 2, 4, 8),
                         scale: float = 0.2, seed: int = 1,
                         max_time: float = DEFAULT_MAX_TIME,
                         jobs: int | None = None) -> KSweepResult:
    workload = FIGURE2_SCENARIOS["mixed-heavy"].scaled(scale)
    result = KSweepResult()
    outcomes = map_cells(
        run_workload,
        [call(workload, "rn-tree", seed=seed, mm_kwargs={"k": k},
              max_time=max_time) for k in ks],
        jobs=jobs)
    for k, outcome in zip(ks, outcomes):
        s = outcome.summary
        result.by_k[k] = s
        result.rows.append([k, round(s["wait_mean"], 2),
                            round(s["wait_std"], 2),
                            round(s["match_cost_mean"], 2)])
    return result


# ----------------------------------------------------------------------
# TTL random walk
# ----------------------------------------------------------------------

@dataclass
class TTLResult:
    rows: list[list] = field(default_factory=list)
    by_mm: dict[str, dict[str, float]] = field(default_factory=dict)

    def report(self) -> str:
        return format_table(
            ["matchmaker", "failed (feasible!) jobs", "wait mean (s)",
             "match cost"],
            self.rows,
            title="TTL random walk vs structured matchmaking "
                  "(heavily constrained, mixed)",
        )

    def shape_checks(self) -> dict[str, bool]:
        return {
            # The walk misses feasible resources; structured search doesn't.
            "ttl_misses_feasible_jobs": self.by_mm["ttl-walk"]["failed"] > 0,
            "structured_finds_all": self.by_mm["rn-tree"]["failed"] == 0,
        }


def run_ttl_ablation(scale: float = 0.2, seed: int = 1, ttl: int | None = 6,
                     max_time: float = DEFAULT_MAX_TIME,
                     jobs: int | None = None) -> TTLResult:
    # Heavily constrained mixed jobs: few satisfying nodes per job, so a
    # short blind walk frequently misses them all (every job is feasible
    # by construction — see repro.workloads.jobs).
    workload = FIGURE2_SCENARIOS["mixed-heavy"].scaled(scale)
    result = TTLResult()
    cells = (("ttl-walk", {"ttl": ttl}), ("rn-tree", {}), ("can", {}))
    outcomes = map_cells(
        run_workload,
        [call(workload, mm, seed=seed, mm_kwargs=kwargs,
              max_time=max_time) for mm, kwargs in cells],
        jobs=jobs)
    for (mm, _kwargs), outcome in zip(cells, outcomes):
        s = outcome.summary
        result.by_mm[mm] = s
        result.rows.append([mm, int(s["failed"]), round(s["wait_mean"], 2),
                            round(s["match_cost_mean"], 2)])
    return result
