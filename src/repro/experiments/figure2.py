"""Figure 2: job wait time for clustered and mixed workloads.

Four panels — (a) average / (b) stdev over clustered workloads, (c)
average / (d) stdev over mixed workloads — each with lightly- and
heavily-constrained job groups and one bar per matchmaker (RN-Tree, CAN,
Centralized).

Expected shape (§3.3): "for most scenarios, the CAN-based matchmaking
framework shows very competitive performance in terms of balancing loads,
even compared to the centralized scheme ... However, under some
conditions the CAN-based algorithm works very poorly due to serious load
imbalance, namely when jobs with few resource requirements are run on
nodes with heterogeneous (mixed) resource capabilities (i.e., the
lightly-constrained workloads in Figures 2(c) and 2(d))."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.parallel import call, map_cells
from repro.experiments.runner import aggregate_outcomes, run_workload
from repro.grid.system import DEFAULT_MAX_TIME
from repro.metrics.report import format_barchart, format_table
from repro.workloads.spec import FIGURE2_SCENARIOS, WorkloadConfig

#: Matchmakers shown in the paper's Figure 2.
FIGURE2_MATCHMAKERS = ("rn-tree", "can", "centralized")

#: Scenario grouping per panel: panels (a)/(b) use clustered workloads,
#: (c)/(d) mixed; each panel has lightly- and heavily-constrained groups.
PANEL_SCENARIOS = {
    "clustered": ("clustered-light", "clustered-heavy"),
    "mixed": ("mixed-light", "mixed-heavy"),
}


@dataclass
class Figure2Result:
    """All four panels: ``values[scenario][matchmaker] = summary dict``."""

    scale: float
    seeds: tuple[int, ...]
    values: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)

    def panel(self, family: str, statistic: str) -> list[list]:
        """Rows for one panel: (constraint level, one column per matchmaker)."""
        rows = []
        for scenario in PANEL_SCENARIOS[family]:
            level = "lightly" if scenario.endswith("light") else "heavily"
            row = [level]
            for mm in FIGURE2_MATCHMAKERS:
                row.append(self.values[scenario][mm][statistic])
            rows.append(row)
        return rows

    PANEL_SPECS = (
        ("Figure 2(a): Average job wait time (s), clustered workloads",
         "clustered", "wait_mean"),
        ("Figure 2(b): STDEV of job wait time (s), clustered workloads",
         "clustered", "wait_std"),
        ("Figure 2(c): Average job wait time (s), mixed workloads",
         "mixed", "wait_mean"),
        ("Figure 2(d): STDEV of job wait time (s), mixed workloads",
         "mixed", "wait_std"),
    )

    def report(self, bars: bool = True) -> str:
        headers = ["constraints", *FIGURE2_MATCHMAKERS]
        parts = []
        truncated = [f"{scenario}/{mm}"
                     for scenario, by_mm in self.values.items()
                     for mm, summary in by_mm.items()
                     if summary.get("all_finished", 1.0) < 1.0]
        if truncated:
            parts.append(
                "*** WARNING: cells hit max_time before the workload "
                "drained (all_finished=0.0) — their wait times are "
                "truncated: " + ", ".join(truncated) + " ***")
        for label, family, stat in self.PANEL_SPECS:
            rows = self.panel(family, stat)
            parts.append(format_table(headers, rows, title=label))
            if bars:
                groups = [
                    (f"{level} constrained",
                     list(zip(FIGURE2_MATCHMAKERS, values)))
                    for level, *values in rows
                ]
                parts.append(format_barchart(f"[panel {label[7:11]} bars]",
                                             groups, unit=" s"))
        tails = self.tail_table()
        if tails:
            parts.append(tails)
        return "\n\n".join(parts)

    def tail_table(self) -> str:
        """Wait-time percentiles per cell — not in the paper's figure, but
        the tail is where the CAN pathology lives; the mean understates it."""
        headers = ["scenario", "matchmaker", "p50 (s)", "p95 (s)", "p99 (s)"]
        rows = []
        for scenario, by_mm in self.values.items():
            for mm, summary in by_mm.items():
                if "wait_p50" not in summary:
                    return ""
                rows.append([scenario, mm,
                             round(summary["wait_p50"], 1),
                             round(summary["wait_p95"], 1),
                             round(summary["wait_p99"], 1)])
        return format_table(headers, rows,
                            title="Wait-time tail percentiles (supplement)")

    def shape_checks(self) -> dict[str, bool]:
        """The qualitative claims the reproduction must reproduce.

        Checks are *relative* (who beats whom, by what factor) rather than
        absolute, because absolute wait times at the paper's near-critical
        offered load are extremely sensitive to the simulated substrate.
        Run with several seeds (``run_figure2(seeds=(1, 2, 3))``) — the
        paper's own figure is a single aggregate too, and per-seed
        dispersion at critical load is large.
        """
        v = self.values

        def wait(scenario: str, mm: str) -> float:
            return v[scenario][mm]["wait_mean"]

        # Degradation of CAN relative to RN-Tree per scenario.
        rel = {sc: wait(sc, "can") / max(wait(sc, "rn-tree"), 1e-9)
               for sc in FIGURE2_SCENARIOS}
        checks = {
            # Centralized is the target: best (or tied) everywhere.
            "centralized_best_everywhere": all(
                wait(sc, "centralized")
                <= min(wait(sc, "can"), wait(sc, "rn-tree")) + 1.0
                for sc in FIGURE2_SCENARIOS
            ),
            # The documented CAN pathology: lightly-constrained jobs on
            # mixed nodes — CAN is much worse than both alternatives.
            "can_pathology_mixed_light":
                wait("mixed-light", "can")
                > 2.0 * max(wait("mixed-light", "rn-tree"), 1.0)
                and wait("mixed-light", "can")
                > 3.0 * max(wait("mixed-light", "centralized"), 1.0),
            # ... and it is specific to that scenario: CAN's degradation
            # versus RN-Tree on mixed-light dwarfs every other scenario's.
            "can_pathology_is_scenario_specific": all(
                rel["mixed-light"] > 1.5 * rel[sc]
                for sc in FIGURE2_SCENARIOS if sc != "mixed-light"
            ),
            # Outside the pathology the two decentralized schemes are
            # competitive with each other (the paper's "very competitive
            # performance ... for most scenarios").
            "can_tracks_rntree_elsewhere": all(
                rel[sc] < 2.5
                for sc in FIGURE2_SCENARIOS if sc != "mixed-light"
            ),
        }
        return checks


def scaled_scenarios(scale: float) -> dict[str, WorkloadConfig]:
    return {name: cfg.scaled(scale) for name, cfg in FIGURE2_SCENARIOS.items()}


def run_figure2(scale: float = 0.25, seeds: tuple[int, ...] = (1,),
                matchmakers: tuple[str, ...] = FIGURE2_MATCHMAKERS,
                max_time: float = DEFAULT_MAX_TIME, telemetry=None,
                jobs: int | None = None,
                grid_overrides: dict | None = None) -> Figure2Result:
    """Run the full Figure 2 grid.  ``scale=1.0`` is paper scale (1000
    nodes / 5000 jobs); smaller scales keep per-node utilization constant
    (see :meth:`WorkloadConfig.scaled`).  ``telemetry`` attaches one
    observability stack across every cell of the grid; ``jobs`` fans the
    (scenario x matchmaker x seed) cells out over worker processes with
    per-cell results identical to the serial sweep.  ``grid_overrides``
    are GridConfig field overrides applied to every cell (e.g. run the
    whole figure under ``probe_mode="rpc"``)."""
    result = Figure2Result(scale=scale, seeds=seeds)
    scenarios = scaled_scenarios(scale)
    groups = [(scenario, mm) for scenario in scenarios for mm in matchmakers]
    outcomes = map_cells(
        run_workload,
        [call(scenarios[scenario], mm, seed=s, max_time=max_time,
              grid_overrides=grid_overrides)
         for scenario, mm in groups for s in seeds],
        jobs=jobs, telemetry=telemetry)
    for i, (scenario, mm) in enumerate(groups):
        cell = outcomes[i * len(seeds):(i + 1) * len(seeds)]
        result.values.setdefault(scenario, {})[mm] = aggregate_outcomes(cell)
    return result
