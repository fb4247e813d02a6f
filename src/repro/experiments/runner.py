"""Shared experiment machinery: build a grid, drive a workload, summarize.

The A/B discipline matters here: for a given (workload config, seed), the
node population and job stream are generated *once* from dedicated RNG
streams and replayed identically against every matchmaker, so wait-time
differences are attributable to matchmaking alone — the same methodology
as the paper's simulator comparisons.

Sweeps fan out over worker processes through
:func:`repro.experiments.parallel.map_cells`; each (workload, matchmaker,
seed) cell owns its RNG, so per-cell outcomes are bit-identical whether
the sweep runs serially or with ``jobs > 1``.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.experiments.parallel import call, map_cells
from repro.grid.job import Job
from repro.grid.system import DEFAULT_MAX_TIME, DesktopGrid, GridConfig
from repro.match import make_matchmaker
from repro.util.rng import RngStreams
from repro.workloads.jobs import ScheduledJob, generate_job_stream
from repro.workloads.nodes import generate_nodes
from repro.workloads.spec import WorkloadConfig

log = logging.getLogger("repro.experiments")


@dataclass
class RunOutcome:
    """Results of one grid run."""

    matchmaker: str
    workload: WorkloadConfig
    seed: int
    summary: dict[str, float]
    wait_times: np.ndarray = field(repr=False)
    match_costs: np.ndarray = field(repr=False)
    node_exec_counts: list[int] = field(repr=False, default_factory=list)
    sim_time: float = 0.0
    finished: bool = True
    events: int = 0


def build_population(workload: WorkloadConfig, seed: int
                     ) -> tuple[list[tuple[str, tuple[float, ...]]], list[ScheduledJob]]:
    """Generate the (nodes, job stream) pair for a workload+seed."""
    streams = RngStreams(seed)
    nodes = generate_nodes(workload, streams["workload-nodes"])
    jobs = generate_job_stream(workload, streams["workload-jobs"],
                               [cap for _, cap in nodes])
    return nodes, jobs


def drive(grid: DesktopGrid, workload: WorkloadConfig,
          stream: list[ScheduledJob],
          max_time: float = DEFAULT_MAX_TIME) -> bool:
    """Create clients, schedule the whole stream, and run to completion."""
    clients = [grid.client(f"client-{i}") for i in range(workload.n_clients)]
    for sj in stream:
        client = clients[sj.client_index]
        job = Job(profile=sj.profile(client.node_id))
        grid.submit_at(sj.submit_time, client, job)
    return grid.run_until_done(max_time=max_time)


def run_workload(workload: WorkloadConfig, matchmaker: str, seed: int = 1,
                 grid_cfg: GridConfig | None = None,
                 mm_kwargs: dict[str, Any] | None = None,
                 max_time: float = DEFAULT_MAX_TIME,
                 telemetry=None,
                 grid_overrides: dict[str, Any] | None = None) -> RunOutcome:
    """Run one (workload, matchmaker, seed) cell and summarize it.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) attaches the
    observability stack to the grid for this run; metrics accumulate into
    it across calls, so one instance can aggregate a whole sweep.
    ``grid_overrides`` are :class:`GridConfig` field overrides applied on
    top of the default (or given) config — e.g. ``{"probe_mode": "rpc"}``
    to trace an experiment under the message-level pipeline.
    """
    nodes, stream = build_population(workload, seed)
    if grid_cfg is not None:
        cfg = dataclasses.replace(grid_cfg, **grid_overrides) \
            if grid_overrides else grid_cfg
    else:
        cfg = GridConfig(seed=seed, spec=workload.spec,
                         **(grid_overrides or {}))
    grid = DesktopGrid(cfg, make_matchmaker(matchmaker, **(mm_kwargs or {})),
                       nodes, telemetry=telemetry)
    finished = drive(grid, workload, stream, max_time=max_time)
    counts = grid.node_execution_counts()
    return RunOutcome(
        matchmaker=matchmaker,
        workload=workload,
        seed=seed,
        summary=grid.metrics.summary(node_loads=counts),
        wait_times=grid.metrics.wait_times(),
        match_costs=grid.metrics.total_matchmaking_cost(),
        node_exec_counts=counts,
        sim_time=grid.sim.now,
        finished=finished,
        events=grid.sim.events_processed,
    )


def aggregate_outcomes(outcomes: list[RunOutcome]) -> dict[str, float]:
    """Mean-of-replicates summary of one cell group.

    ``wait_std`` is averaged across replicates (each replicate's stdev is
    the within-run dispersion the paper plots), not pooled.  Truncated
    replicates (``max_time`` hit before the workload drained) are loudly
    flagged — the summary still averages them, but ``all_finished`` drops
    to 0.0 and a warning is logged, because truncated waits understate
    the truth.
    """
    keys = outcomes[0].summary.keys()
    agg = {k: float(np.mean([o.summary[k] for o in outcomes])) for k in keys}
    agg["replicates"] = float(len(outcomes))
    truncated = [o for o in outcomes if not o.finished]
    agg["all_finished"] = float(not truncated)
    if truncated:
        log.warning(
            "%d of %d replicate(s) for matchmaker %r hit max_time before "
            "draining (seeds %s); the averaged summary includes truncated "
            "runs and understates wait times",
            len(truncated), len(outcomes), outcomes[0].matchmaker,
            [o.seed for o in truncated])
    return agg


def run_replicates(workload: WorkloadConfig, matchmaker: str,
                   seeds: tuple[int, ...] = (1, 2, 3),
                   mm_kwargs: dict[str, Any] | None = None,
                   max_time: float = DEFAULT_MAX_TIME, telemetry=None,
                   jobs: int | None = None) -> dict[str, float]:
    """Mean-of-replicates summary over multiple seeds.

    A shared ``telemetry`` instance accumulates metrics over every
    replicate.  ``jobs`` fans the replicates out over worker processes
    (see :mod:`repro.experiments.parallel`); outcomes are identical to
    the serial run because each seed owns its RNG streams.
    """
    outcomes = map_cells(
        run_workload,
        [call(workload, matchmaker, seed=s, mm_kwargs=mm_kwargs,
              max_time=max_time) for s in seeds],
        jobs=jobs, telemetry=telemetry)
    return aggregate_outcomes(outcomes)
