"""Machine-readable performance cells for the perf-trajectory benchmark.

Each ``bench_*`` function times one well-defined workload cell and returns
a flat dict of floats; ``test_bench_perf.py`` assembles the cells into
``benchmarks/reports/BENCH_perf.json`` so future PRs can diff wall-clock
against a recorded baseline (``BENCH_perf.baseline.json``).

``BENCH_perf.json`` schema (version 1)::

    {
      "schema": 1,
      "scale": 0.25,              # REPRO_BENCH_SCALE used for the run
      "seeds": [1],               # REPRO_BENCH_SEEDS used for the run
      "cpu_count": 8,             # os.cpu_count() on the measuring host
      "python": "3.12.3",
      "entries": {
        "figure2.serial":   {"wall_s": ..., "cells": 12.0,
                             "cells_per_s": ...},
        "figure2.parallel": {"wall_s": ..., "cells": 12.0,
                             "cells_per_s": ..., "jobs": 4.0,
                             "speedup_vs_serial": ...},
        "kernel.event_loop": {"wall_s": ..., "sim_events": ...,
                              "events_per_s": ...},
        "net.message_throughput": {"wall_s": ..., "messages": ...,
                                   "msgs_per_s": ...},
        "latency.sampling":  {"wall_s": ..., "samples": ...,
                              "samples_per_s": ...},
        "grid.steady_state": {"wall_s": ..., "sim_events": ...,
                              "events_per_s": ..., "n_nodes": ...},
        "rntree.churn_maintenance": {"wall_s": ..., "churn_ops": ...,
                                     "ops_per_s": ..., "n_nodes": ...},
        "grid.large_scale": {"wall_s": ..., "sim_events": ...,
                             "events_per_s": ..., "n_nodes": ...,
                             "mem_peak_mb": ..., "bytes_per_node": ...},
        "dht.churn": {"wall_s": ..., "churn_steps": ..., "lookups": ...,
                      "ops_per_s": ..., "n_nodes": ...,
                      "mem_peak_mb": ..., "bytes_per_node": ...},
        "select.vectorized": {"wall_s": ..., "selects": ...,
                              "selects_per_s": ...,
                              "selects_per_s_scalar": ...,
                              "speedup_vs_scalar": ..., "n_nodes": ...,
                              "k": ...}
      }
    }

Memory fields (``mem_peak_mb``, ``bytes_per_node``) are ``tracemalloc``
peaks measured over the cell body in a *separate accounting pass*: each
memory-carrying cell runs twice, once untraced on the clock (``wall_s``
and the throughput metric come from this pass only) and once under
``tracemalloc`` for the peak.  Tracing costs roughly a microsecond per
object allocation, which used to dominate the timed wall of
allocation-heavy cells — the split keeps the throughput gate about the
simulator and the memory numbers about the simulator's footprint.  The
peaks themselves are computed exactly as before (same tracer, same cell
body), so they remain comparable with baselines recorded under the old
single-pass scheme; ``diff_perf.py`` hard-fails memory metrics that
regress >25% against a same-cpu baseline.

Cells named under ``SCALE_FREE_CELLS`` use fixed internal sizes, so their
throughput numbers are comparable across runs regardless of
``REPRO_BENCH_SCALE`` (``diff_perf.py`` relies on this to compare a CI
run against a baseline recorded at a different scale).

The measurement loops live here (not in the test file) so a baseline can
be recorded with *exactly* the code a later comparison uses.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

PERF_SCHEMA = 1
REPORT_DIR = Path(__file__).parent / "reports"
PERF_PATH = REPORT_DIR / "BENCH_perf.json"
BASELINE_PATH = REPORT_DIR / "BENCH_perf.baseline.json"

#: Cells whose workload size does not depend on REPRO_BENCH_SCALE, and
#: the throughput metric each one reports.
SCALE_FREE_CELLS: dict[str, str] = {
    "net.message_throughput": "msgs_per_s",
    "latency.sampling": "samples_per_s",
    "grid.steady_state": "events_per_s",
    "rntree.churn_maintenance": "ops_per_s",
    "grid.large_scale": "events_per_s",
    "dht.churn": "ops_per_s",
    "scenario.flash_crowd": "events_per_s",
    "grid.correlated_failure": "events_per_s",
    "select.vectorized": "selects_per_s",
}

#: Metrics that report resource footprint, not speed.  Lower is better;
#: tracemalloc peaks are deterministic, so diff_perf hard-fails growth
#: past its ``MEM_FAIL_RATIO`` (+25%) against a same-cpu comparable
#: baseline and warns otherwise.
MEMORY_METRICS: frozenset[str] = frozenset({"mem_peak_mb", "bytes_per_node"})

#: The headline throughput metric of every known cell (scale-dependent
#: cells are only comparable between runs at the same scale).
THROUGHPUT_METRICS: dict[str, str] = {
    "figure2.serial": "cells_per_s",
    "figure2.parallel": "cells_per_s",
    "kernel.event_loop": "events_per_s",
    **SCALE_FREE_CELLS,
}

#: Cells whose throughput scales with worker-process count.  When the
#: baseline document was recorded on a host with a different
#: ``cpu_count``, a "regression" in these cells usually measures the
#: hardware, not the code — diff_perf softens them to a warning.
CPU_SENSITIVE_CELLS: frozenset[str] = frozenset({"figure2.parallel"})

# ----------------------------------------------------------------------
# measurement cells
# ----------------------------------------------------------------------

def bench_figure2(scale: float, seeds: tuple[int, ...],
                  jobs: int | None = None) -> dict[str, float]:
    """Wall-clock of the full Figure 2 sweep (4 scenarios x 3 matchmakers
    x seeds).  ``jobs=None`` runs the historical serial path."""
    from repro.experiments import run_figure2

    kwargs: dict[str, Any] = {} if jobs is None else {"jobs": jobs}
    t0 = perf_counter()
    run_figure2(scale=scale, seeds=seeds, **kwargs)
    wall = perf_counter() - t0
    cells = 4 * 3 * len(seeds)
    out = {"wall_s": wall, "cells": float(cells), "cells_per_s": cells / wall}
    if jobs is not None:
        out["jobs"] = float(jobs)
    return out


def bench_kernel_events(scale: float, seed: int = 1) -> dict[str, float]:
    """Raw kernel throughput: events/sec driving one mixed-heavy cell."""
    from repro.experiments.runner import build_population, drive
    from repro.grid.system import DesktopGrid, GridConfig
    from repro.match import make_matchmaker
    from repro.workloads.spec import FIGURE2_SCENARIOS

    workload = FIGURE2_SCENARIOS["mixed-heavy"].scaled(scale)
    nodes, stream = build_population(workload, seed)
    grid = DesktopGrid(GridConfig(seed=seed, spec=workload.spec),
                       make_matchmaker("rn-tree"), nodes)
    t0 = perf_counter()
    drive(grid, workload, stream)
    wall = perf_counter() - t0
    events = grid.sim.events_processed
    return {"wall_s": wall, "sim_events": float(events),
            "events_per_s": events / wall}


def bench_message_throughput(n_messages: int = 20000,
                             seed: int = 3) -> dict[str, float]:
    """Messages/sec through ``Network.send`` -> delivery with telemetry
    counters attached — isolates the per-message allocation, latency
    sampling, and counter-update cost of the kernel->network->telemetry
    path.  Fixed size: comparable across ``REPRO_BENCH_SCALE`` values.
    """
    import numpy as np

    from repro.sim.kernel import Simulator
    from repro.sim.network import LatencyModel, Network
    from repro.telemetry.core import Telemetry

    kinds = ("heartbeat", "hb-ack", "assign", "result")

    class Echo:
        """Replies to every delivery until the message budget is spent."""

        __slots__ = ("node_id", "alive", "net", "peer", "remaining")

        def __init__(self, node_id, net, remaining):
            self.node_id = node_id
            self.alive = True
            self.net = net
            self.peer = None
            self.remaining = remaining

        def handle_message(self, msg):
            n = self.remaining
            if n > 0:
                self.remaining = n - 1
                self.net.send(kinds[n & 3], self.node_id, self.peer.node_id)

    sim = Simulator()
    rng = np.random.default_rng(seed)
    # Metrics on, per-message trace events filtered out: the counter path
    # is what production-scale runs pay on every message.
    tel = Telemetry(categories=("none",))
    net = Network(sim, rng, LatencyModel(mean=0.01, jitter=0.3),
                  telemetry=tel)
    a = Echo(1, net, n_messages // 2)
    b = Echo(2, net, n_messages - n_messages // 2 - 1)
    a.peer, b.peer = b, a
    net.register(a)
    net.register(b)
    t0 = perf_counter()
    net.send(kinds[0], 1, 2)
    sim.run()
    wall = perf_counter() - t0
    msgs = net.stats.sent
    return {"wall_s": wall, "messages": float(msgs),
            "msgs_per_s": msgs / wall}


def bench_latency_sampling(n_samples: int = 200000,
                           seed: int = 5) -> dict[str, float]:
    """Samples/sec from ``LatencyModel.sample`` — the innermost cost of
    every hop of every message and overlay route.  Fixed size."""
    import numpy as np

    from repro.sim.network import LatencyModel

    model = LatencyModel(mean=0.05, jitter=0.3)
    rng = np.random.default_rng(seed)
    sample = model.sample
    t0 = perf_counter()
    acc = 0.0
    for _ in range(n_samples):
        acc += sample(rng)
    wall = perf_counter() - t0
    assert acc > 0
    return {"wall_s": wall, "samples": float(n_samples),
            "samples_per_s": n_samples / wall}


def bench_grid_steady_state(scale: float = 0.08,
                            seed: int = 2) -> dict[str, float]:
    """Events/sec of a full protocol-heavy grid run: heartbeats, rpc load
    probes, and acknowledged dispatch all enabled, so periodic-task and
    rpc hot paths are on the clock.  Fixed (scaled-down) N: comparable
    across ``REPRO_BENCH_SCALE`` values."""
    from repro.experiments.runner import build_population, drive
    from repro.grid.system import DesktopGrid, GridConfig
    from repro.match import make_matchmaker
    from repro.workloads.spec import FIGURE2_SCENARIOS

    workload = FIGURE2_SCENARIOS["mixed-heavy"].scaled(scale)
    nodes, stream = build_population(workload, seed)
    cfg = GridConfig(seed=seed, spec=workload.spec, heartbeats_enabled=True,
                     probe_mode="rpc", dispatch_ack=True)
    grid = DesktopGrid(cfg, make_matchmaker("rn-tree"), nodes)
    t0 = perf_counter()
    drive(grid, workload, stream)
    wall = perf_counter() - t0
    events = grid.sim.events_processed
    return {"wall_s": wall, "sim_events": float(events),
            "events_per_s": events / wall, "n_nodes": float(workload.n_nodes)}


def bench_rntree_maintenance(n_nodes: int = 150, cycles: int = 150,
                             seed: int = 7) -> dict[str, float]:
    """Serial wall-clock of RN-Tree churn maintenance.

    Builds an rn-tree grid and applies ``cycles`` crash+recover pairs to
    seeded-random victims — isolating exactly the per-update overlay and
    tree maintenance cost the matchmaker pays under churn (no jobs run).
    """
    from repro.experiments.runner import build_population
    from repro.grid.system import DesktopGrid, GridConfig
    from repro.match import make_matchmaker
    from repro.workloads.spec import WorkloadConfig

    workload = WorkloadConfig(n_nodes=n_nodes, n_jobs=1)
    nodes, _ = build_population(workload, seed)
    grid = DesktopGrid(GridConfig(seed=seed), make_matchmaker("rn-tree"),
                       nodes)
    ids = [n.node_id for n in grid.node_list]
    rng = np.random.default_rng(seed)
    t0 = perf_counter()
    for _ in range(cycles):
        victim = ids[int(rng.integers(0, len(ids)))]
        grid.crash_node(victim)
        grid.recover_node(victim)
    wall = perf_counter() - t0
    ops = 2 * cycles
    return {"wall_s": wall, "churn_ops": float(ops), "ops_per_s": ops / wall,
            "n_nodes": float(n_nodes)}


def _traced_peak(run_cell) -> float:
    """Peak traced bytes over one extra run of ``run_cell`` (the memory
    accounting pass — see the module docstring; never on the clock)."""
    import tracemalloc

    tracemalloc.start()
    try:
        run_cell()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return float(peak)


def bench_large_scale_grid(n_nodes: int | None = None,
                           seed: int = 1) -> dict[str, float]:
    """Events/sec plus peak memory of a large-N workload cell.

    Exercises the scale-out kernel paths (timer wheel, batched dispatch,
    columnar registry and job table) at a size the per-job heap path
    never saw.  Fixed default N=2048 (scale-free); set
    ``REPRO_BENCH_LARGE_N=10000`` to opt in to the full-size cell
    locally.  Timing and memory come from separate passes — see the
    module docstring.
    """
    from repro.experiments.large_scale import run_workload_cell

    if n_nodes is None:
        n_nodes = int(os.environ.get("REPRO_BENCH_LARGE_N", "2048"))
    cell = run_workload_cell(n_nodes, seed=seed)
    peak = _traced_peak(lambda: run_workload_cell(n_nodes, seed=seed))
    return {"wall_s": cell.wall_s,
            "sim_events": cell.metrics["sim_events"],
            "events_per_s": cell.metrics["events_per_s"],
            "n_nodes": float(n_nodes),
            "mem_peak_mb": peak / 2**20,
            "bytes_per_node": peak / n_nodes}


def bench_dht_churn(n_nodes: int = 100_000, steps: int = 50,
                    lookups: int = 200, seed: int = 1) -> dict[str, float]:
    """Churn ops/sec plus peak memory of the 100k-node Chord cell.

    Builds the full ring, then crash/repair + rejoin cycles with lookups
    throughout — the membership-scale stress the paper's premise implies
    but never measures.  Fixed size (scale-free); timing and memory come
    from separate passes — see the module docstring.
    """
    from repro.experiments.large_scale import run_churn_cell

    cell = run_churn_cell(n_nodes, steps=steps, lookups=lookups, seed=seed)
    peak = _traced_peak(lambda: run_churn_cell(n_nodes, steps=steps,
                                               lookups=lookups, seed=seed))
    return {"wall_s": cell.wall_s,
            "churn_steps": cell.metrics["churn_steps"],
            "lookups": cell.metrics["lookups"],
            "ops_per_s": cell.metrics["ops_per_s"],
            "n_nodes": float(n_nodes),
            "mem_peak_mb": peak / 2**20,
            "bytes_per_node": peak / n_nodes}


def _bench_scenario(scenario_name: str, n_nodes: int, n_jobs: int,
                    seed: int) -> dict[str, float]:
    """Shared body of the scenario cells: build, shape, arm faults, run."""
    from repro.experiments.runner import build_population, drive
    from repro.grid.system import DesktopGrid, GridConfig
    from repro.match import make_matchmaker
    from repro.scenarios import get_scenario
    from repro.workloads.spec import WorkloadConfig

    scenario = get_scenario(scenario_name)
    mean_work = 60.0
    wl = WorkloadConfig(n_nodes=n_nodes, n_jobs=n_jobs, node_mode="mixed",
                        job_mode="mixed", constraint_prob=0.4,
                        mean_work=mean_work,
                        mean_interarrival=mean_work / (0.5 * n_nodes))
    nodes, stream = build_population(wl, seed)
    stream = scenario.shaped_stream(stream, seed)
    # Full message-level protocol, as in grid.steady_state — the point is
    # what the hot paths cost under the adversarial regime.
    overrides = {"heartbeats_enabled": True, "probe_mode": "rpc",
                 "dispatch_ack": True}
    overrides.update(scenario.grid_overrides)
    cfg = GridConfig(seed=seed, spec=wl.spec, **overrides)
    grid = DesktopGrid(cfg, make_matchmaker("rn-tree"), nodes)
    scenario.install_faults(grid)
    t0 = perf_counter()
    drive(grid, wl, stream, max_time=60_000.0)
    wall = perf_counter() - t0
    events = grid.sim.events_processed
    return {"wall_s": wall, "sim_events": float(events),
            "events_per_s": events / wall, "n_nodes": float(n_nodes)}


def bench_scenario_flash_crowd(n_nodes: int = 96, n_jobs: int = 480,
                               seed: int = 1) -> dict[str, float]:
    """Events/sec through a flash-crowd cell: 25x arrival bursts pile the
    matchmaking and queueing hot paths into narrow windows — the bursty
    regime the steady-state cell never stresses.  Fixed size."""
    return _bench_scenario("flash_crowd", n_nodes, n_jobs, seed)


def bench_grid_correlated_failure(n_nodes: int = 96, n_jobs: int = 480,
                                  seed: int = 1) -> dict[str, float]:
    """Events/sec under correlated rack failures with the full §2
    recovery protocol on: mass crash/recover transitions, monitor-sweep
    probing, and client resubmission all on the clock.  Fixed size."""
    return _bench_scenario("correlated_failure", n_nodes, n_jobs, seed)


def bench_select_vectorized(n_nodes: int = 10_000, k: int = 64,
                            rounds: int = 5_000,
                            seed: int = 9) -> dict[str, float]:
    """Phase-2 selection throughput over 10k-node registry columns, A/B.

    Runs ``rounds`` oracle least-loaded selections of ``k`` candidates
    each against one fixed 10k-node grid, twice: the scalar path (probe
    dict + Python rank) and the vectorized path (``CandidateSet.reg_idx``
    fancy-indexing the ``queue_len`` column).  Both selection loops are
    driven by identically-seeded RNGs, and each draws exactly once per
    selection, so the winners must match element-for-element — the cell
    asserts that A/B identity as a free equivalence check.  Headline
    metric is the vectorized path; the scalar throughput and the speedup
    ride along.  Fixed size (scale-free).
    """
    from repro.experiments.runner import build_population
    from repro.grid.system import DesktopGrid, GridConfig
    from repro.match import make_matchmaker
    from repro.match.select import (
        CandidateSet,
        LeastLoadedPolicy,
        oracle_select,
    )
    from repro.workloads.spec import WorkloadConfig

    wl = WorkloadConfig(n_nodes=n_nodes, n_jobs=1)
    nodes, _ = build_population(wl, seed)
    grid = DesktopGrid(GridConfig(seed=seed, spec=wl.spec),
                       make_matchmaker("centralized"), nodes)
    rng = np.random.default_rng(seed)
    # Seed the load column directly: both paths read registry.queue_len
    # (scalar via .loads(), vectorized via fancy indexing), so this is a
    # pure phase-2 A/B over realistically skewed loads.
    grid.registry.queue_len[:] = rng.poisson(3.0, n_nodes)
    node_list = grid.node_list
    cand_idx = [rng.choice(n_nodes, size=k, replace=False).astype(np.int64)
                for _ in range(rounds)]
    cand_ids = [[node_list[int(i)].node_id for i in idx] for idx in cand_idx]
    policy = LeastLoadedPolicy()

    def run(vectorized: bool) -> tuple[list[int], float]:
        rng_sel = np.random.default_rng(seed + 1)
        winners: list[int] = []
        t0 = perf_counter()
        for idx, ids in zip(cand_idx, cand_ids):
            cset = CandidateSet(candidates=list(ids),
                                reg_idx=idx if vectorized else None)
            ranking, _ = oracle_select(grid, cset, policy, rng_sel)
            winners.append(ranking[0])
        return winners, perf_counter() - t0

    scalar_winners, scalar_s = run(False)
    vec_winners, vec_s = run(True)
    assert vec_winners == scalar_winners, (
        "vectorized selection diverged from the scalar rank")
    return {"wall_s": scalar_s + vec_s, "selects": float(rounds),
            "selects_per_s": rounds / vec_s,
            "selects_per_s_scalar": rounds / scalar_s,
            "speedup_vs_scalar": scalar_s / max(vec_s, 1e-9),
            "n_nodes": float(n_nodes), "k": float(k)}


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def perf_document(scale: float, seeds: tuple[int, ...],
                  entries: dict[str, dict[str, float]]) -> dict[str, Any]:
    return {
        "schema": PERF_SCHEMA,
        "scale": scale,
        "seeds": list(seeds),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "entries": {name: {k: round(float(v), 6) for k, v in cell.items()}
                    for name, cell in entries.items()},
    }


def save_perf(doc: dict[str, Any], path: Path = PERF_PATH) -> Path:
    REPORT_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: Path = BASELINE_PATH) -> dict[str, Any] | None:
    """The committed pre-optimization baseline, if any (schema-checked)."""
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    if doc.get("schema") != PERF_SCHEMA:
        return None
    return doc
