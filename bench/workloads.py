"""The five benchmark workloads.

A workload is a list of *cells*.  A cell builds its objects in ``setup()``
(everything before the first event or first op: population, overlays, grid,
matchmaker bind, fault plan), does its measured work in ``run()`` and reports
what happened in ``collect()``, which is never on the clock.  All inputs are
made from the seed; the program only ever sees the generated inputs.

Sizes and configurations are fixed here (each workload's ``why`` in
``BENCHMARK.json`` states them); ``quick`` divides every size by 8.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from time import perf_counter
from typing import Any, Mapping

import numpy as np

from repro.dht.can import CANOverlay
from repro.dht.can.node import CANNode
from repro.dht.chord import ChordOverlay
from repro.experiments import runner
from repro.experiments.figure2 import FIGURE2_MATCHMAKERS, Figure2Result
from repro.grid.job import JobState
from repro.grid.system import DEFAULT_MAX_TIME, DesktopGrid, GridConfig
from repro.match import make_matchmaker
from repro.scenarios import Scenario, get_scenario
from repro.sim.network import LatencyModel
from repro.telemetry import timeline
from repro.telemetry.core import Telemetry
from repro.util.rng import RngStreams
from repro.workloads.spec import FIGURE2_SCENARIOS, WorkloadConfig

QUICK_DIVISOR = 8

#: A job counts as started promptly when it waits at most this long (the
#: paper's mean job length), a lookup when its hops times the network's mean
#: hop latency do.
PROMPT_JOB_S = 100.0
PROMPT_LOOKUP_S = 1.0

#: Oracle ownership, bound before any tracer is installed so that checking a
#: lookup never shows up as a span.
_SUCCESSOR_OF = ChordOverlay.successor_of
_ZONE_OWNER = CANOverlay.zone_owner


class GridCell:
    """One grid run: population + matchmaker + optional scenario."""

    def __init__(self, label: str, workload: WorkloadConfig, matchmaker: str,
                 seed: int, *, overrides: Mapping[str, Any] | None = None,
                 scenario: Scenario | None = None,
                 max_time: float = DEFAULT_MAX_TIME,
                 export_path: Path | None = None):
        self.label = label
        self.workload = workload
        self.matchmaker = matchmaker
        self.seed = seed
        self.overrides = dict(overrides or {})
        self.scenario = scenario
        self.max_time = max_time
        #: When set, the cell runs with a full Telemetry attached and its
        #: timed region ends with the timeline build and the JSONL export.
        self.export_path = export_path

    def setup(self) -> None:
        nodes, stream = runner.build_population(self.workload, self.seed)
        overrides = self.overrides
        if self.scenario is not None:
            stream = self.scenario.shaped_stream(stream, self.seed)
            overrides = {**self.scenario.grid_overrides, **overrides}
        cfg = GridConfig(seed=self.seed, spec=self.workload.spec, **overrides)
        self.tel = Telemetry() if self.export_path is not None else None
        self.grid = DesktopGrid(cfg, make_matchmaker(self.matchmaker), nodes,
                                telemetry=self.tel)
        if self.scenario is not None:
            self.scenario.install_faults(self.grid)
        self.stream = stream

    def run(self) -> None:
        grid = self.grid
        t0 = perf_counter()
        self.finished = runner.drive(grid, self.workload, self.stream,
                                     max_time=self.max_time)
        self.summary = grid.metrics.summary(
            node_loads=grid.node_execution_counts())
        if self.tel is not None:
            self.timeline = timeline.timeline_from_bus(self.tel.bus)
            self.tel.export_jsonl(self.export_path)
        self.wall_s = perf_counter() - t0

    def collect(self) -> dict[str, Any]:
        grid, s = self.grid, self.summary
        states = [j.state for j in grid.jobs.values()]
        completed = sum(1 for st in states if st is JobState.COMPLETED)
        terminal = completed + sum(
            1 for st in states if st is JobState.FAILED or st is JobState.LOST)
        waits = grid.metrics.wait_times()
        sim, net, rpc = grid.sim, grid.network.stats, grid.rpc.stats
        out: dict[str, Any] = {
            "label": self.label,
            "kind": "grid",
            "ops": len(self.stream),
            "completed": completed,
            "terminal": terminal,
            "injected": len(states),
            "finished": bool(self.finished),
            "prompt": int((waits <= PROMPT_JOB_S).sum()),
            "wait_sum": float(waits.sum()),
            "summary": s,
            "events": sim.events_processed,
            "events_scheduled": sim.events_scheduled,
            "events_cancelled": sim.events_cancelled,
            "compactions": sim.compactions,
            "timers_scheduled": sim._wheel.timers_scheduled,
            "sim_time": sim.now,
            "msgs_sent": net.sent,
            "msgs_delivered": net.delivered,
            "msgs_dropped": net.dropped_dead_dst + net.dropped_dead_src,
            "rpc_calls": rpc.calls,
            "rpc_timeouts": rpc.timeouts,
            "lookups": {},
        }
        for proto in ("chord", "can"):
            overlay = getattr(grid.matchmaker, proto, None)
            if overlay is not None:
                ls = overlay.lookup_stats
                out["lookups"][proto] = (ls.lookups, ls.failed, ls.total_hops)
        if self.tel is not None:
            out["tel_records"] = len(self.tel.bus)
            out["export_bytes"] = self.export_path.stat().st_size
        return out

    def release(self) -> None:
        self.grid = self.stream = self.tel = self.timeline = None
        if self.export_path is not None:
            self.export_path.unlink(missing_ok=True)


# Overlay op codes.
_CHORD_ROUTE, _CHORD_CRASH, _CHORD_RECOVER = 0, 1, 2
_CAN_ROUTE, _CAN_CRASH, _CAN_JOIN = 3, 4, 5


class OverlayCell:
    """Chord and CAN alone: lookups beside membership changes.

    Each round applies its membership ops and then routes its keys, so
    ownership is static while a round's keys are routed; the clock stops at
    the end of each round, the round's lookups are checked against the
    oracle owner, and the clock starts again.
    """

    def __init__(self, seed: int, *, n_chord: int, n_can: int, dims: int,
                 rounds: int, chord_routes: int, chord_members: int,
                 can_routes: int, can_members: int, lag: int = 8):
        self.label = "overlay"
        self.seed = seed
        self.dims = dims
        g = RngStreams(seed)["bench-overlay"]
        ids = np.unique(g.integers(0, 2 ** 64, size=n_chord + n_chord // 50,
                                   dtype=np.uint64, endpoint=False))
        self.chord_ids = [int(x) for x in g.permutation(ids)[:n_chord]]
        n_can_ids = n_can + can_members
        can_ids = np.unique(g.integers(0, 2 ** 64, size=2 * n_can_ids,
                                       dtype=np.uint64, endpoint=False))
        can_ids = [int(x) for x in g.permutation(can_ids)[:n_can_ids]]
        points = [tuple(float(v) for v in row)
                  for row in g.random((n_can_ids, dims))]
        self.can_nodes = list(zip(can_ids[:n_can], points[:n_can]))
        fresh = list(zip(can_ids[n_can:], points[n_can:]))

        chord_keys = [int(x) for x in g.integers(
            0, 2 ** 64, size=chord_routes, dtype=np.uint64, endpoint=False)]
        can_keys = [tuple(float(v) for v in row)
                    for row in g.random((can_routes, dims))]
        # Chord churn: crash a fresh victim, recover the one crashed ``lag``
        # crashes ago.  CAN churn: crash a random live node, join a new one.
        victims = [self.chord_ids[int(i)] for i in g.choice(
            n_chord, size=chord_members, replace=False)]
        chord_ops: list[tuple[int, Any]] = []
        crashed = 0
        while len(chord_ops) < chord_members:
            chord_ops.append((_CHORD_CRASH, victims[crashed]))
            crashed += 1
            if crashed > lag and len(chord_ops) < chord_members:
                chord_ops.append((_CHORD_RECOVER, victims[crashed - lag - 1]))
        live = [nid for nid, _ in self.can_nodes]
        picks = g.integers(0, 2 ** 31, size=can_members)
        can_ops: list[tuple[int, Any]] = []
        for i in range(can_members):
            if i % 2 == 0:
                can_ops.append(
                    (_CAN_CRASH, live.pop(int(picks[i]) % len(live))))
            else:
                nid, point = fresh.pop()
                can_ops.append((_CAN_JOIN, (nid, point)))
                live.append(nid)

        def share(seq: list, r: int) -> list:
            return seq[r * len(seq) // rounds:(r + 1) * len(seq) // rounds]

        self.rounds = [
            share(chord_ops, r) + [(_CHORD_ROUTE, k) for k in share(chord_keys, r)]
            + share(can_ops, r) + [(_CAN_ROUTE, k) for k in share(can_keys, r)]
            for r in range(rounds)]
        self.n_lookups = chord_routes + can_routes
        self.n_members = chord_members + can_members

    def setup(self) -> None:
        streams = RngStreams(self.seed)
        self.chord = ChordOverlay(streams["chord"])
        self.chord.build(self.chord_ids)
        self.can = CANOverlay(streams["can"], self.dims)
        for nid, point in self.can_nodes:
            self.can.join(CANNode(nid, point))

    def run(self) -> None:
        """:attr:`wall_s` sums the rounds' clocked segments; the oracle
        checks between them are off the clock."""
        chord, can = self.chord, self.can
        hop_limit = PROMPT_LOOKUP_S / LatencyModel().mean
        wall = 0.0
        bad = hops = prompt = 0
        owners: list[int] = []
        for ops in self.rounds:
            routed: list[tuple[int, Any, Any]] = []
            t0 = perf_counter()
            for op, arg in ops:
                if op == _CHORD_ROUTE or op == _CAN_ROUTE:
                    overlay = chord if op == _CHORD_ROUTE else can
                    routed.append((op, arg, overlay.route(arg)))
                elif op == _CHORD_CRASH:
                    chord.crash_repair(arg)
                elif op == _CHORD_RECOVER:
                    chord.recover(arg, oracle=True)
                elif op == _CAN_CRASH:
                    can.crash(arg)
                else:
                    can.join(CANNode(*arg))
            wall += perf_counter() - t0
            for op, key, result in routed:
                oracle = _SUCCESSOR_OF(chord, key) if op == _CHORD_ROUTE \
                    else _ZONE_OWNER(can, key)
                hops += result.hops
                if not result.success or result.owner is not oracle:
                    bad += 1
                    owners.append(-1)
                else:
                    owners.append(result.owner.node_id)
                    if result.hops <= hop_limit:
                        prompt += 1
        self.wall_s = wall
        self.prompt = prompt
        self.bad_lookups = bad
        self.hops = hops
        self.owners = owners

    def collect(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "label": self.label,
            "kind": "overlay",
            "ops": self.n_lookups + self.n_members,
            "lookups_total": self.n_lookups,
            "bad_lookups": self.bad_lookups,
            "prompt": self.prompt,
            "route_hops": self.hops,
            "owners_digest": hash(tuple(self.owners)),
            "chord_size": self.chord.size,
            "can_size": self.can.size,
            "lookups": {},
        }
        for proto, overlay in (("chord", self.chord), ("can", self.can)):
            ls = overlay.lookup_stats
            out["lookups"][proto] = (ls.lookups, ls.failed, ls.total_hops)
        return out

    def release(self) -> None:
        self.chord = self.can = self.owners = None


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Full-size parameters (``why`` states them for BENCHMARK.json).
    size: Mapping[str, Any]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "fig2_match",
        "the paper's Figure 2 grid (4 scenarios x centralized/rn-tree/can, "
        "300 nodes/1500 jobs a cell): matchmaking search, selection and DHT "
        "routing dominate; carries the paper-fidelity shape checks",
        {"scale": 0.3, "cells": 12, "nodes_per_cell": 300,
         "jobs_per_cell": 1500}),
    Workload(
        "scale_2k",
        "failure-free steady state at size (2048 nodes, 4096 jobs, rn-tree, "
        "heartbeats on): ~290 events a job are timers and messages, so the "
        "kernel, periodic tasks and the network dominate; the memory case",
        {"nodes": 2048, "jobs": 4096}),
    Workload(
        "rack_faults",
        "512 nodes/2560 jobs under correlated rack failures with rpc probes "
        "and acked dispatch: the only workload where rpc, crash/join "
        "maintenance, resubmission and owner/run-node recovery run",
        {"nodes": 512, "jobs": 2560, "max_time": 60000.0}),
    Workload(
        "fig2_traced",
        "one Figure 2 cell (mixed-heavy, 400 nodes/2000 jobs, rn-tree, "
        "heartbeats+rpc+ack) with full telemetry, timeline build and JSONL "
        "export in the timed region: every telemetry branch is live",
        {"scale": 0.4, "nodes": 400, "jobs": 2000}),
    Workload(
        "overlay_churn",
        "DHT layer alone: 100000-node Chord and 2048-node 4-d CAN, 40 rounds "
        "of lookups beside crashes/joins, so a routing gain bought with "
        "dearer membership maintenance shows",
        {"n_chord": 100_000, "n_can": 2048, "dims": 4, "rounds": 40,
         "chord_routes": 10_000, "chord_members": 8000,
         "can_routes": 2000, "can_members": 500}),
)}


def build_cells(name: str, seed: int, quick: bool, tmpdir: Path,
                telemetry: bool = True) -> list[Any]:
    """The cells of workload ``name`` for ``seed``, in run order.

    ``telemetry=False`` builds ``fig2_traced``'s cell bare (the reference
    for its on/off determinism check and its overhead ratio).
    """
    div = QUICK_DIVISOR if quick else 1
    size = WORKLOADS[name].size
    if name == "fig2_match":
        return [
            GridCell(f"{scenario}/{mm}", cfg.scaled(size["scale"] / div), mm,
                     seed)
            for scenario, cfg in FIGURE2_SCENARIOS.items()
            for mm in ("centralized", "rn-tree", "can")]
    if name == "scale_2k":
        n = size["nodes"] // div
        workload = dataclasses.replace(
            WorkloadConfig(), n_nodes=n, n_jobs=size["jobs"] // div,
            mean_interarrival=100.0 / n)
        return [GridCell("scale", workload, "rn-tree", seed,
                         overrides={"heartbeats_enabled": True})]
    if name == "rack_faults":
        n = size["nodes"] // div
        workload = WorkloadConfig(
            n_nodes=n, n_jobs=size["jobs"] // div, node_mode="mixed",
            job_mode="mixed", constraint_prob=0.4, mean_work=60.0,
            mean_interarrival=60.0 / (0.5 * n))
        return [GridCell("rack", workload, "rn-tree", seed,
                         overrides={"probe_mode": "rpc", "dispatch_ack": True},
                         scenario=get_scenario("correlated_failure"),
                         max_time=size["max_time"])]
    if name == "fig2_traced":
        workload = FIGURE2_SCENARIOS["mixed-heavy"].scaled(size["scale"] / div)
        return [GridCell("traced" if telemetry else "bare", workload,
                         "rn-tree", seed,
                         overrides={"heartbeats_enabled": True,
                                    "probe_mode": "rpc",
                                    "dispatch_ack": True},
                         export_path=tmpdir / f"telemetry-{seed}.jsonl"
                         if telemetry else None)]
    if name == "overlay_churn":
        scaled = {k: max(v // div, 1) for k, v in size.items()
                  if k not in ("dims", "rounds")}
        return [OverlayCell(seed, dims=size["dims"], rounds=size["rounds"],
                            **scaled)]
    raise KeyError(f"unknown workload {name!r}; "
                   f"choose from {sorted(WORKLOADS)}")


def figure2_shape_checks(cells: list[dict[str, Any]]) -> dict[str, bool]:
    """``Figure2Result.shape_checks()`` over one pass's cell statistics."""
    result = Figure2Result(scale=0.0, seeds=())
    for cell in cells:
        scenario, mm = cell["label"].split("/")
        result.values.setdefault(scenario, {})[mm] = cell["summary"]
    assert all(set(v) == set(FIGURE2_MATCHMAKERS)
               for v in result.values.values())
    return result.shape_checks()


def simulated_stats(cells: list[dict[str, Any]]) -> list[tuple]:
    """The deterministic part of a pass: must be identical across repeats,
    between traced and untraced passes, and with telemetry on or off."""
    out = []
    for c in cells:
        if c["kind"] == "grid":
            s = c["summary"]
            out.append((c["ops"], c["completed"], c["terminal"], c["events"],
                        c["msgs_sent"], c["msgs_delivered"], c["rpc_calls"],
                        c["sim_time"], c["wait_sum"], c["prompt"],
                        s["wait_mean"], s["match_cost_mean"],
                        s["resubmissions"],
                        tuple(sorted(c["lookups"].items()))))
        else:
            out.append((c["ops"], c["bad_lookups"], c["route_hops"],
                        c["owners_digest"], c["chord_size"], c["can_size"],
                        tuple(sorted(c["lookups"].items()))))
    return out
