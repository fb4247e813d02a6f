"""Passes, timing, memory, and the assembly of both metric sets.

Shape of a workload run: one full-size pass that is never on the clock (it
warms imports and numpy caches and gives ``mem_peak_mb``), then timed repeats
on freshly built objects from the same seed, garbage collected between
cells.  Timings are medians over the repeats; simulated statistics must be
bit-identical across all passes.  A traced run adds one more pass with the
wrappers of ``tracer.py`` installed; end-to-end metrics never come from it.
"""

from __future__ import annotations

import gc
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import checks
import tracer as tracing
from workloads import (WORKLOADS, build_cells, figure2_shape_checks)

#: Timed repeats a run makes at least (the median and the IQR need them).
MIN_REPEATS = 3
#: Set-up samples a run collects at most, and the time it may spend on the
#: extra set-up-only builds that top the repeats' samples up.
SETUP_SAMPLES = 7
SETUP_EXTRA_S = 1.0


@dataclass
class Pass:
    setup_s: float
    wall_s: float
    cells: list[dict[str, Any]]


@dataclass
class Report:
    workload: str
    seed: int
    quick: bool
    end_to_end: dict[str, float]
    per_layer: dict[str, float] | None
    #: Numbers printed for the reader that are not gated metrics.
    info: dict[str, Any]
    violations: list[checks.Violation]
    attempted: int
    span_dump: Path | None = None
    skipped_wrappers: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.violations

    @property
    def failed(self) -> int:
        return min(self.attempted, sum(v.ops for v in self.violations))


def run_pass(cells: list[Any], tr: tracing.Tracer | None = None) -> Pass:
    """Set up and run every cell once; set-up and run are clocked apart."""
    setup_s = wall_s = 0.0
    stats = []
    for cell in cells:
        gc.collect()
        if tr is not None:
            tr.begin_phase("setup")
        t0 = perf_counter()
        cell.setup()
        setup_s += perf_counter() - t0
        if tr is not None:
            tr.begin_phase("run")
        cell.run()
        wall_s += cell.wall_s
        if tr is not None:
            tr.begin_phase("off")
        stats.append(cell.collect())
        cell.release()
    if tr is not None:
        tr.begin_phase(None)
    return Pass(setup_s, wall_s, stats)


def setup_only(cells: list[Any]) -> float:
    total = 0.0
    for cell in cells:
        gc.collect()
        t0 = perf_counter()
        cell.setup()
        total += perf_counter() - t0
        cell.release()
    return total


def peak_rss_mb() -> float:
    """The process's peak resident set so far (Linux reports KiB).

    ``tracemalloc`` slows these workloads five- to six-fold, which a run
    cannot afford; the kernel's high-water mark costs nothing and repeats
    within half a percent.  It includes the interpreter and imports (about
    38 MB) and never falls, so it is a workload's own peak only in a process
    that has not run another workload before.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spread(values: list[float]) -> float:
    """IQR over median, as the acceptance rule computes it."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def total(cells: list[dict[str, Any]], key: str) -> float:
    return sum(c.get(key, 0) for c in cells)


def end_to_end(cells: list[dict[str, Any]], setup_s: float, wall_s: float,
               mem_peak_mb: float) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics (and reader's extras) of one workload run."""
    ops = int(total(cells, "ops"))
    if cells[0]["kind"] == "grid":
        not_ok = ops - int(total(cells, "completed"))
        judged = ops
        msgs = total(cells, "msgs_sent")
        wait_mean = ratio(total(cells, "wait_sum"), total(cells, "completed"))
    else:
        not_ok = int(total(cells, "bad_lookups"))
        judged = int(total(cells, "lookups_total"))
        msgs = total(cells, "route_hops")
        wait_mean = None
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops_per_s": ops / wall_s,
        "mem_peak_mb": mem_peak_mb,
        "ok_frac": (ops - not_ok) / ops,
        "sim_prompt_frac": total(cells, "prompt") / judged,
        "sim_msgs_per_op": msgs / judged,
    }
    info = {"ops": ops, "failed_frac": not_ok / ops,
            "sim_wait_mean_s": wait_mean}
    return metrics, info


def per_layer(tr: tracing.Tracer, counters: tracing.PlanCounters,
              traced: Pass, wall_s: float, repeat_spread: float,
              bare_wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass."""
    cells = traced.cells
    both, run, setup = ("setup", "run"), ("run",), ("setup",)
    traced_wall = traced.setup_s + traced.wall_s
    # The wrappers clock their own bookkeeping; it belongs to no layer, so
    # shares are taken of the wall that is left without it.
    program_wall = traced_wall - tr.overhead_s
    out: dict[str, float] = {}
    layers: dict[str, dict[str, float]] = {}
    attributed = tr.overhead_s
    for layer in tracing.LAYERS:
        st = tr.phase_stat(both, layer=layer)
        layers[layer] = {"calls": st["calls"], "self_s": st["self_s"],
                         "share": st["self_s"] / program_wall}
        attributed += st["self_s"]
        for key, value in layers[layer].items():
            out[f"{layer}.{key}"] = value

    def fn(phases, **sel):
        return tr.phase_stat(phases, **sel)

    def summed(key: str, weight: str = "completed") -> float:
        """Job-weighted mean of a ``summary()`` entry over grid cells."""
        pairs = [(c["summary"][key], c[weight]) for c in cells
                 if c["kind"] == "grid" and c[weight]]
        return ratio(sum(v * w for v, w in pairs), sum(w for _, w in pairs))

    def summary_total(key: str) -> float:
        return sum(c["summary"][key] for c in cells if c["kind"] == "grid")

    events = total(cells, "events")
    out["sim.kernel.events"] = events
    out["sim.kernel.events_per_s"] = events / wall_s
    out["sim.kernel.us_per_event"] = \
        ratio(layers["sim.kernel"]["self_s"], events) * 1e6
    out["sim.kernel.cancelled_frac"] = ratio(
        total(cells, "events_cancelled"), total(cells, "events_scheduled"))
    out["sim.kernel.timers_scheduled"] = total(cells, "timers_scheduled")
    out["sim.kernel.compactions"] = total(cells, "compactions")
    for q in (50, 99):
        out[f"sim.kernel.callback_p{q}_us"] = \
            tracing.hist_percentile_us(tr.callback_hist, q)

    sent = total(cells, "msgs_sent")
    out["sim.network.msgs_sent"] = sent
    out["sim.network.us_per_msg"] = \
        ratio(layers["sim.network"]["self_s"], sent) * 1e6
    out["sim.network.drop_frac"] = ratio(total(cells, "msgs_dropped"), sent)
    rpc_calls = total(cells, "rpc_calls")
    out["sim.rpc.us_per_call"] = \
        ratio(layers["sim.rpc"]["self_s"], rpc_calls) * 1e6
    out["sim.rpc.timeout_frac"] = ratio(total(cells, "rpc_timeouts"),
                                        rpc_calls)

    for proto, cls in (("chord", "ChordOverlay"), ("can", "CANOverlay")):
        lookups, failed, hops = (
            sum(c["lookups"].get(proto, (0, 0, 0))[i] for c in cells)
            for i in range(3))
        members = [fn(run, name=f"{cls}.{m}") for m in
                   ("join", "crash", "crash_repair", "recover", "leave")]
        # crash_repair runs inside its own crash(); count the op once.
        member_ops = sum(m["calls"] for m in members) - members[2]["calls"]
        p = f"dht.{proto}"
        hist = tr.hist_of(f"{cls}.route")
        out[f"{p}.lookups"] = lookups
        out[f"{p}.route_p50_us"] = tracing.hist_percentile_us(hist, 50)
        out[f"{p}.route_p99_us"] = tracing.hist_percentile_us(hist, 99)
        out[f"{p}.hops_mean"] = ratio(hops, lookups)
        out[f"{p}.fail_frac"] = ratio(failed, lookups)
        out[f"{p}.membership_ops"] = member_ops
        out[f"{p}.us_per_membership_op"] = ratio(
            sum(m["self_s"] for m in members), member_ops) * 1e6
        out[f"{p}.build_s"] = fn(setup, layer=p)["self_s"]

    from repro.match import MATCHMAKERS
    for mm in ("rn-tree", "can", "centralized"):
        st = fn(both, name=f"{MATCHMAKERS[mm].__name__}.search")
        out[f"match.search.us_per_search.{mm}"] = \
            ratio(st["incl_s"], st["calls"]) * 1e6
    st = fn(both, suffix="find_owner")
    out["match.search.us_per_owner_route"] = \
        ratio(st["incl_s"], st["calls"]) * 1e6
    out["match.search.hops_mean"] = summed("match_hops_mean")
    out["match.search.candidates_mean"] = ratio(counters.search_candidates,
                                                counters.searches)
    out["match.search.empty_frac"] = ratio(counters.search_empty,
                                           counters.searches)
    out["match.search.cost_mean"] = summed("match_cost_mean")
    out["match.select.us_per_select"] = ratio(
        layers["match.select"]["self_s"],
        counters.searches - counters.search_empty) * 1e6
    out["match.select.probes_mean"] = summed("probes_mean")
    churn = [fn(run, suffix=m) for m in ("on_crash", "on_join")]
    out["match.maintain.bind_s"] = fn(setup, layer="match.maintain")["self_s"]
    out["match.maintain.us_per_membership_op"] = ratio(
        sum(m["self_s"] for m in churn), sum(m["calls"] for m in churn)) * 1e6
    out["match.maintain.queue_notes"] = \
        fn(both, suffix="note_queue_change")["calls"]

    st = fn(both, name="GridNode.handle_message")
    out["grid.node.msgs_handled"] = st["calls"]
    out["grid.node.us_per_msg"] = ratio(st["self_s"], st["calls"]) * 1e6
    out["grid.node.recoveries_run_node"] = summary_total("recoveries_run_node")
    out["grid.node.recoveries_owner"] = summary_total("recoveries_owner")
    flips = [fn(both, name=f"GridNode.{m}")
             for m in ("crash", "recover", "partition", "heal")]
    out["grid.node.us_per_liveness_flip"] = ratio(
        sum(m["incl_s"] for m in flips), sum(m["calls"] for m in flips)) * 1e6
    out["grid.client.submissions"] = fn(both, name="Client.submit")["calls"]
    out["grid.client.resubmissions"] = summary_total("resubmissions")
    out["grid.system.injects"] = fn(both, name="DesktopGrid.inject")["calls"]
    out["grid.system.build_s"] = fn(setup, layer="grid.system")["self_s"]
    out["metrics.summary_s"] = \
        fn(both, name="MetricsCollector.summary")["incl_s"]
    out["metrics.wait_mean_s"] = ratio(total(cells, "wait_sum"),
                                       total(cells, "completed"))

    records = total(cells, "tel_records")
    bus = [fn(both, name=f"TelemetryBus.{m}")
           for m in ("record", "begin_span", "end_span", "span")]
    out["telemetry.records"] = records
    out["telemetry.us_per_record"] = \
        ratio(sum(m["self_s"] for m in bus), records) * 1e6
    out["telemetry.timeline_s"] = \
        fn(both, name="timeline.timeline_from_bus")["incl_s"]
    out["telemetry.export_s"] = \
        fn(both, name="Telemetry.export_jsonl")["incl_s"]
    out["telemetry.export_mb"] = total(cells, "export_bytes") / 1e6
    out["telemetry.overhead_ratio"] = ratio(wall_s, bare_wall_s)
    out["workloads.build_s"] = fn(setup, layer="workloads")["self_s"]

    out["bench.trace_overhead_ratio"] = traced.wall_s / wall_s
    out["bench.tracer_s"] = tr.overhead_s
    out["bench.attributed_frac"] = attributed / traced_wall
    out["bench.repeat_spread"] = repeat_spread
    return out


def measure(name: str, seed: int, *, seconds: float = 0.0,
            quick: bool = False, trace: bool = False,
            out_dir: Path | None = None, tmp_root: Path) -> Report:
    """Run workload ``name`` and return its metrics and check results.

    ``seconds`` is the measurement budget: timed repeats are added until
    their timed regions total at least that long, and never fewer than
    :data:`MIN_REPEATS` (one in quick mode).
    """
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {sorted(WORKLOADS)}")
    full = not quick
    tmp_root.mkdir(parents=True, exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    violations: list[checks.Violation] = []
    try:
        cells = build_cells(name, seed, quick, tmpdir)
        gc.collect()
        first = run_pass(cells)  # off the clock: warm-up and memory
        mem_peak_mb = peak_rss_mb()
        violations += checks.check_pass(name, first.cells, full_size=full)

        repeats = [first] if quick else []
        while not quick and (len(repeats) < MIN_REPEATS
                             or sum(p.wall_s for p in repeats) < seconds):
            repeats.append(run_pass(cells))
            violations += checks.check_identical(
                first.cells, repeats[-1].cells, f"repeat {len(repeats)}")
        setups = [p.setup_s for p in repeats]
        spare = SETUP_EXTRA_S
        while full and len(setups) < SETUP_SAMPLES \
                and statistics.median(setups) <= spare:
            setups.append(setup_only(cells))
            spare -= setups[-1]
        walls = [p.wall_s for p in repeats]
        wall_s = statistics.median(walls)
        metrics, info = end_to_end(first.cells, statistics.median(setups),
                                   wall_s, mem_peak_mb)
        info.update(repeats=len(repeats), setup_samples=len(setups),
                    walls=walls, repeat_spread=spread(walls),
                    events_per_s=total(first.cells, "events") / wall_s)
        if name == "fig2_match":
            info["shapes"] = figure2_shape_checks(first.cells)

        bare_wall_s = 0.0
        if name == "fig2_traced":
            bare = run_pass(build_cells(name, seed, quick, tmpdir,
                                        telemetry=False))
            bare_wall_s = bare.wall_s
            violations += checks.check_identical(
                first.cells, bare.cells, "telemetry on vs off")
            info["bare_wall_s"] = bare_wall_s

        report = Report(name, seed, quick, metrics, None, info, violations,
                        attempted=info["ops"])
        if trace:
            tr = tracing.Tracer()
            counters = tracing.install_plan(tr)
            try:
                traced = run_pass(cells, tr)
            finally:
                tr.uninstall()
            violations += checks.check_identical(
                first.cells, traced.cells, "traced vs untraced")
            report.per_layer = per_layer(tr, counters, traced, wall_s,
                                         info["repeat_spread"], bare_wall_s)
            layers = {
                layer: {k: report.per_layer[f"{layer}.{k}"]
                        for k in ("calls", "self_s", "share")}
                for layer in tracing.LAYERS}
            violations += checks.check_layers(
                name, layers, report.per_layer["bench.attributed_frac"],
                full_size=full)
            report.skipped_wrappers = tr.missing
            info.update(spans=tr.n_spans, spans_truncated=tr.truncated,
                        traced_wall_s=traced.wall_s,
                        traced_setup_s=traced.setup_s)
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                report.span_dump = out_dir / f"{name}-seed{seed}.spans.npz"
                tr.dump(report.span_dump)
        return report
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmp_root.rmdir()  # leave nothing behind, unless others use it
        except OSError:
            pass
