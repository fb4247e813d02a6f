"""Span-tree reconstruction and per-phase latency analytics.

The trace bus emits a flat, append-only stream of records; this module
turns it back into the *causal* structure the tracing layer encoded:
one span tree per job (keyed by ``trace_id`` = job GUID), with the
probe/dispatch/monitor records emitted on remote nodes attached under
the submitting job's phases.  On top of the trees it computes what the
experiments actually need:

* per-phase latency breakdowns (insert → match → probe → dispatch →
  queue → run), including *retry chains* — a job that lost its run node
  has several match/dispatch spans, and they are all accounted;
* the critical path (the chain of spans that determines the makespan);
* phase percentiles across jobs;
* anomaly flags: orphan spans (parent never appeared — cross-node loss
  or ring-buffer eviction), jobs with no terminal event, and ring
  truncation.

Input is a live bus (:func:`timeline_from_bus`, which reads the bus's
columns in place) or the dicts of a JSONL export (:func:`build_timeline`,
:func:`timeline_from_jsonl`); both feed one reconstruction over rows in
the bus's column order, so traces survive a round trip through disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.telemetry.bus import load_jsonl, record_row

#: Job phases in pipeline order (the keys of every per-phase table).
PHASE_ORDER = ("insert", "match", "probe", "dispatch", "queue", "run")

#: Span category -> phase name.
PHASE_OF = {
    "job.insert": "insert",
    "job.match": "match",
    "job.probe": "probe",
    "job.dispatch": "dispatch",
    "job.queue": "queue",
    "job.run": "run",
}

#: The root category of a job's span tree.
LIFECYCLE = "job.lifecycle"


@dataclass(slots=True)
class SpanNode:
    """One reconstructed span plus its resolved children.  The detail
    stays as the record's key and value tuples; :meth:`get` reads it."""

    time: float
    category: str
    duration: float
    span_id: int | None
    parent_id: int | None
    trace_id: int | None
    keys: tuple[str, ...]
    values: tuple[Any, ...]
    children: list["SpanNode"] = field(default_factory=list)
    #: True when ``parent_id`` was set but never found in the trace.
    orphan: bool = False

    @property
    def end(self) -> float:
        return self.time + self.duration

    def get(self, key: str, default: Any = None) -> Any:
        """One detail value, or ``default`` when the span lacks ``key``."""
        try:
            return self.values[self.keys.index(key)]
        except ValueError:
            return default


@dataclass
class JobTrace:
    """Everything recorded about one job, re-assembled.

    ``cell`` is the index of the grid (sweep cell) that produced the
    spans: sweeps run many independent simulations through one bus, and
    job GUIDs repeat across cells (same seed => same job names), so
    (cell, trace_id) is the actual identity.
    """

    trace_id: int
    cell: int = 0
    spans: list[SpanNode] = field(default_factory=list)
    roots: list[SpanNode] = field(default_factory=list)
    #: Stream positions of the point events (no span id) carrying this
    #: trace id, e.g. net.msg: indices into the bus's records, or into the
    #: rows of the JSONL export, the timeline was built from.
    events: list[int] = field(default_factory=list)
    orphans: list[SpanNode] = field(default_factory=list)

    @property
    def name(self) -> str | None:
        for s in self.spans:
            j = s.get("job")
            if j is not None:
                return j
        return None

    @property
    def lifecycle(self) -> SpanNode | None:
        for s in self.spans:
            if s.category == LIFECYCLE:
                return s
        return None

    @property
    def terminal(self) -> str | None:
        """The job's final state, or None if it never reached one."""
        life = self.lifecycle
        return None if life is None else life.get("state")

    @property
    def start(self) -> float:
        return min((s.time for s in self.spans), default=0.0)

    @property
    def end(self) -> float:
        return max((s.end for s in self.spans), default=0.0)

    @property
    def makespan(self) -> float:
        return self.end - self.start

    @property
    def retries(self) -> int:
        """Extra matchmaking rounds beyond the first (retry-chain depth)."""
        return max(0, sum(1 for s in self.spans
                          if s.category == "job.match") - 1)

    def phase_totals(self) -> dict[str, float]:
        """Total time per phase, *summing* retry chains (a job with two
        dispatch attempts spent dispatch-phase time twice)."""
        totals = {p: 0.0 for p in PHASE_ORDER}
        for s in self.spans:
            phase = PHASE_OF.get(s.category)
            if phase is not None:
                totals[phase] += s.duration
        return totals

    def critical_path(self) -> list[SpanNode]:
        """The root-to-leaf chain of latest-ending spans.

        In a phase tree the child that ends last is the one the next
        phase (or the job's completion) actually waited on, so this
        chain is the causal explanation of the makespan.
        """
        root = self.lifecycle
        if root is None:
            if not self.roots:
                return []
            root = max(self.roots, key=lambda s: s.end)
        path = [root]
        node = root
        while node.children:
            node = max(node.children, key=lambda s: s.end)
            path.append(node)
        return path


@dataclass
class Timeline:
    """The reconstructed trace: one :class:`JobTrace` per (cell, job),
    plus the stream-level anomaly accounting."""

    jobs: list[JobTrace] = field(default_factory=list)
    #: Records evicted by the ring buffer before reconstruction.
    truncated: int = 0
    #: Span records carrying no trace id (not part of any job's story).
    untraced_spans: int = 0
    #: Number of cell-boundary markers (``grid.bind``) seen.
    cells: int = 0

    def job(self, trace_id: int, cell: int | None = None) -> JobTrace | None:
        """Look one job up by GUID (and cell, when the stream has many)."""
        for jt in self.jobs:
            if jt.trace_id == trace_id and (cell is None or jt.cell == cell):
                return jt
        return None

    def slowest(self, k: int = 5) -> list[JobTrace]:
        return sorted(self.jobs, key=lambda j: -j.makespan)[:k]

    def phase_percentiles(self, percentiles: tuple[int, ...] = (50, 90, 99)
                          ) -> dict[str, dict[str, float]]:
        """``{phase: {"p50": ..., ...}}`` over per-job phase totals.

        Jobs that never entered a phase contribute 0 for it — the
        distribution is over *jobs*, not over spans, so "most jobs skip
        the probe phase" shows up as a low probe median, as it should.
        """
        per_job = [j.phase_totals() for j in self.jobs]
        out: dict[str, dict[str, float]] = {}
        for phase in PHASE_ORDER:
            values = sorted(t[phase] for t in per_job)
            out[phase] = {f"p{p}": _percentile(values, p)
                          for p in percentiles}
            out[phase]["mean"] = (sum(values) / len(values)) if values else 0.0
        return out

    def anomalies(self) -> dict[str, Any]:
        """Stream-health flags: anything non-zero deserves a look."""
        orphan_spans = sum(len(j.orphans) for j in self.jobs)
        no_terminal = sorted(
            (j.cell, j.name or j.trace_id) for j in self.jobs
            if j.terminal is None)
        return {
            "orphan_spans": orphan_spans,
            "jobs_without_terminal": len(no_terminal),
            "jobs_without_terminal_ids": no_terminal[:20],
            "truncated_records": self.truncated,
            "untraced_spans": self.untraced_spans,
        }

    @property
    def healthy(self) -> bool:
        a = self.anomalies()
        return (a["orphan_spans"] == 0 and a["jobs_without_terminal"] == 0
                and a["truncated_records"] == 0)


def _percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile over an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _build(rows: Iterable[tuple], dropped: int) -> Timeline:
    """Reconstruct per-job span trees from rows in
    :data:`~repro.telemetry.bus.COLUMNS` order."""
    tl = Timeline(truncated=dropped)
    by_key: dict[tuple[int, int], JobTrace] = {}
    # Span ids are unique within a cell (one bus feeding one grid), but a
    # concatenation of exports may reuse them across cells — key per cell.
    by_id: dict[tuple[int, int], tuple[SpanNode, JobTrace]] = {}
    pending: list[tuple[SpanNode, JobTrace]] = []
    cell = 0

    def job_of(trace_id: int) -> JobTrace:
        jt = by_key.get((cell, trace_id))
        if jt is None:
            jt = by_key[(cell, trace_id)] = JobTrace(trace_id, cell=cell)
            tl.jobs.append(jt)
        return jt

    for pos, (time, cat, keys, values, span_id, parent_id, duration,
              trace_id) in enumerate(rows):
        if cat == "trace.overflow":
            tl.truncated += int(dict(zip(keys, values)).get("dropped", 0))
            continue
        if cat == "grid.bind":
            # Cell boundary: a new independent grid started feeding the
            # bus; GUIDs restart, so segment the stream here.
            cell += 1
            tl.cells += 1
            continue
        if span_id is None:
            # A point event: file its position under its trace, if any.
            if trace_id is not None:
                job_of(trace_id).events.append(pos)
            continue
        if trace_id is None:
            tl.untraced_spans += 1
            continue
        node = SpanNode(time, cat, duration or 0.0, span_id, parent_id,
                        trace_id, keys, values)
        jt = job_of(trace_id)
        by_id[(jt.cell, span_id)] = (node, jt)
        pending.append((node, jt))
        jt.spans.append(node)
    # Spans are appended when they *end*, so a parent (which outlives its
    # children) usually arrives after them — resolve links in a second
    # pass over the complete id map.
    for node, jt in pending:
        if node.parent_id is None:
            jt.roots.append(node)
            continue
        entry = by_id.get((jt.cell, node.parent_id))
        if entry is None or entry[1] is not jt:
            # Parent never closed (still open at export / evicted by the
            # ring) or belongs to another trace: keep the span, flag it.
            node.orphan = True
            jt.orphans.append(node)
            jt.roots.append(node)
        else:
            entry[0].children.append(node)
    for node, _jt in by_id.values():
        node.children.sort(key=lambda s: (s.time, s.span_id))
    for jt in tl.jobs:
        jt.roots.sort(key=lambda s: (s.time, s.span_id))
    return tl


def build_timeline(records: Iterable[dict[str, Any]],
                   dropped: int = 0) -> Timeline:
    """Reconstruct per-job span trees from JSONL-shaped record dicts.

    ``dropped`` is the bus's ring-buffer eviction count (a
    ``trace.overflow`` trailer in the stream adds its own).
    """
    return _build(map(record_row, records), dropped)


def timeline_from_bus(bus) -> Timeline:
    """Reconstruct from a live :class:`TelemetryBus`, reading its columns
    in place."""
    return _build(bus.rows(), bus.dropped)


def timeline_from_jsonl(path: str | Path) -> Timeline:
    """Reconstruct from a JSONL export (``Telemetry.export_jsonl``)."""
    return build_timeline(load_jsonl(path))


# -- rendering ------------------------------------------------------------

def render_job_timeline(jt: JobTrace, width: int = 48) -> str:
    """One job's span tree as an indented ASCII gantt chart."""
    t0, span_t = jt.start, max(jt.makespan, 1e-12)
    name = jt.name or f"trace {jt.trace_id}"
    state = jt.terminal or "NO TERMINAL EVENT"
    lines = [f"job {name}  [{state}]  makespan {jt.makespan:.3f}s  "
             f"t0={t0:.3f}  retries={jt.retries}"]

    def bar(s: SpanNode) -> str:
        lo = int((s.time - t0) / span_t * width)
        hi = int((s.end - t0) / span_t * width)
        hi = max(hi, lo + 1)
        return "." * lo + "#" * (hi - lo) + "." * (width - hi)

    def walk(node: SpanNode, depth: int) -> None:
        label = ("  " * depth + node.category)
        extra = ""
        if node.orphan:
            extra = "  (ORPHAN)"
        who = node.get("node") or node.get("run_node") or node.get("owner")
        if who:
            extra += f"  @{who}"
        status = node.get("status")
        if status:
            extra += f"  status={status}"
        lines.append(f"  {label:<28.28} |{bar(node)}| "
                     f"{node.duration:9.3f}s{extra}")
        for child in node.children:
            walk(child, depth + 1)

    for root in jt.roots:
        walk(root, 0)
    if jt.events:
        lines.append(f"  ({len(jt.events)} point events, e.g. net.msg)")
    return "\n".join(lines)


def render_phase_table(tl: Timeline,
                       percentiles: tuple[int, ...] = (50, 90, 99)) -> str:
    """Phase-percentile table over all jobs in the timeline."""
    from repro.metrics.report import format_table

    stats = tl.phase_percentiles(percentiles)
    headers = ["phase", "mean (s)", *[f"p{p} (s)" for p in percentiles]]
    rows = []
    for phase in PHASE_ORDER:
        st = stats[phase]
        rows.append([phase, round(st["mean"], 4),
                     *[round(st[f"p{p}"], 4) for p in percentiles]])
    return format_table(
        headers, rows,
        title=f"Per-phase latency across {len(tl.jobs)} traced jobs")


def render_anomalies(tl: Timeline) -> str:
    a = tl.anomalies()
    lines = ["anomalies:"]
    lines.append(f"  orphan spans:            {a['orphan_spans']}")
    lines.append(f"  jobs w/o terminal event: {a['jobs_without_terminal']}")
    if a["jobs_without_terminal_ids"]:
        lines.append(f"    first ids: {a['jobs_without_terminal_ids']}")
    lines.append(f"  truncated records:       {a['truncated_records']}")
    lines.append(f"  untraced spans:          {a['untraced_spans']}")
    lines.append(f"  verdict: {'clean' if tl.healthy else 'DEGRADED'}")
    return "\n".join(lines)


def render_critical_path(jt: JobTrace) -> str:
    """The makespan-determining chain, one hop per line."""
    path = jt.critical_path()
    if not path:
        return "  (no spans)"
    lines = []
    for node in path:
        lines.append(f"  {node.category:<16} t={node.time:.3f}  "
                     f"dur={node.duration:.3f}s")
    return "\n".join(lines)
