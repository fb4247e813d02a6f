"""The :class:`Telemetry` facade: one object wired through every layer.

A ``Telemetry`` bundles the two telemetry primitives —

* :attr:`bus` — the span/event trace bus (:mod:`repro.telemetry.bus`),
* :attr:`metrics` — the counters/gauges/histograms registry,

— plus the grid-facing glue: a simulator clock binding (so layers without
a clock, like DHT overlays, can stamp records), a periodic load sampler,
per-node flight recorders, and JSONL export that appends the final
metrics snapshot after the trace records.  Wall-clock attribution per
layer lives outside the simulator, in ``bench/run.py --trace 1``.

The grid holds :data:`NULL_TELEMETRY` when none is supplied; every
instrumentation site guards on ``telemetry.enabled`` first, so the
default path costs one attribute load and one branch.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Iterable

from repro.telemetry.bus import NULL_BUS, TelemetryBus
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.dht.base import RouteResult
    from repro.grid.job import Job
    from repro.grid.system import DesktopGrid

#: Phase spans parked on ``Job.extra`` by the grid layer, in phase order.
#: :meth:`Telemetry.close_job_spans` sweeps these on every terminal path
#: so a FAILED/LOST job cannot leak open (never-appended) spans.
PHASE_SPAN_KEYS = ("tel_insert", "tel_match", "tel_probe", "tel_dispatch",
                   "tel_queue", "tel_run")


class Telemetry:
    """Grid-wide telemetry: trace bus + metrics registry + flight recorder.

    Parameters
    ----------
    categories:
        Bus category filter (None = record everything).
    maxlen:
        Bus ring-buffer bound (None = unbounded).
    enabled:
        Master switch; a disabled Telemetry is a shared no-op.
    sample_interval:
        Virtual-time period of the load sampler (queue depths, live
        nodes); None disables sampling.  The sampler only *reads* grid
        state and draws no randomness, so it cannot perturb results.
    flight_ring:
        Per-node flight-recorder depth (0 disables the recorder).
    """

    def __init__(self, categories: Iterable[str] | None = None,
                 maxlen: int | None = None, enabled: bool = True,
                 sample_interval: float | None = None,
                 flight_ring: int = 64):
        self.bus = TelemetryBus(categories=categories, enabled=enabled,
                                maxlen=maxlen) if enabled else NULL_BUS
        self.metrics = MetricsRegistry()
        self.sample_interval = sample_interval
        #: Per-node last-N protocol event rings, dumped into the trace on
        #: job failure (None when disabled; see telemetry.flight).
        self.flight: FlightRecorder | None = \
            FlightRecorder(flight_ring) if (enabled and flight_ring) else None
        #: Ambient causal context ``(trace_id, parent_span_id)`` set by the
        #: grid around traced operations whose inner layers (DHT routing)
        #: have no job in their signatures.  The simulation is single-
        #: threaded, so a plain attribute is a sound context variable.
        self.trace_ctx: tuple[int, int | None] | None = None
        self._sim = None

    @property
    def enabled(self) -> bool:
        return self.bus.enabled

    def now(self) -> float:
        """Virtual time of the most recently bound simulator (0.0 unbound)."""
        return self._sim.now if self._sim is not None else 0.0

    @property
    def clock(self) -> float | None:
        """:meth:`now`, or None before any grid was bound."""
        return self._sim.now if self._sim is not None else None

    def stop_clock(self, now: float) -> None:
        """Stop :meth:`now` at ``now``.  A parallel sweep never binds the
        parent to a grid; the spool fold stops it at each worker's final
        clock in turn, leaving it where the serial sweep's last bound
        grid would have."""
        self._sim = SimpleNamespace(now=now)

    # -- grid binding ----------------------------------------------------

    def bind(self, grid: "DesktopGrid") -> None:
        """Attach to a grid: clock and periodic load sampler.

        Safe to call once per grid; a shared Telemetry accumulates across
        sequential grids (e.g. every cell of an experiment sweep).
        """
        if not self.enabled:
            return
        self._sim = grid.sim
        if self.bus.wants("grid.bind"):
            # Cell boundary marker: sweeps run many independent grids
            # through one shared bus, and job GUIDs repeat across cells
            # (same seed => same job names), so the timeline layer needs
            # this record to segment the stream into per-grid traces.
            self.bus.record(grid.sim.now, "grid.bind",
                            nodes=len(grid.node_list),
                            matchmaker=grid.matchmaker.name)
        if self.sample_interval is not None:
            # Deterministic phase (no RNG, no stagger): telemetry must
            # observe, never perturb — see tests/telemetry/test_determinism.
            from repro.sim.process import PeriodicTask

            PeriodicTask(grid.sim, self.sample_interval,
                         lambda: self._sample_load(grid), stagger=False)

    def _sample_load(self, grid: "DesktopGrid") -> None:
        # Columnar read through the NodeRegistry: the sample costs one
        # masked-sum over dense arrays, not an O(N) object scan — the
        # difference between "telemetry is free" and "telemetry is the
        # bottleneck" at 10k+ nodes.
        depths = grid.registry.live_queue_lens()
        n_live = int(depths.size)
        total = int(depths.sum())
        peak = int(depths.max()) if n_live else 0
        m = self.metrics
        m.gauge("grid.live_nodes").set(n_live)
        m.gauge("grid.queue_depth.total").set(total)
        m.gauge("grid.queue_depth.max").set(peak)
        m.histogram("grid.queue_depth.sampled").observe(peak)
        # Kernel health: pending work net of tombstones, raw heap size,
        # and how often compaction has had to run (heap hygiene signal).
        sim = grid.sim
        m.gauge("kernel.live_pending").set(sim.live_pending)
        m.gauge("kernel.heap_len").set(len(sim._heap))
        m.gauge("kernel.compactions").set(sim.compactions)
        if self.bus.wants("load.sample"):
            self.bus.record(grid.sim.now, "load.sample",
                            live_nodes=n_live, queued=total, max_queue=peak)

    # -- layer hooks (shared emit logic lives here, call sites stay thin) --

    def note_dht_lookup(self, proto: str, op: str, result: "RouteResult") -> None:
        """One overlay lookup: hop histogram + a zero-duration span (the
        routing is structural; its latency is charged by the caller).

        When the grid set :attr:`trace_ctx` (owner routing / matchmaking
        on behalf of a specific job), the span carries that job's trace id
        and parents under the in-flight phase span — DHT-route records
        join the job's causal tree instead of floating free.
        """
        self.metrics.histogram(f"dht.{proto}.hops").observe(result.hops)
        if not result.success:
            self.metrics.counter(f"dht.{proto}.failed").inc()
        if self.bus.wants("dht.lookup"):
            ctx = self.trace_ctx
            trace, parent = ctx if ctx is not None else (None, None)
            self.bus.span(self.now(), "dht.lookup", parent=parent,
                          trace=trace, proto=proto, op=op,
                          hops=result.hops, ok=result.success)

    def close_job_spans(self, job: "Job", status: str,
                        keys: tuple[str, ...] = PHASE_SPAN_KEYS) -> None:
        """End any open phase spans parked on ``job.extra``.

        Terminal failure paths (owner lost, dispatch exhausted, client
        abandonment) used to drop jobs with their ``tel_match``/
        ``tel_queue`` spans still open — open spans are never appended,
        so the failed phases vanished from the trace.  This sweeps every
        phase key and closes what it finds with a ``status`` attribute,
        making failures *more* visible than successes, not less.
        """
        if not self.enabled:
            return
        now = self.now()
        extra = job.extra
        for key in keys:
            span = extra.pop(key, None)
            if span is not None:
                self.bus.end_span(span, now, status=status)

    def dump_flight(self, job: "Job", node_ids: Iterable[int | None],
                    reason: str) -> None:
        """Dump the flight-recorder rings of the nodes involved in a job
        failure into the trace, keyed by the job's trace id."""
        if self.flight is None:
            return
        self.flight.dump(self.bus, self.now(), job.guid, node_ids, reason)

    def note_match(self, matchmaker: str, hops: int, probes: int,
                   pushes: int, found: bool) -> None:
        """One run-node search by any matchmaker."""
        m = self.metrics
        m.histogram(f"match.{matchmaker}.search_hops").observe(hops)
        m.histogram(f"match.{matchmaker}.candidates").observe(probes)
        if pushes:
            m.counter(f"match.{matchmaker}.pushes").inc(pushes)
        m.counter(f"match.{matchmaker}."
                  f"{'found' if found else 'not_found'}").inc()

    # -- export ----------------------------------------------------------

    def final_records(self) -> list[dict[str, Any]]:
        """Trailer records appended to a JSONL export."""
        out: list[dict[str, Any]] = [
            {"t": self.now(), "cat": "metrics.snapshot",
             **self.metrics.snapshot()},
        ]
        if self.bus.dropped:
            out.append({"t": self.now(), "cat": "trace.overflow",
                        "dropped": self.bus.dropped,
                        "kept": len(self.bus)})
        return out

    def export_jsonl(self, path: str | Path) -> int:
        """Write the trace plus the metrics trailer; returns lines."""
        return self.bus.export_jsonl(path, extra_records=self.final_records())


#: Shared no-op instance held by grids constructed without telemetry.
NULL_TELEMETRY = Telemetry(enabled=False)
