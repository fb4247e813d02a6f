"""Grid-wide telemetry: span tracing, metrics, and flight recording.

The paper's central claims — matchmaking in "a small number of hops",
bounded aggregation overhead, recovery without client resubmission — are
claims about *internal* behaviour.  This package makes that behaviour
first-class observable without perturbing it:

* :mod:`repro.telemetry.bus` — the span/event trace bus: simulator-time-
  stamped records, hierarchical spans, category filtering, a bounded ring
  buffer, JSONL export.
* :mod:`repro.telemetry.registry` — named counters, gauges, and bucketed
  histograms (O(1) per observation, bounded memory).
* :mod:`repro.telemetry.core` — the :class:`Telemetry` facade the grid and
  CLI wire through every layer.
* :mod:`repro.telemetry.flight` — per-node bounded flight recorder,
  dumped into the trace when a job fails.
* :mod:`repro.telemetry.spool` — chunked columnar spool files carrying
  worker telemetry back to the parent in ``--jobs N`` sweeps.
* :mod:`repro.telemetry.timeline` — span-tree reconstruction and timeline
  analytics over a recorded trace (``repro job-trace``).
* :mod:`repro.telemetry.summary` — text reports (hop distributions,
  message budgets, trace buffer).

Wall-clock attribution (where a run's CPU time goes, per layer) is not
part of this package: ``bench/run.py --trace 1`` measures it from
outside the simulator.

Trace categories
----------------
Emitted by the instrumented layers (filter with ``categories=...``):

=================  ========================================================
category           meaning
=================  ========================================================
``submit``         client injected a job (event; detail: job, attempt)
``job.lifecycle``  span: submission -> result at the client
``job.insert``     span: injection-node routing to the owner (DHT hops)
``job.match``      span: owner-side matchmaking, incl. retry backoff
``job.probe``      span: one RPC probe round (children: ``rpc.server``)
``job.dispatch``   span: dispatch send -> acceptance on the run node
``job.queue``      span: waiting in the run node's queue
``job.run``        span: execution (+ staging) on the run node
``match``          run node chosen (event; detail: hops, probes)
``start``          execution started (event; detail: wait)
``complete``       result returned to the client (event; detail: state)
``dht.lookup``     span (zero virtual duration): one overlay routing
``rpc.server``     span (zero duration): request handled on a remote node
``rpc.timeout``    span (zero duration): an RPC timed out at the caller
``flight.dump``    span wrapping a node's flight-recorder dump on failure
``grid.bind``      cell boundary: a new grid bound to a shared telemetry
``load.sample``    periodic load sampler tick (live nodes, queue depths)
``heartbeat``      one runner heartbeat round (event; detail: jobs)
``recovery``       owner/run-node failure recovery triggered
``crash``          a node crashed          (``recover``: it rejoined)
``net.msg``        one network message sent (high volume; filter in)
=================  ========================================================

Causal tracing
--------------
Every job-phase span carries ``trace=<job guid>``; the grid forwards
``(trace_id, parent_span_id)`` tuples on messages and RPCs so records
emitted on *remote* nodes (probe handling, dispatch acceptance, DHT
routing) parent into the submitting job's span tree.  The timeline layer
(:func:`timeline_from_bus` / ``repro job-trace``) rebuilds per-job trees,
per-phase latency breakdowns, retry chains, and critical paths.

Determinism contract: every instrumentation site only *reads* simulation
state; telemetry draws no randomness and schedules nothing except the
deterministic, read-only load sampler — enabling full telemetry must not
change any experiment result (enforced by
``tests/telemetry/test_determinism.py``).
"""

from repro.telemetry.bus import (
    NULL_BUS,
    Span,
    TelemetryBus,
    TraceEvent,
    load_jsonl,
)
from repro.telemetry.core import NULL_TELEMETRY, PHASE_SPAN_KEYS, Telemetry
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spool import fold_spool, write_spool
from repro.telemetry.summary import telemetry_report
from repro.telemetry.timeline import (
    JobTrace,
    SpanNode,
    Timeline,
    build_timeline,
    timeline_from_bus,
    timeline_from_jsonl,
)

__all__ = [
    "NULL_BUS",
    "NULL_TELEMETRY",
    "PHASE_SPAN_KEYS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JobTrace",
    "MetricsRegistry",
    "Span",
    "SpanNode",
    "Telemetry",
    "TelemetryBus",
    "Timeline",
    "TraceEvent",
    "build_timeline",
    "fold_spool",
    "load_jsonl",
    "telemetry_report",
    "timeline_from_bus",
    "timeline_from_jsonl",
    "write_spool",
]
