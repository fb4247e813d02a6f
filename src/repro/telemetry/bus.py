"""The span/event trace bus.

A :class:`TelemetryBus` collects simulator-time-stamped trace records from
every layer of the system.  Two record shapes share one buffer:

* **events** — point-in-time facts (``record(time, category, **detail)``);
* **spans** — intervals with a duration and an optional parent, forming a
  hierarchy (``begin_span`` / ``end_span``, or one-shot :meth:`span`).
  A span is appended to the buffer when it *ends*, stamped with its start
  time and duration, so the JSONL stream stays append-only.

Recording defaults to off for components constructed without a bus
(:data:`NULL_BUS`): the first statement of every recording method is a
single ``enabled`` check, so the zero-telemetry path costs one attribute
load and one branch.  Category filtering and an optional ``maxlen`` ring
buffer bound memory at production scale; overflow drops the *oldest*
records and is accounted in :attr:`TelemetryBus.dropped`.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator


@dataclass(slots=True)
class TraceEvent:
    """One trace record (an event, or a completed span).

    ``trace_id`` is the *causal* correlation key: every span belonging to
    one end-to-end job story carries the job's GUID, no matter which node
    of the grid emitted it, so the timeline layer can stitch probe/
    dispatch/monitor records produced on remote nodes back into the
    submitting job's tree (see :mod:`repro.telemetry.timeline`).

    Slots, not frozen: records are constructed on every traced operation
    and in bulk by the parallel-sweep spool fold, so construction cost and
    per-instance memory are hot-path concerns (a frozen dataclass pays
    ``object.__setattr__`` per field; a dict-backed one pays ~200 bytes
    per record).  Treat instances as immutable everywhere outside
    :mod:`repro.telemetry.spool`, which renumbers span ids during fold.
    """

    time: float
    category: str
    detail: dict[str, Any]
    span_id: int | None = None
    parent_id: int | None = None
    duration: float | None = None
    trace_id: int | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"t": self.time, "cat": self.category}
        if self.span_id is not None:
            out["span"] = self.span_id
        if self.parent_id is not None:
            out["parent"] = self.parent_id
        if self.duration is not None:
            out["dur"] = self.duration
        if self.trace_id is not None:
            out["trace"] = self.trace_id
        out.update(self.detail)
        return out


#: Legacy alias (the pre-telemetry trace layer called these TraceRecords).
TraceRecord = TraceEvent


class Span:
    """An open span handle returned by :meth:`TelemetryBus.begin_span`."""

    __slots__ = ("span_id", "parent_id", "category", "start", "detail",
                 "trace_id")

    def __init__(self, span_id: int, parent_id: int | None, category: str,
                 start: float, detail: dict[str, Any],
                 trace_id: int | None = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.category = category
        self.start = start
        self.detail = detail
        self.trace_id = trace_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span(#{self.span_id}, {self.category!r}, t0={self.start:.6g})"


def _json_default(obj: Any) -> Any:
    """Serialize numpy scalars and anything else JSON chokes on."""
    try:
        return float(obj)
    except (TypeError, ValueError):
        return str(obj)


class TelemetryBus:
    """Collects trace records, optionally filtered and ring-bounded.

    Parameters
    ----------
    categories:
        Record only these categories (None = everything).
    enabled:
        Master switch; a disabled bus is a true no-op.
    maxlen:
        Ring-buffer bound; the oldest records are dropped on overflow
        (None = unbounded, the pre-telemetry behaviour).
    """

    def __init__(self, categories: Iterable[str] | None = None,
                 enabled: bool = True, maxlen: int | None = None):
        self.enabled = enabled
        self.categories = set(categories) if categories is not None else None
        self.maxlen = maxlen
        self.records: deque[TraceEvent] = deque(maxlen=maxlen)
        self.accepted = 0          # records ever appended (overflow accounting)
        self._next_span = 0

    # -- recording -------------------------------------------------------

    def wants(self, category: str) -> bool:
        """Cheap pre-check so hot paths can skip building detail kwargs."""
        return self.enabled and (self.categories is None
                                 or category in self.categories)

    def record(self, time: float, category: str, **detail: Any) -> None:
        """Append a point event (the ``grid.trace.record`` API)."""
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        self._append(TraceEvent(time, category, detail))

    #: Alias: ``event`` reads better next to ``span`` at new call sites.
    event = record

    def begin_span(self, time: float, category: str,
                   parent: "Span | int | None" = None,
                   trace: int | None = None, **detail: Any) -> Span | None:
        """Open a span; returns None (and the matching ``end_span`` no-ops)
        when the bus is disabled or the category is filtered out.

        ``parent`` is an open :class:`Span` handle, or a bare span id when
        the parent was opened on another node and only its id travelled
        (trace propagation through :class:`repro.sim.network.Message`).
        ``trace`` sets the causal trace id; children inherit the parent
        handle's trace id when not given explicitly.
        """
        if not self.enabled:
            return None
        if self.categories is not None and category not in self.categories:
            return None
        if isinstance(parent, Span):
            if trace is None:
                trace = parent.trace_id
            parent = parent.span_id
        self._next_span += 1
        return Span(self._next_span, parent, category, time, detail, trace)

    def end_span(self, span: Span | None, time: float, **extra: Any) -> None:
        """Close ``span`` at ``time`` and append it to the buffer."""
        if span is None or not self.enabled:
            return
        detail = {**span.detail, **extra} if extra else span.detail
        self._append(TraceEvent(span.start, span.category, detail,
                                span.span_id, span.parent_id,
                                time - span.start, span.trace_id))

    def span(self, time: float, category: str, duration: float = 0.0,
             parent: "Span | int | None" = None, trace: int | None = None,
             **detail: Any) -> None:
        """One-shot span: begin and end in a single call (for operations
        that are instantaneous in virtual time, e.g. structural DHT
        lookups whose latency is charged separately by the caller)."""
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        if isinstance(parent, Span):
            if trace is None:
                trace = parent.trace_id
            parent = parent.span_id
        self._next_span += 1
        self._append(TraceEvent(time, category, detail, self._next_span,
                                parent, duration, trace))

    def _append(self, rec: TraceEvent) -> None:
        self.records.append(rec)
        self.accepted += 1

    # -- views -----------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Records evicted by the ring buffer since the last clear()."""
        return self.accepted - len(self.records)

    def by_category(self, category: str) -> list[TraceEvent]:
        return [r for r in self.records if r.category == category]

    def category_counts(self) -> Counter[str]:
        return Counter(r.category for r in self.records)

    def clear(self) -> None:
        self.records.clear()
        self.accepted = 0

    def __len__(self) -> int:
        return len(self.records)

    # -- cross-process transfer -------------------------------------------

    @property
    def span_watermark(self) -> int:
        """Span-id high-water mark: the offset a bulk import of a worker
        stream must add to every span/parent id so the combined stream
        carries the ids one shared serial bus would have allocated."""
        return self._next_span

    def import_stream(self, records: Iterable[TraceEvent],
                      spans: int = 0, accepted: int = 0) -> None:
        """Bulk-append worker records whose span/parent ids were *already*
        offset by :attr:`span_watermark` (the spool fold,
        :mod:`repro.telemetry.spool`, renumbers whole id columns at once).

        ``spans``/``accepted`` import the worker's counters; the spool
        fold reserves the worker's span-id block up front (one call with
        no records) and then streams record chunks in.  ``accepted``
        counts records *ever* appended, so importing the worker's count
        (not just its surviving records) preserves its drops; appending
        through the deque keeps the ring-buffer eviction semantics.
        """
        self.records.extend(records)
        self._next_span += spans
        self.accepted += accepted

    # -- JSONL export ----------------------------------------------------

    def to_dicts(self) -> Iterator[dict[str, Any]]:
        for rec in self.records:
            yield rec.to_dict()

    def export_jsonl(self, path: str | Path,
                     extra_records: Iterable[dict[str, Any]] = ()) -> int:
        """Write one JSON object per line; returns the line count.

        ``extra_records`` (e.g. a final metrics snapshot) are appended
        after the trace records.
        """
        n = 0
        with open(path, "w") as fh:
            for obj in self.to_dicts():
                fh.write(json.dumps(obj, default=_json_default) + "\n")
                n += 1
            for obj in extra_records:
                fh.write(json.dumps(obj, default=_json_default) + "\n")
                n += 1
        return n


def load_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Read a JSONL trace back into a list of dicts (analysis helper)."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


#: Shared do-nothing bus for components constructed without telemetry.
NULL_BUS = TelemetryBus(enabled=False)
