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

Storage is columnar: one ring deque per field of :data:`COLUMNS`, all
with one ``maxlen`` and all appended together, so eviction drops whole
records.  A detail is a values tuple under a keys tuple stored once per
shape.  Readers walk :meth:`TelemetryBus.rows` in place;
:attr:`TelemetryBus.records` builds :class:`TraceEvent` objects on demand.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

#: Column order of :meth:`TelemetryBus.rows` and of a spool chunk.
COLUMNS = ("time", "category", "keys", "values", "span", "parent",
           "duration", "trace")
#: The JSONL keys of the non-detail columns.
_FIELDS = frozenset(("t", "cat", "span", "parent", "dur", "trace"))


def record_dict(time: float, category: str, span_id: int | None,
                parent_id: int | None, duration: float | None,
                trace_id: int | None, detail: Any) -> dict[str, Any]:
    """One record in its JSONL shape.  ``detail`` is a mapping or an
    iterable of ``(key, value)`` pairs; its keys follow the fixed ones."""
    out: dict[str, Any] = {"t": time, "cat": category}
    if span_id is not None:
        out["span"] = span_id
    if parent_id is not None:
        out["parent"] = parent_id
    if duration is not None:
        out["dur"] = duration
    if trace_id is not None:
        out["trace"] = trace_id
    out.update(detail)
    return out


def record_row(rec: dict[str, Any]) -> tuple:
    """The inverse of :func:`record_dict`: a JSONL-shaped dict as a row in
    :data:`COLUMNS` order."""
    keys = tuple(k for k in rec if k not in _FIELDS)
    return (rec.get("t", 0.0), rec.get("cat"), keys,
            tuple(rec[k] for k in keys), rec.get("span"), rec.get("parent"),
            rec.get("dur"), rec.get("trace"))


@dataclass(slots=True)
class TraceEvent:
    """One trace record (an event, or a completed span).

    ``trace_id`` is the *causal* correlation key: every span of one job's
    story carries the job's GUID, whichever node emitted it, so the
    timeline layer can stitch remote records back into the submitting
    job's tree (see :mod:`repro.telemetry.timeline`).
    """

    time: float
    category: str
    detail: dict[str, Any]
    span_id: int | None = None
    parent_id: int | None = None
    duration: float | None = None
    trace_id: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return record_dict(self.time, self.category, self.span_id,
                           self.parent_id, self.duration, self.trace_id,
                           self.detail)


@dataclass(slots=True, eq=False)
class Span:
    """An open span handle returned by :meth:`TelemetryBus.begin_span`
    (compared and hashed by identity, as a handle)."""

    span_id: int
    parent_id: int | None
    category: str
    start: float
    detail: dict[str, Any]
    trace_id: int | None = None


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
        self._columns = tuple(deque(maxlen=maxlen) for _ in COLUMNS)
        # Bound appends: the hot path unpacks one tuple instead of
        # looking up eight attributes and methods per record.
        self._appends = tuple(col.append for col in self._columns)
        self._shapes: dict[tuple[str, ...], tuple[str, ...]] = {}
        self.accepted = 0          # records ever appended (overflow accounting)
        self._next_span = 0

    # -- recording -------------------------------------------------------

    def wants(self, category: str) -> bool:
        """Cheap pre-check so hot paths can skip building detail kwargs."""
        return self.enabled and (self.categories is None
                                 or category in self.categories)

    def record(self, time: float, category: str, trace: int | None = None,
               **detail: Any) -> None:
        """Append a point event (the ``grid.trace.record`` API); ``trace``
        is its causal trace id, kept in the trace column as for spans."""
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        self._append(time, category, detail, None, None, None, trace)

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
        self._append(span.start, span.category, detail, span.span_id,
                     span.parent_id, time - span.start, span.trace_id)

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
        self._append(time, category, detail, self._next_span, parent,
                     duration, trace)

    def _append(self, time: float, category: str, detail: dict[str, Any],
                span_id: int | None, parent_id: int | None,
                duration: float | None, trace_id: int | None) -> None:
        t, c, k, v, s, p, d, tr = self._appends
        keys = tuple(detail)
        t(time)
        c(category)
        k(self._shapes.setdefault(keys, keys))
        v(tuple(detail.values()))
        s(span_id)
        p(parent_id)
        d(duration)
        tr(trace_id)
        self.accepted += 1

    # -- views -----------------------------------------------------------

    def rows(self) -> Iterator[tuple]:
        """The buffered records, oldest first, as tuples in
        :data:`COLUMNS` order, read from the columns without copying."""
        return zip(*self._columns)

    @property
    def records(self) -> tuple[TraceEvent, ...]:
        """The buffered records as :class:`TraceEvent` objects, oldest
        first.  Built on every access: for tests and inspection only."""
        return tuple(TraceEvent(t, c, dict(zip(k, v)), s, p, d, tr)
                     for t, c, k, v, s, p, d, tr in self.rows())

    @property
    def dropped(self) -> int:
        """Records evicted by the ring buffer since the last clear()."""
        return self.accepted - len(self._columns[0])

    def by_category(self, category: str) -> list[TraceEvent]:
        return [r for r in self.records if r.category == category]

    def category_counts(self) -> Counter[str]:
        return Counter(self._columns[1])

    def clear(self) -> None:
        for col in self._columns:
            col.clear()
        self.accepted = 0

    def __len__(self) -> int:
        return len(self._columns[0])

    # -- cross-process transfer -------------------------------------------

    @property
    def span_watermark(self) -> int:
        """Span-id high-water mark: the offset a bulk import of a worker
        stream must add to every span/parent id so the combined stream
        carries the ids one shared serial bus would have allocated."""
        return self._next_span

    def import_columns(self, columns: Sequence[list] = (), spans: int = 0,
                       accepted: int = 0) -> None:
        """Bulk-append worker records, as lists in :data:`COLUMNS` order
        whose span/parent ids the spool fold already offset by
        :attr:`span_watermark`.  ``spans``/``accepted`` import the
        worker's counters (``accepted`` counts records *ever* appended, so
        its drops carry over); the fold reserves them in a first call
        with no columns."""
        for col, values in zip(self._columns, columns):
            col.extend(values)
        self._next_span += spans
        self.accepted += accepted

    # -- JSONL export ----------------------------------------------------

    def export_jsonl(self, path: str | Path,
                     extra_records: Iterable[dict[str, Any]] = ()) -> int:
        """Write one JSON object per line; returns the line count.

        ``extra_records`` (e.g. a final metrics snapshot) are appended
        after the trace records.
        """
        n = 0
        with open(path, "w") as fh:
            for t, c, k, v, s, p, d, tr in self.rows():
                obj = record_dict(t, c, s, p, d, tr, zip(k, v))
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
