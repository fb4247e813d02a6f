"""Named counters, gauges, and histograms.

A :class:`MetricsRegistry` is the numeric half of the telemetry subsystem:
where the bus records *what happened*, the registry accumulates *how much*
— messages by type, match candidates examined, per-matchmaker hop
histograms, queue depth over time.  Everything is O(1) per observation and
bounded in memory (histograms bucket, they do not retain samples), so the
registry can stay attached at production scale.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Iterable

#: Default histogram bucket upper bounds: exact for small hop counts,
#: log-spaced beyond.  Values above the last edge land in an overflow
#: bucket reported against the observed maximum.
DEFAULT_EDGES: tuple[float, ...] = (
    0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 48, 64, 96, 128,
    192, 256, 512, 1024,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, {self.value:g})"


class Gauge:
    """A point-in-time value with a high-water mark."""

    __slots__ = ("name", "value", "hwm")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.hwm = -math.inf

    def set(self, value: float) -> None:
        self.value = float(value)
        if self.value > self.hwm:
            self.hwm = self.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name!r}, {self.value:g}, hwm={self.hwm:g})"


class Histogram:
    """A fixed-bucket histogram with percentile estimation.

    ``edges`` are inclusive upper bounds; an observation lands in the first
    bucket whose edge is >= the value, or the overflow bucket past the last
    edge.  With the default edges, integer observations up to 6 are exact
    per-value counts — which covers the paper's "small number of hops"
    claims — while large outliers stay bounded in memory.
    """

    __slots__ = ("name", "edges", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, edges: Iterable[float] | None = None):
        self.name = name
        self.edges = tuple(sorted(edges)) if edges is not None else DEFAULT_EDGES
        if not self.edges:
            raise ValueError("histogram needs at least one bucket edge")
        self.buckets = [0] * (len(self.edges) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.buckets[bisect.bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        """Upper-edge estimate of the ``q``-th percentile (0..100)."""
        if self.count == 0:
            return math.nan
        target = math.ceil(self.count * q / 100.0)
        cum = 0
        for i, n in enumerate(self.buckets):
            cum += n
            if cum >= target and n:
                edge = self.edges[i] if i < len(self.edges) else self.max
                return float(min(edge, self.max))
        return float(self.max)  # pragma: no cover - defensive

    def nonzero_buckets(self) -> list[tuple[str, int]]:
        """(label, count) pairs for occupied buckets, in edge order."""
        out = []
        prev: float | None = None
        for i, n in enumerate(self.buckets):
            if i < len(self.edges):
                hi = self.edges[i]
                if prev is None:
                    label = f"{hi:g}" if hi in (0, 1) else f"<= {hi:g}"
                elif hi - prev == 1:
                    label = f"{hi:g}"
                else:
                    label = f"{prev:g}..{hi:g}"
                prev = hi
            else:
                label = f"> {self.edges[-1]:g}"
            if n:
                out.append((label, n))
        return out

    def snapshot(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.4g})"


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Names are dotted paths (``net.sent.heartbeat``, ``dht.chord.hops``);
    reports group on the prefix.  Re-registering a name with a different
    metric type is an error — it would silently shadow data.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls, *args):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, *args)
        elif type(metric) is not cls:
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}, "
                            f"not a {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        # Inlined _get: counter() is the registry's hottest entry point
        # (every send/call/heartbeat site probes it at least once), so it
        # skips the generic helper's extra frame.
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Counter(name)
        elif type(metric) is not Counter:
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}, "
                            "not a Counter")
        return metric

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str, edges: Iterable[float] | None = None
                  ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Histogram(name, edges)
        elif type(metric) is not Histogram:
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}, "
                            "not a Histogram")
        return metric

    # -- views -----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self, prefix: str = "") -> list[str]:
        return sorted(n for n in self._metrics if n.startswith(prefix))

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        return self._metrics.get(name)

    def counters(self, prefix: str = "") -> list[Counter]:
        return [m for n in self.names(prefix)
                if isinstance(m := self._metrics[n], Counter)]

    def histograms(self, prefix: str = "") -> list[Histogram]:
        return [m for n in self.names(prefix)
                if isinstance(m := self._metrics[n], Histogram)]

    def snapshot(self) -> dict[str, Any]:
        """One nested dict of everything (JSONL-serializable)."""
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, Counter):
                out["counters"][name] = m.value
            elif isinstance(m, Gauge):
                out["gauges"][name] = {"value": m.value, "hwm": m.hwm}
            else:
                out["histograms"][name] = m.snapshot()
        return out

    # -- cross-process transfer -------------------------------------------

    def state_columnar(self) -> tuple:
        """Full-fidelity, picklable dump for cross-process transfer.

        Unlike :meth:`snapshot`, which reduces histograms to summary
        statistics, this keeps bucket counts, so a :meth:`merge_columnar`
        on the receiving side is lossless.  Metrics are grouped by kind
        into parallel columns, and histogram edge tuples are interned in
        a shared table (nearly every histogram uses
        :data:`DEFAULT_EDGES`, so the table almost always has one entry).
        Layout::

            ("m1",
             (names, values),                       # counters
             (names, values, hwms),                 # gauges
             (names, edge_table, edge_ref,          # histograms
              buckets, counts, totals, mins, maxs))

        ``edge_ref[i]`` indexes ``edge_table``; ``buckets[i]`` is the
        bucket-count tuple for ``names[i]``.  This is the metrics block
        of the parallel engine's spool format
        (:mod:`repro.telemetry.spool`); fold with
        :meth:`merge_columnar`.
        """
        c_names: list[str] = []
        c_vals: list[float] = []
        g_names: list[str] = []
        g_vals: list[float] = []
        g_hwms: list[float] = []
        h_names: list[str] = []
        h_refs: list[int] = []
        h_buckets: list[tuple] = []
        h_counts: list[int] = []
        h_totals: list[float] = []
        h_mins: list[float] = []
        h_maxs: list[float] = []
        edge_table: list[tuple] = []
        edge_index: dict[tuple, int] = {}
        for name, m in self._metrics.items():
            if isinstance(m, Counter):
                c_names.append(name)
                c_vals.append(m.value)
            elif isinstance(m, Gauge):
                g_names.append(name)
                g_vals.append(m.value)
                g_hwms.append(m.hwm)
            else:
                ref = edge_index.get(m.edges)
                if ref is None:
                    ref = edge_index[m.edges] = len(edge_table)
                    edge_table.append(m.edges)
                h_names.append(name)
                h_refs.append(ref)
                h_buckets.append(tuple(m.buckets))
                h_counts.append(m.count)
                h_totals.append(m.total)
                h_mins.append(m.min)
                h_maxs.append(m.max)
        return ("m1",
                (c_names, c_vals),
                (g_names, g_vals, g_hwms),
                (h_names, edge_table, h_refs, h_buckets,
                 h_counts, h_totals, h_mins, h_maxs))

    def merge_columnar(self, enc: tuple) -> None:
        """Fold a :meth:`state_columnar` dump into this registry.

        Counters add; gauges take the incoming value (last-write-wins in
        merge order) with high-water marks combined by max; histograms
        merge bucket-wise (identical edges required — merging
        differently-bucketed histograms would silently misbin).  Merging
        per-worker dumps in cell-submission order reproduces exactly the
        metrics a single shared registry would have seen running the
        same cells serially.
        """
        if not enc or enc[0] != "m1":
            raise ValueError(f"unknown columnar metrics tag: {enc[:1]!r}")
        _, counters, gauges, hists = enc
        for name, value in zip(*counters):
            self.counter(name).inc(value)
        for name, value, hwm in zip(*gauges):
            g = self.gauge(name)
            g.value = float(value)
            if hwm > g.hwm:
                g.hwm = hwm
        h_names, edge_table, h_refs, h_buckets, h_counts, h_totals, \
            h_mins, h_maxs = hists
        for i, name in enumerate(h_names):
            edges = tuple(edge_table[h_refs[i]])
            h = self.histogram(name, edges)
            if h.edges != edges:
                raise ValueError(f"cannot merge histogram {name!r}: "
                                 "bucket edges differ")
            for j, n in enumerate(h_buckets[i]):
                h.buckets[j] += n
            h.count += h_counts[i]
            h.total += h_totals[i]
            if h_mins[i] < h.min:
                h.min = h_mins[i]
            if h_maxs[i] > h.max:
                h.max = h_maxs[i]

    def clear(self) -> None:
        """Drop every metric.

        Hot-path layers (:class:`~repro.sim.network.Network`, the RPC
        layer, grid nodes) cache metric *objects* resolved from this
        registry; clearing while such a layer is live detaches those
        handles from future snapshots.  Build a fresh Telemetry per run
        instead of clearing mid-flight.
        """
        self._metrics.clear()
