"""Text reports over a :class:`~repro.telemetry.core.Telemetry` capture.

Renders the same quantities the paper argues about, from live telemetry
instead of terminal job records: hop distributions per overlay and
matchmaker ("a small number of hops"), the message budget by kind
(aggregation/heartbeat overhead), and the trace buffer's contents.
All output reuses
:func:`repro.metrics.report.format_table` so experiment reports and
telemetry reports read alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.report import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.core import Telemetry
    from repro.telemetry.registry import Histogram


def histogram_table(hists: "list[Histogram]", title: str) -> str:
    """Count/mean/percentiles table, one row per histogram."""
    rows = []
    for h in hists:
        s = h.snapshot()
        rows.append([h.name, int(s["count"]), s["mean"], s["p50"], s["p95"],
                     s["p99"], s["max"]])
    return format_table(["metric", "n", "mean", "p50", "p95", "p99", "max"],
                        rows, title=title)


def hop_histogram_bars(hist: "Histogram", width: int = 40) -> str:
    """One histogram's occupied buckets as horizontal bars."""
    rows = hist.nonzero_buckets()
    if not rows:
        return f"{hist.name}: (no samples)"
    peak = max(n for _, n in rows)
    lines = [f"{hist.name} (n={hist.count}, mean={hist.mean:.2f})"]
    label_w = max(len(lbl) for lbl, _ in rows)
    for label, n in rows:
        bar = "#" * max(1, round(width * n / peak))
        lines.append(f"  {label.rjust(label_w)} |{bar.ljust(width)}| {n}")
    return "\n".join(lines)


def message_budget_report(tel: "Telemetry") -> str:
    """Network counters grouped by message kind, plus totals."""
    rows = []
    for c in tel.metrics.counters("net.sent."):
        rows.append([c.name.removeprefix("net.sent."), int(c.value)])
    for name in ("net.delivered", "net.dropped", "rpc.calls", "rpc.replies",
                 "rpc.timeouts"):
        m = tel.metrics.get(name)
        if m is not None:
            rows.append([name, int(m.value)])
    if not rows:
        return "message budget: (no network telemetry recorded)"
    return format_table(["message kind", "count"], rows,
                        title="Message budget")


def telemetry_report(tel: "Telemetry", bars_for: str = "dht.") -> str:
    """The full text summary: hops, queue depths, message budget, buffer."""
    parts = []
    hop_hists = tel.metrics.histograms("dht.") + tel.metrics.histograms("match.")
    if hop_hists:
        parts.append(histogram_table(
            hop_hists, "Hop distributions (per lookup / per search)"))
        for h in tel.metrics.histograms(bars_for):
            if h.count:
                parts.append(hop_histogram_bars(h))
    queue_hists = tel.metrics.histograms("grid.")
    if queue_hists:
        parts.append(histogram_table(queue_hists,
                                     "Queue depth (periodic samples)"))
    parts.append(message_budget_report(tel))
    counts = tel.bus.category_counts()
    if counts:
        rows = [[cat, n] for cat, n in sorted(counts.items())]
        title = f"Trace buffer: {len(tel.bus)} records"
        if tel.bus.dropped:
            title += f" ({tel.bus.dropped} dropped by ring buffer)"
        parts.append(format_table(["category", "records"], rows, title=title))
    return "\n\n".join(parts)
