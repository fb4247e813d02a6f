"""Plain-text table rendering for experiment reports.

The benchmark harness prints the same rows/series the paper's figures
show; these helpers keep the formatting in one place.
"""

from __future__ import annotations

from typing import Any, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: str | None = None, float_fmt: str = "{:.2f}") -> str:
    """Render an aligned monospace table."""
    def fmt(cell: Any) -> str:
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row width {len(row)} != header width {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_barchart(title: str,
                    groups: Sequence[tuple[str, Sequence[tuple[str, float]]]],
                    width: int = 50, unit: str = "") -> str:
    """Render grouped horizontal bars (the text rendition of a paper
    figure's bar groups).

    ``groups`` is ``[(group_label, [(series_label, value), ...]), ...]``;
    bars are scaled to the global maximum so groups are comparable, which
    is how the paper's shared-axis panels read.
    """
    if width < 8:
        raise ValueError("width must be >= 8")
    values = [v for _, series in groups for _, v in series]
    if not values:
        return f"{title}\n(no data)"
    peak = max(max(values), 1e-12)
    label_w = max((len(lbl) for _, series in groups for lbl, _ in series),
                  default=1)
    lines = [title, "=" * len(title)]
    for group_label, series in groups:
        lines.append(f"{group_label}:")
        for label, value in series:
            bar = "#" * max(1 if value > 0 else 0, round(width * value / peak))
            lines.append(f"  {label.ljust(label_w)} |{bar.ljust(width)}| "
                         f"{value:.2f}{unit}")
        lines.append("")
    return "\n".join(lines[:-1])
