"""Diff a BENCH_perf.json run against the committed baseline.

Prints a per-cell regression table and exits non-zero when any comparable
cell's throughput falls below ``baseline * (1 - tolerance)``.  Intended
for the CI bench-smoke job::

    python benchmarks/diff_perf.py                 # default paths + tol
    BENCH_TOL=0.3 python benchmarks/diff_perf.py   # allow 30% slack

Tolerance comes from ``BENCH_TOL`` (fractional slack, default 0.5 — CI
runners are noisy shared machines; the point is catching step-function
regressions, not 5% jitter).  Cells listed in ``perf.SCALE_FREE_CELLS``
are compared at any scale; scale-dependent cells are compared only when
the two documents were recorded at the same ``REPRO_BENCH_SCALE``.
Memory metrics (``mem_peak_mb`` / ``bytes_per_node``) gate too: growth
past ``MEM_FAIL_RATIO`` (+25%, fixed — tracemalloc peaks are
deterministic) against a same-cpu comparable baseline exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from perf import (
    BASELINE_PATH,
    CPU_SENSITIVE_CELLS,
    MEMORY_METRICS,
    PERF_PATH,
    PERF_SCHEMA,
    SCALE_FREE_CELLS,
    THROUGHPUT_METRICS,
)

#: Memory metrics hard-fail past this growth ratio (fixed, not BENCH_TOL:
#: tracemalloc peaks are deterministic, so the gate can be tight even
#: when the throughput tolerance is slack for noisy CI runners).
MEM_FAIL_RATIO = 1.25


def load_doc(path: Path) -> dict:
    doc = json.loads(path.read_text())
    if doc.get("schema") != PERF_SCHEMA:
        raise SystemExit(f"{path}: unsupported schema {doc.get('schema')!r}")
    return doc


def compare(baseline: dict, current: dict,
            tolerance: float) -> tuple[list[tuple], list[str]]:
    """Per-cell rows plus the names of regressed cells.

    Row: (cell, metric, baseline value, current value, ratio, status) —
    status is ``ok`` / ``REGRESSED`` / ``warn (cpu)`` / ``warn (mem)`` /
    ``skipped (scale)`` / ``missing``.  Memory metrics (``MEMORY_METRICS``)
    gate like throughput: growth past ``MEM_FAIL_RATIO`` against a
    same-cpu, same-scale baseline is ``REGRESSED``; against a
    different-cpu or different-scale baseline (another malloc arena,
    another working set) it softens to ``warn (mem)``.  When the two
    documents were recorded on hosts with a different ``cpu_count``,
    regressions in ``CPU_SENSITIVE_CELLS`` are softened to ``warn (cpu)``
    and do not gate: a parallel sweep losing throughput because the
    runner has fewer cores than the baseline host is a hardware delta,
    not a code regression.
    """
    same_scale = baseline.get("scale") == current.get("scale")
    same_cpus = baseline.get("cpu_count") == current.get("cpu_count")
    rows: list[tuple] = []
    regressed: list[str] = []
    for cell, metric in sorted(THROUGHPUT_METRICS.items()):
        before = baseline["entries"].get(cell, {}).get(metric)
        after = current["entries"].get(cell, {}).get(metric)
        if before is None or after is None:
            rows.append((cell, metric, before, after, None, "missing"))
            continue
        if cell not in SCALE_FREE_CELLS and not same_scale:
            rows.append((cell, metric, before, after, None, "skipped (scale)"))
            continue
        ratio = after / before if before else float("inf")
        if ratio < 1.0 - tolerance:
            if cell in CPU_SENSITIVE_CELLS and not same_cpus:
                status = "warn (cpu)"
            else:
                status = "REGRESSED"
                regressed.append(cell)
        else:
            status = "ok"
        rows.append((cell, metric, before, after, ratio, status))
    # Memory metrics gate at a fixed +25%: tracemalloc peaks are exact
    # (not host-load-sensitive like wall clocks), so a step past
    # MEM_FAIL_RATIO on a comparable baseline is a real footprint
    # regression, not jitter.  Cross-cpu or cross-scale documents soften
    # to warn (mem) — different allocator arenas / working sets.
    for cell in sorted(set(baseline["entries"]) & set(current["entries"])):
        comparable = same_cpus and (same_scale or cell in SCALE_FREE_CELLS)
        for metric in sorted(MEMORY_METRICS):
            before = baseline["entries"][cell].get(metric)
            after = current["entries"][cell].get(metric)
            if before is None or after is None:
                continue
            ratio = after / before if before else float("inf")
            if ratio > MEM_FAIL_RATIO:
                if comparable:
                    status = "REGRESSED"
                    regressed.append(cell)
                else:
                    status = "warn (mem)"
            elif ratio > 1.0 + tolerance:
                status = "warn (mem)"
            else:
                status = "ok"
            rows.append((cell, metric, before, after, ratio, status))
    return rows, regressed


def _fmt(value: float | None) -> str:
    """Counts get thousands separators; sub-10 values (wall seconds,
    speedup ratios) keep three decimals instead of collapsing to 0."""
    if value is None:
        return "-"
    return f"{value:,.0f}" if abs(value) >= 10 else f"{value:.3f}"


def render(rows: list[tuple], tolerance: float) -> str:
    header = (f"{'cell':<26} {'metric':<13} {'baseline':>12} "
              f"{'current':>12} {'ratio':>7}  status")
    lines = [header, "-" * len(header)]
    for cell, metric, before, after, ratio, status in rows:
        b = _fmt(before)
        a = _fmt(after)
        r = f"{ratio:.2f}x" if ratio is not None else "-"
        lines.append(f"{cell:<26} {metric:<13} {b:>12} {a:>12} {r:>7}  {status}")
    lines.append(f"(regression threshold: ratio < {1.0 - tolerance:.2f}x; "
                 f"BENCH_TOL={tolerance})")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", type=Path, default=PERF_PATH)
    ap.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    ap.add_argument("--tolerance", type=float,
                    default=float(os.environ.get("BENCH_TOL", "0.5")))
    args = ap.parse_args(argv)

    if not args.baseline.is_file():
        print(f"no baseline at {args.baseline}; nothing to diff")
        return 0
    if not args.current.is_file():
        print(f"no current run at {args.current}; run the bench suite first",
              file=sys.stderr)
        return 2
    if not 0 <= args.tolerance < 1:
        print(f"tolerance must be in [0, 1), got {args.tolerance}",
              file=sys.stderr)
        return 2

    baseline, current = load_doc(args.baseline), load_doc(args.current)
    rows, regressed = compare(baseline, current, args.tolerance)
    print(f"perf diff: {args.current} vs {args.baseline} "
          f"(scales {current.get('scale')} vs {baseline.get('scale')})")
    if baseline.get("cpu_count") != current.get("cpu_count"):
        print(f"note: baseline recorded with cpu_count="
              f"{baseline.get('cpu_count')}, current host has "
              f"{current.get('cpu_count')} — cpu-sensitive cells "
              f"({', '.join(sorted(CPU_SENSITIVE_CELLS))}) warn instead "
              f"of gating")
    print(render(rows, args.tolerance))
    if regressed:
        print(f"\nREGRESSED: {', '.join(regressed)}", file=sys.stderr)
        return 1
    print("\nno regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
