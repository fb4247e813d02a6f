"""The repo benchmark: one command, five workloads, two metric sets.

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds N]
                         [--trace [0|1]] [--out DIR] [--quick] [--agree]

Prints every metric by name with its unit, checks the outputs, and ends with
one JSON object per workload (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of one extra traced pass.  Exits non-zero when a check fails.
``BENCHMARK.json`` at the repo root declares the workloads, metric names,
units and regression bounds; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TMP_ROOT = ROOT / ".bench_tmp"

#: Agreement rule of ``--agree`` for metrics that must not depend on the
#: host: simulated statistics repeat exactly, peak memory within 1 %.
EXACT = ("ok_frac", "sim_prompt_frac", "sim_msgs_per_op")
MEM_TOLERANCE = 0.01


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def result_line(report, spec: dict, traced: bool) -> str:
    """The machine-readable last line: exactly the declared metrics."""
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    values = report.per_layer if traced else report.end_to_end
    metrics = {}
    for m in declared:
        value = float(values[m["name"]])
        metrics[m["name"]] = {
            "value": 0.0 if math.isnan(value) else value, "unit": m["unit"]}
    undeclared = sorted(set(values) - set(metrics))
    if undeclared:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    return json.dumps({"correct": report.correct,
                       "attempted": report.attempted,
                       "failed": report.failed, "metrics": metrics})


def print_report(report, spec: dict) -> None:
    info = report.info
    flag = "  [--quick: sizes / 8, numbers NOT comparable]" \
        if report.quick else ""
    print(f"== {report.workload}  seed={report.seed}  ops={info['ops']}  "
          f"repeats={info['repeats']}  "
          f"set-up samples={info['setup_samples']}{flag}")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<18}{report.end_to_end[m['name']]:>16.6f} "
              f"{m['unit']:<10} ({m['better']} is better, "
              f"bound {m['bound']:g})")
    wait = info["sim_wait_mean_s"]
    print(f"  not gated: failed_frac={info['failed_frac']:.6f}  "
          f"sim_wait_mean_s={'n/a' if wait is None else format(wait, '.4f')}"
          f"  events_per_s={info['events_per_s']:.0f}  "
          f"repeat_spread={info['repeat_spread']:.4f}  walls="
          + " ".join(f"{w:.3f}" for w in info["walls"]))
    if "bare_wall_s" in info:
        print(f"  same cell, telemetry off: wall {info['bare_wall_s']:.3f} s")
    for name, ok in info.get("shapes", {}).items():
        print(f"  figure 2 shape {name}: {'holds' if ok else 'DOES NOT HOLD'}")
    if report.per_layer is not None:
        pl = report.per_layer
        print(f"  traced pass: {info['spans']} spans"
              f"{' (dump truncated)' if info['spans_truncated'] else ''}, "
              f"set-up {info['traced_setup_s']:.3f} s + run "
              f"{info['traced_wall_s']:.3f} s")
        print(f"  {'layer':<20}{'calls':>10}{'self_s':>10}{'share':>8}")
        from tracer import LAYERS
        for layer in LAYERS:
            print(f"  {layer:<20}{pl[layer + '.calls']:>10.0f}"
                  f"{pl[layer + '.self_s']:>10.4f}"
                  f"{pl[layer + '.share']:>8.3f}")
        layer_keys = {f"{layer}.{k}" for layer in LAYERS
                      for k in ("calls", "self_s", "share")}
        for m in spec["per_layer"]:
            if m["name"] not in layer_keys:
                print(f"  {m['name']:<40}{pl[m['name']]:>16.6g} {m['unit']}")
        if report.skipped_wrappers:
            print("  not wrapped (no longer in the program): "
                  + ", ".join(report.skipped_wrappers))
        if report.span_dump is not None:
            print(f"  spans written to {report.span_dump}")
    for v in report.violations:
        print(f"  CHECK FAILED  {v}")
    print(f"  checks: {'all passed' if report.correct else 'FAILED'}")


def child(name: str, args, capture: bool = False) -> tuple[int, dict | None]:
    """Measure one workload in a process of its own (peak memory is a
    per-process high-water mark) and wait for it; returns its exit status
    and, when captured, its result line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    cmd += ["--quick"] if args.quick else []
    cmd += ["--out", str(args.out)] if args.out else []
    done = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                          text=True)
    if not capture:
        return done.returncode, None
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        print(done.stdout, end="")
        return done.returncode or 1, None


def agree(names: list[str], spec: dict, args) -> int:
    """Two full sets back to back; every metric must agree within its bound."""
    sets = [{n: child(n, args, capture=True) for n in names}
            for _ in range(2)]
    bad = 0
    print(f"{'workload':<14}{'metric':<18}{'first':>14}{'second':>14}"
          f"{'rel.diff':>10}{'allowed':>9}")
    for n in names:
        results = [s[n][1] for s in sets]
        if any(status or r is None or not r["correct"]
               for (status, _), r in zip((s[n] for s in sets), results)):
            bad += 1
            print(f"{n:<14}RUN FAILED (run it alone to see the failed check)")
            continue
        for m in spec["end_to_end"]:
            a, b = (r["metrics"][m["name"]]["value"] for r in results)
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            if m["name"] in EXACT:
                allowed, ok = 0.0, a == b
            elif m["name"] == "mem_peak_mb":
                allowed, ok = MEM_TOLERANCE, abs(worse) <= MEM_TOLERANCE
            else:
                allowed, ok = m["bound"], abs(worse) <= m["bound"]
            bad += not ok
            print(f"{n:<14}{m['name']:<18}{a:>14.6f}{b:>14.6f}"
                  f"{worse:>+10.4f}{allowed:>9.3f}{'' if ok else '  DISAGREE'}")
    print("agreement: " + ("ok" if not bad else f"{bad} violation(s)"))
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload (default: all five)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="measurement budget: timed repeats are added until "
                         "their timed regions total this long (never fewer "
                         "than 3 repeats)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1), help="add the traced pass; the JSON line "
                                         "then holds the per-layer metrics")
    ap.add_argument("--out", type=Path,
                    help="directory for the raw span dump of a traced pass")
    ap.add_argument("--quick", action="store_true",
                    help="smoke run: sizes / 8, one repeat, checks on; "
                         "numbers are not comparable")
    ap.add_argument("--agree", action="store_true",
                    help="run two sets and compare them against the bounds")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: the program is not here: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    for path in (ROOT / "src", Path(__file__).resolve().parent):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    spec = load_spec()
    declared = [w["name"] for w in spec["workloads"]]
    names = [args.workload] if args.workload else declared
    if args.workload and args.workload not in declared:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{declared}", file=sys.stderr)
        return 2
    if args.agree:
        args.trace = 0
        return agree(names, spec, args)
    if not args.workload:
        return max(child(name, args)[0] for name in names)
    import harness
    report = harness.measure(
        args.workload, args.seed, seconds=args.seconds, quick=args.quick,
        trace=bool(args.trace), out_dir=args.out, tmp_root=TMP_ROOT)
    print_report(report, spec)
    print(result_line(report, spec, traced=bool(args.trace)), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
