"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the experiment drivers so a user can
regenerate any paper artifact without writing code:

.. code-block:: console

   $ python -m repro list
   $ python -m repro run figure2 --scale 0.25 --seeds 1,2,3
   $ python -m repro run churn
   $ python -m repro run all --out reports/
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable

from repro.experiments import (
    run_churn_experiment,
    run_heartbeat_sweep,
    run_latency_sensitivity,
    run_walk_length_sweep,
    run_dht_scaling,
    run_fairness_experiment,
    run_large_scale,
    run_figure2,
    run_hops_experiment,
    run_k_sweep_ablation,
    run_matchpipe_ablation,
    run_protocol_experiment,
    run_pushing_experiment,
    run_scaling_experiment,
    run_scenarios_experiment,
    run_ttl_ablation,
    run_virtual_dimension_ablation,
)


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError("seed list is empty")
    if any(s < 0 for s in seeds):
        raise argparse.ArgumentTypeError("seeds must be >= 0")
    return seeds


def _bounded(convert: Callable, what: str, low: float,
             strict: bool = False) -> Callable[[str], float]:
    """An argparse ``type=`` for a number that must be ``>= low`` (``> low``
    when ``strict``) and finite — an integer at most ``sys.maxsize``, the
    largest size a container such as ``deque(maxlen=...)`` accepts.
    Checked at parse time so a bad value is a usage error naming the
    bound, not a traceback from deep inside a run that may already have
    spent minutes on other cells."""
    op = ">" if strict else ">="

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}") from None
        # NaN fails the comparison with low, inf the one with math.inf.
        if not ((value > low if strict else value >= low) and value < math.inf):
            raise argparse.ArgumentTypeError(
                f"{what} must be {op} {low:g}, got {text}")
        if convert is int and value > sys.maxsize:
            raise argparse.ArgumentTypeError(
                f"{what} must be <= {sys.maxsize}, got {text}")
        return value

    return parse


_parse_scale = _bounded(float, "scale", 0, strict=True)
#: ``--jobs``: a worker count, ``0`` meaning all cores.
_parse_jobs = _bounded(int, "worker count", 0)
#: Trace ring-buffer capacity in records.
_parse_buffer = _bounded(int, "buffer capacity", 1)


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}") from None
    if not sizes:
        raise argparse.ArgumentTypeError("size list is empty")
    if any(n < 1 for n in sizes):
        raise argparse.ArgumentTypeError("sizes must be positive")
    return sizes


#: Experiment registry: name -> (description, runner(scale, seeds) -> result).
#: Runners for parallelizable sweeps also accept an optional ``jobs=``
#: keyword (worker processes); the CLI forwards ``--jobs`` only when given,
#: so plain two-argument runners remain valid registry entries.
EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "figure2": ("Figure 2: job wait time, all four panels",
                lambda scale, seeds, jobs=None: run_figure2(
                    scale=scale, seeds=seeds, jobs=jobs)),
    "hops": ("matchmaking cost table ('a small number of hops')",
             lambda scale, seeds, jobs=None: run_hops_experiment(
                 scale=scale, seeds=seeds, jobs=jobs)),
    "pushing": ("load-aware pushing vs basic CAN",
                lambda scale, seeds, jobs=None: run_pushing_experiment(
                    scale=scale, seeds=seeds, jobs=jobs)),
    "churn": ("robustness under churn: P2P vs client-server",
              lambda scale, seeds, jobs=None: run_churn_experiment(
                  seeds=seeds, jobs=jobs)),
    "dht-scaling": ("DHT lookup cost vs N (Chord/Pastry/Kademlia/CAN)",
                    lambda scale, seeds, jobs=None: run_dht_scaling(
                        seed=seeds[0], include_large=scale >= 1.0,
                        jobs=jobs)),
    "large-scale": ("scale-out kernel validation at 10k-100k nodes",
                    lambda scale, seeds, jobs=None, sizes=None, churn_n=None:
                    run_large_scale(
                        workload_sizes=sizes if sizes is not None
                        else (max(50, int(2000 * scale)),
                              max(100, int(10_000 * scale))),
                        churn_n=churn_n if churn_n is not None
                        else max(500, int(100_000 * scale)),
                        seed=seeds[0], jobs=jobs)),
    "protocol": ("message-level Chord maintenance vs reliability",
                 lambda scale, seeds, jobs=None: run_protocol_experiment(
                     jobs=jobs)),
    "ablation-vdim": ("virtual-dimension ablation",
                      lambda scale, seeds, jobs=None:
                      run_virtual_dimension_ablation(
                          scale=scale, seed=seeds[0], jobs=jobs)),
    "ablation-k": ("RN-Tree extended-search k sweep",
                   lambda scale, seeds, jobs=None: run_k_sweep_ablation(
                       scale=scale, seed=seeds[0], jobs=jobs)),
    "ablation-ttl": ("TTL random walk vs structured matchmaking",
                     lambda scale, seeds, jobs=None: run_ttl_ablation(
                         scale=scale, seed=seeds[0], jobs=jobs)),
    "ablation-matchpipe": ("selection policy × probe mode under churn",
                           lambda scale, seeds, jobs=None:
                           run_matchpipe_ablation(seeds=seeds, jobs=jobs)),
    "fairness": ("fair-share vs FIFO queueing extension",
                 lambda scale, seeds, jobs=None:
                 run_fairness_experiment(seed=seeds[0])),
    "scaling": ("grid scalability: wait/cost vs N at constant load",
                lambda scale, seeds, jobs=None: run_scaling_experiment(
                    seed=seeds[0], jobs=jobs)),
    "scenarios": ("adversarial scenario packs x mitigation knobs",
                  lambda scale, seeds, jobs=None: run_scenarios_experiment(
                      seeds=seeds, jobs=jobs)),
    "tuning-heartbeat": ("heartbeat cadence: traffic vs detection latency",
                         lambda scale, seeds, jobs=None: run_heartbeat_sweep(
                             seed=seeds[0])),
    "tuning-walk": ("RN-Tree random-walk length sweep",
                    lambda scale, seeds, jobs=None: run_walk_length_sweep(
                        scale=scale, seed=seeds[0])),
    "tuning-latency": ("WAN latency sensitivity",
                       lambda scale, seeds, jobs=None: run_latency_sensitivity(
                           scale=scale, seed=seeds[0])),
}

#: Experiments whose driver is inherently single-replicate: the CLI runs
#: them with ``seeds[0]`` and *says so* when extra seeds are passed
#: (they used to be dropped silently).
SINGLE_SEED_EXPERIMENTS = frozenset({
    "dht-scaling", "protocol", "ablation-vdim", "ablation-k", "ablation-ttl",
    "fairness", "scaling", "tuning-heartbeat", "tuning-walk", "tuning-latency",
    "large-scale",
})

#: Experiments that can attach a telemetry stack: name -> runner taking
#: (scale, seeds, telemetry).  Kept separate from :data:`EXPERIMENTS`
#: so its entries stay plain ``(description, runner(scale, seeds))``
#: pairs for external callers.
TELEMETRY_RUNNERS: dict[str, Callable] = {
    "figure2": lambda scale, seeds, tel, jobs=None: run_figure2(
        scale=scale, seeds=seeds, telemetry=tel, jobs=jobs),
    "hops": lambda scale, seeds, tel, jobs=None: run_hops_experiment(
        scale=scale, seeds=seeds, telemetry=tel, jobs=jobs),
    "pushing": lambda scale, seeds, tel, jobs=None: run_pushing_experiment(
        scale=scale, seeds=seeds, telemetry=tel, jobs=jobs),
}

#: Experiments ``repro job-trace`` can drive: they must accept
#: ``grid_overrides`` so the causal-tracing run can switch the grid to
#: the message-level pipeline (rpc probes + acknowledged dispatch).
JOB_TRACE_RUNNERS: dict[str, Callable] = {
    "figure2": lambda scale, seeds, tel, overrides, jobs=None: run_figure2(
        scale=scale, seeds=seeds, telemetry=tel, grid_overrides=overrides,
        jobs=jobs),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="P2P desktop grid (Kim et al., IPDPS 2007): regenerate "
                    "the paper's figures and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment",
                     choices=sorted(EXPERIMENTS) + ["all"],
                     help="experiment id (see 'repro list')")
    run.add_argument("--scale", type=_parse_scale, default=0.25,
                     help="workload scale vs the paper's 1000 nodes/5000 "
                          "jobs (default 0.25; 1.0 = paper scale)")
    run.add_argument("--seeds", type=_parse_seeds, default=(1,),
                     help="comma-separated replicate seeds (default: 1)")
    run.add_argument("--out", type=Path, default=None,
                     help="directory to also write the report(s) into")
    run.add_argument("--check", action="store_true",
                     help="fail (exit 1) if the paper-shape checks fail")
    run.add_argument("--jobs", type=_parse_jobs, default=None, metavar="N",
                     help="worker processes for the sweep fan-out "
                          "(0 = all cores; default: serial, or the "
                          "REPRO_JOBS environment variable if set)")
    run.add_argument("--sizes", type=_parse_sizes, default=None,
                     metavar="N1,N2,...",
                     help="large-scale only: comma-separated workload-cell "
                          "node counts, overriding the --scale-derived "
                          "defaults (e.g. --sizes 2048,10000)")
    run.add_argument("--churn-n", type=_bounded(int, "churn ring size", 1),
                     default=None, metavar="N",
                     help="large-scale only: Chord ring size for the churn "
                          "cell, overriding the --scale-derived default")
    run.add_argument("--telemetry", type=Path, default=None, metavar="PATH",
                     help="attach the telemetry stack and export the "
                          "span/metric stream as JSONL to PATH (supported "
                          "for: " + ", ".join(sorted(TELEMETRY_RUNNERS)) + ")")

    trace = sub.add_parser(
        "trace",
        help="run an experiment with full tracing and print the "
             "observability report")
    trace.add_argument("experiment", choices=sorted(TELEMETRY_RUNNERS),
                       help="experiment id (telemetry-capable ones only)")
    trace.add_argument("--scale", type=_parse_scale, default=0.25,
                       help="workload scale (default 0.25)")
    trace.add_argument("--seeds", type=_parse_seeds, default=(1,),
                       help="comma-separated replicate seeds (default: 1)")
    trace.add_argument("--out", type=Path, default=None, metavar="PATH",
                       help="also export the raw stream as JSONL to PATH")
    trace.add_argument("--categories", type=str, default=None,
                       help="comma-separated trace categories to keep "
                            "(default: all; e.g. 'dht.lookup,job.match')")
    trace.add_argument("--buffer", type=_parse_buffer, default=200_000,
                       help="trace ring-buffer capacity in records "
                            "(default 200000; oldest records drop first)")

    jt = sub.add_parser(
        "job-trace",
        help="run a traced experiment and render causal per-job "
             "timelines (phase breakdown, critical path, anomalies)")
    jt.add_argument("experiment", choices=sorted(JOB_TRACE_RUNNERS),
                    help="experiment id (causal-tracing capable ones)")
    jt.add_argument("--scale", type=_parse_scale, default=0.1,
                    help="workload scale (default 0.1 — tracing every job "
                         "is verbose; raise deliberately)")
    jt.add_argument("--seeds", type=_parse_seeds, default=(1,),
                    help="comma-separated replicate seeds (default: 1)")
    jt.add_argument("--slowest", type=_bounded(int, "slowest-job count", 0),
                    default=5, metavar="K",
                    help="render ASCII timelines for the K slowest jobs "
                         "(default 5)")
    jt.add_argument("--probe-mode", choices=("oracle", "rpc"), default="rpc",
                    help="grid probe mode for the traced run (default rpc: "
                         "real probe/dispatch messages, so remote-node "
                         "spans appear in the trees)")
    jt.add_argument("--out", type=Path, default=None, metavar="PATH",
                    help="also export the raw span stream as JSONL to PATH")
    jt.add_argument("--buffer", type=_parse_buffer, default=1_000_000,
                    help="trace ring-buffer capacity in records (default "
                         "1000000; the default scale records about 583000, "
                         "and a truncated trace fails --check)")
    jt.add_argument("--jobs", type=_parse_jobs, default=None, metavar="N",
                    help="worker processes (traces merge deterministically "
                         "in submission order)")
    jt.add_argument("--check", action="store_true",
                    help="fail (exit 1) on trace anomalies: orphan spans, "
                         "jobs without a terminal event, or ring truncation")

    ph = sub.add_parser(
        "perf-history",
        help="walk git log for committed BENCH_perf.json revisions and "
             "print per-cell wall/throughput trajectories")
    ph.add_argument("--repo", type=Path, default=Path("."),
                    help="repository root (default: cwd)")
    ph.add_argument("--cell", type=str, default=None,
                    help="restrict the report to one bench cell "
                         "(e.g. figure2.serial)")
    return parser


def _check_writable(path: Path | None) -> bool:
    """Fail fast on an unwritable telemetry path — *before* spending
    minutes on the experiment whose trace would then be lost."""
    if path is None:
        return True
    parent = path.parent if str(path.parent) else Path(".")
    if not parent.is_dir():
        print(f"error: cannot write telemetry to {path}: "
              f"directory {parent} does not exist", file=sys.stderr)
        return False
    return True


def _warn_extra_seeds(name: str, seeds: tuple[int, ...]) -> None:
    if name in SINGLE_SEED_EXPERIMENTS and len(seeds) > 1:
        print(f"warning: experiment '{name}' is single-replicate; "
              f"running seed {seeds[0]} and ignoring {list(seeds[1:])}",
              file=sys.stderr)


def _run_one(name: str, scale: float, seeds: tuple[int, ...],
             out: Path | None, check: bool,
             telemetry_out: Path | None = None,
             jobs: int | None = None,
             sizes: tuple[int, ...] | None = None,
             churn_n: int | None = None) -> bool:
    _warn_extra_seeds(name, seeds)
    # Forward --jobs only when given so registry entries (and the test
    # suite's monkeypatched fakes) may remain plain two-argument runners.
    kw: dict = {} if jobs is None else {"jobs": jobs}
    # --sizes/--churn-n are large-scale cell overrides; other runners do
    # not accept them, so warn and drop rather than crash mid-'run all'.
    if sizes is not None or churn_n is not None:
        if name == "large-scale":
            if sizes is not None:
                kw["sizes"] = sizes
            if churn_n is not None:
                kw["churn_n"] = churn_n
        else:
            print(f"warning: --sizes/--churn-n apply only to 'large-scale'; "
                  f"ignored for '{name}'", file=sys.stderr)
    tel = None
    if telemetry_out is not None:
        if name in TELEMETRY_RUNNERS:
            from repro.telemetry.core import Telemetry

            tel = Telemetry(sample_interval=10.0)
            result = TELEMETRY_RUNNERS[name](scale, seeds, tel, **kw)
        else:
            print(f"warning: experiment '{name}' does not support "
                  "--telemetry; running without it", file=sys.stderr)
            _desc, runner = EXPERIMENTS[name]
            result = runner(scale, seeds, **kw)
    else:
        _desc, runner = EXPERIMENTS[name]
        result = runner(scale, seeds, **kw)
    report = result.report()
    print(report)
    ok = True
    checks = getattr(result, "shape_checks", None)
    if checks is not None:
        verdicts = checks()
        print("\nshape checks:")
        for key, passed in verdicts.items():
            print(f"  [{'ok' if passed else 'FAIL'}] {key}")
        ok = all(verdicts.values())
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.txt").write_text(report + "\n")
        print(f"\n[written to {out / f'{name}.txt'}]")
    if tel is not None:
        tel.export_jsonl(telemetry_out)
        n = len(tel.bus) + len(tel.final_records())
        print(f"\n[telemetry: {n} records written to {telemetry_out}]")
    return ok or not check


def _run_job_trace(args) -> int:
    from repro.telemetry.core import Telemetry
    from repro.telemetry.timeline import (
        render_anomalies,
        render_critical_path,
        render_job_timeline,
        render_phase_table,
        timeline_from_bus,
    )

    if not _check_writable(args.out):
        return 2
    tel = Telemetry(maxlen=args.buffer, sample_interval=10.0)
    overrides = {"probe_mode": args.probe_mode,
                 "dispatch_ack": args.probe_mode == "rpc"}
    kw: dict = {} if args.jobs is None else {"jobs": args.jobs}
    JOB_TRACE_RUNNERS[args.experiment](args.scale, args.seeds, tel,
                                       overrides, **kw)
    tl = timeline_from_bus(tel.bus)
    print(f"causal trace: {len(tl.jobs)} jobs, {len(tel.bus)} records "
          f"(probe_mode={args.probe_mode})\n")
    for jt in tl.slowest(args.slowest):
        print(render_job_timeline(jt))
        print("critical path:")
        print(render_critical_path(jt))
        print()
    print(render_phase_table(tl))
    print()
    print(render_anomalies(tl))
    if args.out is not None:
        tel.export_jsonl(args.out)
        n = len(tel.bus) + len(tel.final_records())
        print(f"\n[trace: {n} records written to {args.out}]")
    if args.check and not tl.healthy:
        print("\njob-trace --check: trace anomalies detected",
              file=sys.stderr)
        return 1
    return 0


def _run_perf_history(args) -> int:
    from repro.perfhistory import collect_history, history_report

    points = collect_history(repo=args.repo)
    print(history_report(points, only_cell=args.cell))
    return 0


def _run_trace(args) -> int:
    from repro.telemetry.core import Telemetry
    from repro.telemetry.summary import telemetry_report

    if not _check_writable(args.out):
        return 2
    categories = None
    if args.categories:
        categories = {c.strip() for c in args.categories.split(",")
                      if c.strip()}
    tel = Telemetry(categories=categories, maxlen=args.buffer,
                    sample_interval=10.0)
    TELEMETRY_RUNNERS[args.experiment](args.scale, args.seeds, tel)
    print(telemetry_report(tel))
    if args.out is not None:
        tel.export_jsonl(args.out)
        n = len(tel.bus) + len(tel.final_records())
        print(f"\n[telemetry: {n} records written to {args.out}]")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Piping into `head` etc. closes stdout early; exit quietly like
        # any well-behaved CLI.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            print(f"{name.ljust(width)}  {EXPERIMENTS[name][0]}")
        return 0
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "job-trace":
        return _run_job_trace(args)
    if args.command == "perf-history":
        return _run_perf_history(args)
    if not _check_writable(args.telemetry):
        return 2
    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    all_ok = True
    for name in names:
        if len(names) > 1:
            print(f"\n=== {name} ===\n")
        all_ok &= _run_one(name, args.scale, args.seeds, args.out, args.check,
                           telemetry_out=args.telemetry,
                           jobs=getattr(args, "jobs", None),
                           sizes=getattr(args, "sizes", None),
                           churn_n=getattr(args, "churn_n", None))
    return 0 if all_ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
