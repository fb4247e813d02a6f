"""Which functions under ``src/repro`` the entry points actually run.

Runs each leg of the entry-point matrix below in its own interpreter with
a ``sys.setprofile`` hook that records every code object it sees start,
maps those to the functions ``ast`` finds under ``src/repro`` (module
functions and class methods; closures count with their enclosing
function), and prints the functions no entry leg reaches, in three lists:
reached by nothing, by the tests only, and by the examples only.

The same hook takes a settings census: whenever a ``GridConfig``,
``WorkloadConfig`` or ``ChurnConfig`` finishes ``__init__`` (dict
overrides and ``dataclasses.replace`` included), it records the fields that
differ from their defaults.  One row per field then names the entry legs
that set it, or "examples only", "tests only" or "nobody".

Pool workers are forked, so they inherit the hook; a multiprocessing
after-fork hook makes each worker write its own set on exit.  Programs a
leg starts with ``subprocess`` (the bench smoke test, the examples test)
are not probed: the bench and examples legs cover them.

    python tests/reach/reach.py        # whole matrix, several minutes

Stdlib only; not collected by pytest.
"""

from __future__ import annotations

import ast
import dataclasses
import glob
import importlib
import json
import multiprocessing.util
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: (module, class) of every settings dataclass the census covers.
CONFIGS = (("repro.grid.system", "GridConfig"),
           ("repro.workloads.spec", "WorkloadConfig"),
           ("repro.experiments.churn", "ChurnConfig"))


def legs(tmp: str) -> list[tuple[str, str, list[str]]]:
    """(kind, label, interpreter argv) for every leg; kind is
    entry/examples/tests."""
    repro = ["-m", "repro"]
    out = [("entry", "run all", repro + ["run", "all", "--scale", "0.05", "--jobs", "1"]),
           # The pool path, with telemetry so the worker spools run too.
           ("entry", "run figure2 --jobs 2",
            repro + ["run", "figure2", "--scale", "0.05", "--jobs", "2",
                     "--telemetry", f"{tmp}/pool.jsonl"]),
           ("entry", "run figure2", repro + ["run", "figure2", "--scale", "0.05",
                                              "--telemetry", f"{tmp}/serial.jsonl"]),
           ("entry", "trace", repro + ["trace", "figure2", "--scale", "0.05"]),
           ("entry", "job-trace", repro + ["job-trace", "figure2", "--check"]),
           ("entry", "perf-history", repro + ["perf-history"])]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out += [("entry", f"bench {w['name']}",
             ["bench/run.py", "--workload", w["name"], "--quick", "--trace", "1"])
            for w in spec["workloads"]]
    out += [("examples", path.name, [f"examples/{path.name}"])
            for path in sorted((ROOT / "examples").glob("*.py"))]
    out.append(("tests", "tests",
                ["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"]))
    return out


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line incl. decorators) -> (qualified name, line count)."""
    found = {}

    def walk(body, path, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(path, first)] = (prefix + node.name,
                                        node.end_lineno - first + 1)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, path, f"{prefix}{node.name}.")
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    walk(getattr(node, field, []), path, prefix)

    for path in sorted((SRC / "repro").rglob("*.py")):
        walk(ast.parse(path.read_text()).body, str(path), "")
    return found


def set_fields(obj) -> list[str]:
    """The fields of dataclass ``obj`` that differ from their defaults."""
    out = []
    for f in dataclasses.fields(obj):
        default = f.default if f.default_factory is dataclasses.MISSING \
            else f.default_factory()
        try:
            same = bool(getattr(obj, f.name) == default)
        except (TypeError, ValueError):  # e.g. an array compared elementwise
            same = False
        if not same:
            out.append(f.name)
    return out


def probe(out: str, argv: list[str]) -> None:
    """Run ``argv`` in this interpreter under the hook; write what ran and
    which settings fields it moved off their defaults."""
    seen = set()
    inits: dict = {}  # a config class's __init__ code -> class name
    settings: dict[str, set[str]] = {}

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)
        elif event == "return" and frame.f_code in inits:
            settings.setdefault(inits[frame.f_code], set()).update(
                set_fields(frame.f_locals["self"]))

    def dump(path=out):
        sys.setprofile(None)  # a forked worker still has the hook here
        with open(path, "w") as fh:
            json.dump({"functions": sorted({(c.co_filename, c.co_firstlineno)
                                            for c in seen}),
                       "settings": {k: sorted(v) for k, v in settings.items()}},
                      fh)

    # A forked worker writes its own file when it exits (the registry
    # holds ``hook`` weakly; the profiler keeps it alive).
    multiprocessing.util.register_after_fork(hook, lambda _: multiprocessing.util.Finalize(
        None, dump, args=(f"{out}.{os.getpid()}",), exitpriority=100))
    sys.argv = argv[1:] if argv[0] == "-m" else list(argv)
    sys.setprofile(hook)
    try:
        # Imported under the hook, so their module-level calls still count.
        for module, name in CONFIGS:
            inits[getattr(importlib.import_module(module), name).__init__.__code__] = name
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    else:
        code = 0
    finally:
        dump()
    sys.exit(code)


def print_settings(set_by: dict[str, list[str]]) -> None:
    """One row per settings field: who moves it off its default."""
    print("\n== settings: who sets each field away from its default ==")
    for module, name in CONFIGS:
        cls = getattr(importlib.import_module(module), name)
        for f in dataclasses.fields(cls):
            tags = set_by.get(f"{name}.{f.name}", [])
            entry = [t for t in tags if t not in ("examples", "tests")]
            if entry:
                who = ", ".join(entry)
            elif tags:
                who = " and ".join(sorted(tags)) + " only"
            else:
                who = "nobody"
            print(f"{name}.{f.name}: {who}")


def main() -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "--probe":
        probe(sys.argv[2], sys.argv[4:])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    reached: dict[str, set] = {"entry": set(), "examples": set(), "tests": set()}
    set_by: dict[str, list[str]] = {}  # "Class.field" -> entry legs or kinds
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        for i, (kind, leg, argv) in enumerate(legs(tmp)):
            out = f"{tmp}/leg{i}.json"
            done = subprocess.run([sys.executable, __file__, "--probe", out, "--", *argv],
                                  cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
            print(f"[{kind}] {' '.join(argv)}: exit {done.returncode}", file=sys.stderr)
            for path in glob.glob(f"{out}*"):
                data = json.loads(Path(path).read_text())
                reached[kind] |= {tuple(k) for k in data["functions"]}
                tag = leg if kind == "entry" else kind
                for cls, fields in data["settings"].items():
                    for f in fields:
                        tags = set_by.setdefault(f"{cls}.{f}", [])
                        if tag not in tags:
                            tags.append(tag)
    funcs = functions()
    rest = set(funcs) - reached["entry"]
    groups = [("reached by nothing", rest - reached["tests"] - reached["examples"]),
              ("reached by tests only", rest & reached["tests"] - reached["examples"]),
              ("reached by examples only", rest & reached["examples"])]
    print(f"functions under src/repro: {len(funcs)} "
          f"({sum(n for _, n in funcs.values())} lines); "
          f"reached by an entry point: {len(funcs) - len(rest)}")
    for title, keys in groups:
        lines = sum(funcs[k][1] for k in keys)
        print(f"\n== {title}: {len(keys)} functions, {lines} lines ==")
        by_module: dict[str, list[str]] = {}
        for path, first in sorted(keys):
            module = os.path.relpath(path, SRC)
            by_module.setdefault(module, []).append(funcs[(path, first)][0])
        for module, names in by_module.items():
            print(f"{module}: {', '.join(names)}")
    sys.path.insert(0, str(SRC))
    print_settings(set_by)
    return 0


if __name__ == "__main__":
    sys.exit(main())
