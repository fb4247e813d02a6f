"""Which functions under ``src/repro`` the entry points actually run.

Runs each leg of the entry-point matrix below in its own interpreter with
a ``sys.setprofile`` hook that records every code object it sees start,
maps those to the functions ``ast`` finds under ``src/repro`` (module
functions and class methods; closures count with their enclosing
function), and prints the functions no entry leg reaches, in three lists:
reached by nothing, by the tests only, and by the examples only.

Pool workers are forked, so they inherit the hook; a multiprocessing
after-fork hook makes each worker write its own set on exit.  Programs a
leg starts with ``subprocess`` (the bench smoke test, the examples test)
are not probed: the bench and examples legs cover them.

    python tests/reach/reach.py        # whole matrix, several minutes

Stdlib only; not collected by pytest.
"""

from __future__ import annotations

import ast
import glob
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


def legs(tmp: str) -> list[tuple[str, list[str]]]:
    """(kind, interpreter argv) for every leg; kind is entry/examples/tests."""
    repro = ["-m", "repro"]
    out = [("entry", repro + ["run", "all", "--scale", "0.05", "--jobs", "1"]),
           # The pool path, with telemetry so the worker spools run too.
           ("entry", repro + ["run", "figure2", "--scale", "0.05", "--jobs", "2",
                              "--telemetry", f"{tmp}/pool.jsonl"]),
           ("entry", repro + ["run", "figure2", "--scale", "0.05",
                              "--telemetry", f"{tmp}/serial.jsonl"]),
           ("entry", repro + ["trace", "figure2", "--scale", "0.05"]),
           ("entry", repro + ["job-trace", "figure2", "--check"]),
           ("entry", repro + ["perf-history"])]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out += [("entry", ["bench/run.py", "--workload", w["name"], "--quick",
                       "--trace", "1"]) for w in spec["workloads"]]
    out += [("examples", [f"examples/{path.name}"])
            for path in sorted((ROOT / "examples").glob("*.py"))]
    out.append(("tests", ["-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"]))
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


def probe(out: str, argv: list[str]) -> None:
    """Run ``argv`` in this interpreter under the hook; write what ran."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump(path=out):
        sys.setprofile(None)  # a forked worker still has the hook here
        with open(path, "w") as fh:
            json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in seen}), fh)

    # A forked worker writes its own file when it exits (the registry
    # holds ``hook`` weakly; the profiler keeps it alive).
    multiprocessing.util.register_after_fork(hook, lambda _: multiprocessing.util.Finalize(
        None, dump, args=(f"{out}.{os.getpid()}",), exitpriority=100))
    sys.argv = argv[1:] if argv[0] == "-m" else list(argv)
    sys.setprofile(hook)
    try:
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


def main() -> int:
    if len(sys.argv) > 2 and sys.argv[1] == "--probe":
        probe(sys.argv[2], sys.argv[4:])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    reached: dict[str, set] = {"entry": set(), "examples": set(), "tests": set()}
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        for i, (kind, argv) in enumerate(legs(tmp)):
            out = f"{tmp}/leg{i}.json"
            done = subprocess.run([sys.executable, __file__, "--probe", out, "--", *argv],
                                  cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
            print(f"[{kind}] {' '.join(argv)}: exit {done.returncode}", file=sys.stderr)
            for path in glob.glob(f"{out}*"):
                reached[kind] |= {tuple(k) for k in json.loads(Path(path).read_text())}
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
