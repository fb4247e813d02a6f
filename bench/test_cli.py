"""The command line, as a user or the CI would run it."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


def test_quick_smoke_runs_all_workloads_under_30_s():
    t0 = perf_counter()
    done = subprocess.run([sys.executable, str(RUN), "--quick", "--seed", "2"],
                          capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(spec["workloads"])
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"]
                                           for m in spec["end_to_end"]]
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert done.stdout.count("NOT comparable") == len(results)


def test_seed_changes_the_inputs_and_nothing_else():
    def run(seed: int) -> dict:
        done = subprocess.run(
            [sys.executable, str(RUN), "--quick", "--workload", "rack_faults",
             "--seed", str(seed)], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    a, b, c = run(5), run(5), run(6)
    for name in ("ok_frac", "sim_prompt_frac", "sim_msgs_per_op"):
        assert a["metrics"][name] == b["metrics"][name]
    assert a["attempted"] == c["attempted"]
    assert a["metrics"]["sim_msgs_per_op"] != c["metrics"]["sim_msgs_per_op"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: no result line, non-zero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scale_2k", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout
