"""The repo benchmark must keep running against ``src/``.

``bench/`` reads private attributes (``sim._wheel.timers_scheduled``) and
wraps methods such as ``CANOverlay.join/route/crash/leave/zone_owner/
replica_set`` at class level, so a rename in ``src/`` has to fail here, in
tier-1, not in the benchmark pipeline.  ``--quick --trace 1`` runs every
workload at an eighth of its size, untraced and traced, with all output
checks on.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"


@pytest.mark.skipif(not RUN.exists(), reason="bench/ is absent")
def test_quick_benchmark_is_correct_on_every_workload():
    done = subprocess.run([sys.executable, str(RUN), "--quick", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert len(results) == len(declared)
    assert all(result["correct"] is True for result in results)
    # The traced pass wraps methods by name; one it cannot find is skipped
    # and its layer silently reads zero.
    assert "not wrapped" not in done.stdout, done.stdout[-4000:]
