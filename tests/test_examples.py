"""The examples must keep running against ``src/``.

Nothing else imports ``examples/``, so an API change that breaks one
would otherwise go unnoticed.  The two fast scripts run here, each in its
own interpreter exactly as a reader would start it; the slower
``compare_matchmakers.py`` (about 10 s) runs as its own CI step.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["quickstart.py", "churn_resilience.py"])
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "examples" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
