"""The traced benchmark (perfbench/tracing.py) patches gaze3d functions
by name in the modules that call them; a rename or deletion in gaze3d
must fail here, not quietly break the traced run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    script = ("import sys; sys.path[:0] = sys.argv[1:]\n"
              "import tracing\n"
              "tracing.install(tracing.Tracer())\n")
    done = subprocess.run([sys.executable, "-c", script, str(ROOT / "src"),
                           str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
