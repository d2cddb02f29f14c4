"""The traced benchmark (perfbench/tracing.py) patches gaze3d functions
by name in the modules that call them; a rename or deletion in gaze3d
must fail here, not quietly break the traced run.  So must a change that
routes the LM trial costs around the traced residual kernels."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    script = ("import json, sys; sys.path[:0] = sys.argv[1:]\n"
              "import tracing\n"
              "tracer = tracing.Tracer()\n"
              "tracing.install(tracer)\n"
              "from gaze3d.evaluation import depth_combination_sweep\n"
              "from gaze3d.eye_simulator import default_bundle\n"
              "depth_combination_sweep(default_bundle('display', "
              "depths=(1.0, 2.0)))\n"
              "print(json.dumps(tracer.snapshot()['calls']))\n")
    done = subprocess.run([sys.executable, "-c", script, str(ROOT / "src"),
                           str(ROOT / "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    calls = json.loads(done.stdout)
    assert calls.get("kernels.residuals_2d3d", 0) > 0
    assert calls.get("kernels.residuals_3d3d", 0) > 0
