"""Smoke tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    script = Path(cwd, "perfbench", "run.py")
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_smoke_run_reports_every_metric(workload, trace, section):
    result = result_of(run_bench("--workload", workload, "--seed", "3",
                                 "--seconds", "0", "--trace", str(trace),
                                 "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace:
        assert result["metrics"]["trace.counts_repeat"]["value"] == 1
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_all_workloads_from_one_command():
    result = result_of(run_bench("--seconds", "0", "--smoke"))
    assert result["correct"]
    assert set(result["metrics"]) == {f"{w}/{m['name']}" for w in WORKLOADS
                                      for m in SPEC["end_to_end"]}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = run_bench("--workload", WORKLOADS[0], "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_acceptance_gate_catches_a_wrong_sweep():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from gaze3d import default_bundle, depth_combination_sweep
    from gaze3d.evaluation import SweepResult
    from workloads import acceptance_failures

    bundle = default_bundle("display", depths=(1.0, 1.5, 2.0))
    sweep = depth_combination_sweep(bundle)
    assert acceptance_failures(sweep, bundle.depths()) == []
    broken = SweepResult(records=tuple(
        replace(r, mean=1.0) if r.mapper == "3d3d" else r
        for r in sweep.records))
    assert acceptance_failures(broken, bundle.depths()) == [
        "criterion_2_3d3d_near_zero"]
