"""The three gaze3d benchmark workloads and their correctness checks.

A workload turns the benchmark seed into a list of inputs (`setup`), runs
one operation on one input (`run`), and checks what the operation
returned (`check`).  `check` gives the angular-error summary of the
operation, the names of the checks that failed, and a signature that
must be identical every time the same input is run again.

Imports gaze3d, so `run.py` puts the checkout's `src/` on the path first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gaze3d import cli
from gaze3d.evaluation import depth_combination_sweep
from gaze3d.eye_simulator import DEFAULT_DEPTHS, default_bundle
from gaze3d.mappers import MAPPER_IDS

ERROR_METRICS = ("err_2d2d_deg", "err_2d3d_k1_deg", "err_2d3d_multi_deg",
                 "err_3d3d_deg")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: callable      # (seed, smoke) -> list of inputs
    run: callable        # input -> output
    check: callable      # (input, output) -> (errors, failures, signature)
    cleanup: callable = None   # inputs -> None


def _mean(values):
    return float(np.mean(values)) if values else math.nan


def _sweep_errors(sweep):
    """Mean of the per-record mean errors over the ok records, per group."""
    ok = [r for r in sweep.records if r.status == "ok"]
    return {
        "err_2d2d_deg": _mean([r.mean for r in ok if r.mapper == "2d2d"]),
        "err_2d3d_k1_deg": _mean([r.mean for r in ok
                                  if r.mapper == "2d3d" and r.k == 1]),
        "err_2d3d_multi_deg": _mean([r.mean for r in ok
                                     if r.mapper == "2d3d" and r.k > 1]),
        "err_3d3d_deg": _mean([r.mean for r in ok if r.mapper == "3d3d"]),
    }


def _sweep_failures(sweep, depths):
    n_subsets = 2 ** len(depths) - 1
    expected = len(MAPPER_IDS) * n_subsets * len(depths)
    failures = []
    if len(sweep.records) != expected:
        failures.append("record_count")
    if any(r.status != "ok" for r in sweep.records):
        failures.append("failed_records")
    if not all(np.isfinite(r.mean) for r in sweep.records if r.status == "ok"):
        failures.append("nonfinite_error")
    return failures


def _sweep_signature(sweep):
    return tuple((r.mapper, r.calib_subset, r.test_depth, r.status, r.mean)
                 for r in sweep.records)


def _by_pair(sweep, mapper):
    return {(r.calib_subset[0], r.test_depth): r.mean
            for r in sweep.select(mapper=mapper, k=1, status="ok")}


def acceptance_failures(sweep, depths):
    """Acceptance criteria 2-5 of tests/test_acceptance.py, same thresholds,
    stated for any depth set that contains 1.0, 1.5 and 2.0 m."""
    failures = []

    records = sweep.select(mapper="3d3d")
    ok = bool(records) and all(r.status == "ok" for r in records)
    if not (ok and max(r.mean for r in records if r.k == 1) < 0.1
            and max(r.mean for r in records) < 0.1):
        failures.append("criterion_2_3d3d_near_zero")

    subset = (1.0, 1.5, 2.0)
    records = sorted((r for r in sweep.select(mapper="2d3d", k=3, status="ok")
                      if r.calib_subset == subset), key=lambda r: r.test_depth)
    if not (len(records) == len(depths)
            and np.mean([r.mean for r in records]) < 0.5
            and records[0].mean >= records[-1].mean):
        failures.append("criterion_3_2d3d_parallax_collapse_at_k3")

    flat, direct = _by_pair(sweep, "2d2d"), _by_pair(sweep, "2d3d")
    if not (len(flat) == len(direct) == len(depths) ** 2
            and max(direct[p] - flat[p] for p in flat) <= 0.05):
        failures.append("criterion_4_2d3d_beats_2d2d_at_k1")

    buckets = {}
    for (c, t), mean in flat.items():
        buckets.setdefault(round(abs(t - c), 9), []).append(mean)
    curve = [np.mean(buckets[o]) for o in sorted(buckets)]
    matched_is_min = all(flat[(c, c)] == min(flat[(c, t)] for t in depths)
                         for c in depths)
    if not (matched_is_min and all(a < b for a, b in zip(curve, curve[1:]))):
        failures.append("criterion_5_2d2d_parallax_signature")
    return failures


# -- display-sweep ---------------------------------------------------------
# The paper's headline experiment: all three mappers fitted on every subset
# of the five default depths (93 fits, 465 records, 7,440 per-sample
# predictions).  2d3d fits take about three quarters of the time and
# per-sample evaluation the rest; it is the only workload where evaluation
# is a large share.  Noiseless, so the seed does not change the inputs.

def _display_setup(seed, smoke):
    depths = (1.0, 1.5, 2.0) if smoke else DEFAULT_DEPTHS
    return [default_bundle("display", depths=depths, seed=seed)]


def _display_check(bundle, sweep):
    depths = bundle.depths()
    failures = _sweep_failures(sweep, depths) + acceptance_failures(sweep,
                                                                    depths)
    return _sweep_errors(sweep), failures, _sweep_signature(sweep)


# -- noisy-sweep -----------------------------------------------------------
# The same sweep on three depths with realistic tracker noise (1 px pupil,
# 0.5 deg pose, 2 mm target).  Bound by the solver: most 2d3d fits and
# some 3d3d fits run to the 200-iteration cap and evaluation is under 5%,
# so Jacobian and LM changes show here, and its errors catch a solver that
# gets faster by stopping early.  Three depths because five take ~21 s a
# sweep.  The errors (and LM iterations) of one noise draw vary by ~10-15%
# from seed to seed, so a run sweeps NOISY_DRAWS draws made from its seed
# and reports their mean.  The noise is not chosen to avoid the known
# BehindOrigin crash, which needs about 60 px of pupil noise.

NOISY_DRAWS = 8
NOISY_DEPTHS = (1.0, 1.5, 2.0)


def _noisy_setup(seed, smoke):
    draws, depths = (1, (1.0, 2.0)) if smoke else (NOISY_DRAWS, NOISY_DEPTHS)
    return [default_bundle("display", depths=depths, seed=seed * draws + i,
                           noise_pupil_px=1.0, noise_pose_deg=0.5,
                           noise_target_mm=2.0)
            for i in range(draws)]


def _noisy_check(bundle, sweep):
    return (_sweep_errors(sweep), _sweep_failures(sweep, bundle.depths()),
            _sweep_signature(sweep))


# -- cli-roundtrip ---------------------------------------------------------
# In-process `gaze3d.cli.main`: simulate a 15x15 calibration / 12x12 test
# grid over the five default depths (1,845 records, ~0.5 MB of JSONL), fit
# 2d2d, 3d3d, 2d3d on 1.0+2.0 m and 2d3d on 1.5 m alone, then evaluate
# each model with --out.  The only workload where dataset_io and the
# simulator do most of the work, with writes beside reads; the solver is a
# small share.  The single-depth 2d3d fit is there so that every error
# metric has a value on this workload too.

@dataclass(frozen=True)
class CliRun:
    workdir: Path
    commands: tuple          # argv lists for gaze3d.cli.main
    dataset: Path
    csvs: dict               # error metric -> evaluate CSV path
    n_records: int
    n_depths: int


def _cli_setup(seed, smoke):
    depths = (1.0, 1.5, 2.0) if smoke else DEFAULT_DEPTHS
    calib, test = (5, 4) if smoke else (15, 12)
    workdir = Path(tempfile.mkdtemp(prefix=".work-",
                                    dir=Path(__file__).resolve().parent))
    config = workdir / "config.json"
    config.write_text(json.dumps(
        {"seed": seed, "depths": depths,
         "grid": {"calib_rows": calib, "calib_cols": calib,
                  "test_rows": test, "test_cols": test}}), encoding="utf-8")
    dataset = workdir / "data.jsonl"
    fits = {"err_2d2d_deg": ("2d2d", None),
            "err_3d3d_deg": ("3d3d", None),
            "err_2d3d_multi_deg": ("2d3d", "1.0,2.0"),
            "err_2d3d_k1_deg": ("2d3d", "1.5")}
    commands = [["simulate", "--config", str(config), "--out", str(dataset)]]
    evaluations, csvs = [], {}
    for metric, (mapper, fit_depths) in fits.items():
        model = workdir / f"{metric}.json"
        csvs[metric] = workdir / f"{metric}.csv"
        fit = ["fit", str(dataset), "--mappers", mapper, "--out", str(model)]
        commands.append(fit + (["--depths", fit_depths] if fit_depths else []))
        evaluations.append(["evaluate", str(model), str(dataset),
                            "--out", str(csvs[metric])])
    return [CliRun(workdir=workdir, commands=tuple(commands + evaluations),
                   dataset=dataset, csvs=csvs,
                   n_records=len(depths) * (calib ** 2 + test ** 2),
                   n_depths=len(depths))]


def _cli_run(run: CliRun):
    # The CLI reports on stdout/stderr; keep that off the benchmark's output.
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return [cli.main(argv) for argv in run.commands]


def _cli_check(run: CliRun, codes):
    failures = [f"exit_code_{argv[0]}_{i}" for i, (argv, code)
                in enumerate(zip(run.commands, codes)) if code != 0]
    digest = hashlib.sha256()
    try:
        data = run.dataset.read_bytes()
        digest.update(data)
        if data.count(b"\n") - 1 != run.n_records:   # minus the header line
            failures.append("dataset_record_count")
        errors = {}
        for metric, path in run.csvs.items():
            text = path.read_text(encoding="utf-8")
            digest.update(text.encode())
            rows = [line.split(",") for line in text.splitlines()[1:]]
            if len(rows) != run.n_depths:
                failures.append(f"csv_rows_{metric}")
            errors[metric] = _mean([float(row[2]) for row in rows])
    except (OSError, ValueError, IndexError):
        failures.append("unreadable_output")
        errors = dict.fromkeys(ERROR_METRICS, math.nan)
    return errors, failures, digest.hexdigest()


def _cli_cleanup(runs):
    for run in runs:
        shutil.rmtree(run.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (
    Workload("display-sweep", _display_setup, depth_combination_sweep,
             _display_check),
    Workload("noisy-sweep", _noisy_setup, depth_combination_sweep,
             _noisy_check),
    Workload("cli-roundtrip", _cli_setup, _cli_run, _cli_check,
             _cli_cleanup),
)}
