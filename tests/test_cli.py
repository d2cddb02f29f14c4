"""Command-line interface, driven in-process through cli.main()."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaze3d
from gaze3d import _kernels, cli, evaluation, eye_simulator, mappers
from gaze3d.dataset_io import (load_dataset, load_model, save_dataset,
                               save_model)
from gaze3d.evaluation import depth_combination_sweep, evaluate
from gaze3d.eye_simulator import DEFAULT_E_GT
from gaze3d.mappers import MAPPER_IDS, Model2Dto3D


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def dataset(tmp_path, capsys):
    path = tmp_path / "data.jsonl"
    code, _, _ = run(capsys, "simulate", "--depths", "1.0,1.5",
                     "--seed", "4", "--out", path)
    assert code == 0
    return path


# ── simulate ─────────────────────────────────────────────────────────────

def test_simulate_defaults(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    code, stdout, _ = run(capsys, "simulate", "--out", out)
    assert code == 0
    assert "125 calibration + 80 test" in stdout
    assert len(out.read_text().splitlines()) == 1 + 5 * (25 + 16)


def test_simulate_reruns_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(capsys, "simulate", "--seed", "9", "--noise-px", "0.5", "--out", a)
    run(capsys, "simulate", "--seed", "9", "--noise-px", "0.5", "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_a_simulated_file_loads_from_its_sidecar_in_a_new_process(
        tmp_path, capsys):
    """simulate writes data.jsonl.cols beside its file; a later process
    loads from it without importing orjson, which only parsing does; fit
    and evaluate write no sidecar."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(gaze3d.__file__).resolve().parents[1])}
    data = tmp_path / "data.jsonl"

    def python(*argv):
        done = subprocess.run([sys.executable, *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    python("-m", "gaze3d.cli", "simulate", "--depths", "1.0,1.5", "--out",
           data)
    load = ("import sys; from gaze3d.dataset_io import load_dataset; "
            "loaded = load_dataset(sys.argv[1]); "
            "print(loaded.n_records, 'orjson' in sys.modules)")
    assert python("-c", load, data) == "82 False\n"
    Path(f"{data}.cols").unlink()
    assert python("-c", load, data) == "82 True\n"     # parsed
    model = tmp_path / "model.json"
    for argv in (("fit", data, "--mappers", "2d2d", "--out", model),
                 ("evaluate", model, data)):
        assert run(capsys, *argv)[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl",
                                                           "model.json"]


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "depths": [1.0]}))
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(capsys, "simulate", "--config", cfg, "--seed", "5", "--out", a)
    run(capsys, "simulate", "--seed", "5", "--depths", "1.0", "--out", b)
    assert a.read_bytes() == b.read_bytes()


def test_a_config_eye_camera_given_by_angles(tmp_path, capsys):
    # the default eye camera, written as a config: a half turn about the
    # vertical axis, 35 mm in front of the eyeball center
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eye_camera": {
        "focal": [620.0, 620.0], "principal": [320.0, 180.0],
        "resolution": [640.0, 360.0], "rotation_angles": [0.0, math.pi, 0.0],
        "translation": (np.asarray(DEFAULT_E_GT) + (0.0, 0.0, 0.035)).tolist(),
    }}))
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(capsys, "simulate", "--config", cfg, "--out", a)[0] == 0
    assert run(capsys, "simulate", "--out", b)[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("out", [True, 7])
def test_a_config_out_that_is_not_a_path_fails_before_any_work(
        tmp_path, command, out):
    # open() took it as a file descriptor: "out": true wrote the dataset
    # to stdout, closed it and exited 1 with "OSError: [Errno 9] Bad file
    # descriptor"; a child process runs it, so this one keeps its stdout
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": out, "depths": [1.0]}))
    env = {**os.environ,
           "PYTHONPATH": str(Path(gaze3d.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "gaze3d.cli", command,
                           "--config", str(cfg)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == ("error: ConfigError: out must be a path string "
                           f"or null, got {out!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# ── fit / evaluate ───────────────────────────────────────────────────────

def test_fit_then_evaluate(dataset, tmp_path, capsys):
    model = tmp_path / "model.json"
    code, stdout, _ = run(capsys, "fit", dataset, "--mappers", "2d3d",
                          "--out", model)
    assert code == 0
    assert "2d3d fitted on 50 samples" in stdout

    code, stdout, _ = run(capsys, "evaluate", model, dataset)
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("mapper=2d3d test_depth_m=1.0 n=16 mean_deg=")
    assert all(line.endswith("reference=e_gt") for line in lines)
    means = [float(line.split("mean_deg=")[1].split()[0]) for line in lines]
    assert all(m < 0.5 for m in means)     # noiseless two-depth fit


def test_evaluate_depth_filter_and_csv(dataset, tmp_path, capsys):
    model = tmp_path / "model.json"
    run(capsys, "fit", dataset, "--mappers", "2d2d", "--depths", "1.0",
        "--out", model)
    out = tmp_path / "results.csv"
    code, stdout, _ = run(capsys, "evaluate", model, dataset,
                          "--depths", "1.5", "--out", out)
    assert code == 0
    assert len(stdout.splitlines()) == 1
    header, row = out.read_text().splitlines()
    assert header == "test_depth_m,n_targets,mean_error_deg,std_error_deg"
    assert row.startswith("1.5,16,")


def test_evaluate_a_recorded_file_references_the_scene_origin(
        dataset, tmp_path, capsys):
    recorded = tmp_path / "recorded.jsonl"
    save_dataset(load_dataset(dataset).bundle, recorded, source="recorded")
    model_path, out = tmp_path / "model.json", tmp_path / "results.csv"
    run(capsys, "fit", recorded, "--mappers", "2d3d", "--out", model_path)
    code, stdout, stderr = run(capsys, "evaluate", model_path, recorded,
                               "--out", out)
    assert (code, stderr) == (0, "")
    model, bundle = load_model(model_path), load_dataset(recorded).bundle
    rows = out.read_text().splitlines()[1:]
    for depth, line, row in zip((1.0, 1.5), stdout.splitlines(), rows,
                                strict=True):
        want = evaluate(model, bundle.test[depth], np.zeros(3),
                        bundle.rig.scene_camera)
        assert line == (f"mapper=2d3d test_depth_m={depth} n=16 "
                        f"mean_deg={want.mean:.6f} std_deg={want.std:.6f} "
                        "reference=scene_origin")
        assert row == f"{depth!r},16,{want.mean!r},{want.std!r}"
        # the eyeball center would give other errors
        assert want.mean != evaluate(model, bundle.test[depth],
                                     bundle.rig.e_gt,
                                     bundle.rig.scene_camera).mean


def test_fit_depth_without_calibration_records(dataset, tmp_path, capsys):
    model = tmp_path / "model.json"
    code, stdout, stderr = run(capsys, "fit", dataset, "--mappers", "2d2d",
                               "--depths", "1.0,3.0", "--out", model)
    assert (code, stdout) == (1, "")
    assert stderr == ("error: CliUsageError: depth 3.0 has no calibration "
                      "records\n")
    assert not model.exists()


def test_evaluate_a_depth_without_usable_test_records(dataset, tmp_path,
                                                      capsys):
    model, out = tmp_path / "model.json", tmp_path / "results.csv"
    run(capsys, "fit", dataset, "--mappers", "3d3d", "--out", model)
    header, *lines = dataset.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for r in records:
        if r["role"] == "test" and r["depth_label"] == 1.5:
            r["pupil_pose"] = None
    poseless = tmp_path / "poseless.jsonl"
    poseless.write_text("\n".join([header] + [
        json.dumps(r, sort_keys=True, separators=(",", ":"))
        for r in records]) + "\n")
    code, stdout, stderr = run(capsys, "evaluate", model, poseless,
                               "--out", out)
    assert (code, stdout) == (1, "")
    assert stderr == ("warning: depth 1.5: 16 records lack pupil_pose\n"
                      "error: CliUsageError: depth 1.5 has no usable test "
                      "records\n")
    assert not out.exists()


def test_fit_requires_exactly_one_mapper(dataset, capsys):
    code, _, stderr = run(capsys, "fit", dataset,
                          "--mappers", "2d2d,3d3d")
    assert code == 1
    assert stderr.startswith("error: CliUsageError:")
    code, _, stderr = run(capsys, "fit", dataset)   # default = all three
    assert code == 1


def test_fit_warns_on_missing_pose(dataset, tmp_path, capsys):
    lines = dataset.read_text().splitlines()
    stripped = [lines[0]] + [
        json.dumps({**json.loads(s), "pupil_pose": None},
                   sort_keys=True, separators=(",", ":"))
        for s in lines[1:]
    ]
    poseless = tmp_path / "poseless.jsonl"
    poseless.write_text("\n".join(stripped) + "\n")

    model = tmp_path / "m.json"
    code, _, stderr = run(capsys, "fit", poseless, "--mappers", "2d2d",
                          "--out", model)
    assert code == 0
    assert stderr == ""          # 2d2d does not use the pose

    code, _, stderr = run(capsys, "fit", poseless, "--mappers", "3d3d",
                          "--out", model)
    assert code == 1
    warning, error = stderr.splitlines()
    assert warning == ("warning: 50 calibration records lack pupil_pose "
                       "and are excluded from 3d3d fitting")
    assert "no usable calibration samples" in error


def test_records_missing_one_channel(dataset, tmp_path, capsys):
    # every third record loses its pose, every fifth its scene pixel
    lines = dataset.read_text().splitlines()
    records = [json.loads(s) for s in lines[1:]]
    for i, r in enumerate(records):
        if i % 3 == 0:
            r["pupil_pose"] = None
        if i % 5 == 1:
            r["target_px"] = None
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("\n".join(
        [lines[0]] + [json.dumps(r, sort_keys=True, separators=(",", ":"))
                      for r in records]) + "\n")
    calib = [r for r in records if r["role"] == "calibration"]
    usable = {"2d2d": [r for r in calib if r["target_px"] is not None],
              "2d3d": calib,
              "3d3d": [r for r in calib if r["pupil_pose"] is not None]}
    assert 0 < len(usable["2d2d"]) < len(calib)
    assert 0 < len(usable["3d3d"]) < len(calib)

    sweep = depth_combination_sweep(load_dataset(mixed).bundle)
    for mapper in MAPPER_IDS:
        model = tmp_path / f"{mapper}.json"
        code, stdout, stderr = run(capsys, "fit", mixed, "--mappers", mapper,
                                   "--out", model)
        assert code == 0
        assert f"fitted on {len(usable[mapper])} samples" in stdout
        n_dropped = len(calib) - len(usable[mapper])
        missing = {"2d2d": "target_px", "3d3d": "pupil_pose"}.get(mapper)
        assert stderr == (f"warning: {n_dropped} calibration records lack "
                          f"{missing} and are excluded from {mapper} "
                          "fitting\n" if n_dropped else "")
        assert (n_dropped > 0) == (mapper != "2d3d")

        code, stdout, stderr = run(capsys, "evaluate", model, mixed)
        assert code == 0
        n = {float(line.split("test_depth_m=")[1].split()[0]):
             int(line.split(" n=")[1].split()[0])
             for line in stdout.splitlines()}
        for depth, count in n.items():
            tests = [r for r in records if r["role"] == "test"
                     and r["depth_label"] == depth]
            if mapper == "3d3d":   # pose-less records cannot be scored
                tests = [r for r in tests if r["pupil_pose"] is not None]
                assert "records lack pupil_pose" in stderr
            else:                  # scoring never needs target_px
                assert stderr == ""
            assert count == len(tests)
            assert {r.n_targets for r in sweep.records
                    if r.mapper == mapper and r.test_depth == depth} == {count}


def test_evaluate_rejects_a_dataset_with_a_non_finite_e_gt(dataset, tmp_path,
                                                           capsys):
    # a NaN used to load, and evaluate printed mean_deg=nan std_deg=nan at
    # every depth and exited 0; an integer beyond float range printed
    # "error: OverflowError: int too large to convert to float"
    model = tmp_path / "model.json"
    run(capsys, "fit", dataset, "--mappers", "2d3d", "--out", model)
    header, *lines = dataset.read_text().splitlines()
    for value in (float("nan"), 10**400):
        doc = json.loads(header)
        doc["e_gt"][0] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(doc)] + lines) + "\n")
        code, stdout, stderr = run(capsys, "evaluate", model, bad)
        assert code == 1 and stdout == ""
        assert stderr == (f"error: ParseError: line 1: bad rig in header: "
                          f"e_gt must be 3 finite numbers, got [{value}, "
                          f"0.035, -0.025]\n")


@pytest.mark.parametrize("mapper", ["2d2d", "2d3d"])
def test_fit_rejects_a_header_eye_camera_of_zero_resolution(tmp_path, capfd,
                                                            mapper):
    # it used to load, and fit printed two LAPACK lines (on the process's
    # stderr, hence capfd) and then "error: LinAlgError: SVD did not
    # converge in Linear Least Squares"
    dataset = tmp_path / "data.jsonl"
    assert run(capfd, "simulate", "--depths", "1.0,1.5", "--out",
               dataset)[0] == 0
    header, *lines = dataset.read_text().splitlines()
    doc = json.loads(header)
    doc["eye_camera"]["resolution"] = doc["eye_camera"]["principal"] = [0, 0]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(doc)] + lines) + "\n")
    code, stdout, stderr = run(capfd, "fit", bad, "--mappers", mapper,
                               "--out", tmp_path / "model.json")
    assert (code, stdout) == (1, "")
    assert stderr == ("error: ParseError: line 1: bad eye_camera in header: "
                      "resolution must be 2 finite numbers > 0, got [0, 0]\n")


def test_round_trip_builds_no_records(tmp_path, capsys, monkeypatch):
    """simulate, fit and evaluate read the bundles' columns: none of the
    one-sample oracles runs on the way."""
    def refuse(*args, **kwargs):
        raise AssertionError("a one-sample path ran")
    for module, name in ((eye_simulator, "synthesize_sample"),
                         (mappers, "predict_sample"),
                         (evaluation, "predict_sample"),
                         (evaluation, "angular_error")):
        monkeypatch.setattr(module, name, refuse)
    data, model = tmp_path / "data.jsonl", tmp_path / "model.json"
    for argv in (("simulate", "--depths", "1.0,1.5", "--out", data),
                 ("fit", data, "--mappers", "2d3d", "--out", model),
                 ("evaluate", model, data, "--out", tmp_path / "r.csv")):
        code, _, stderr = run(capsys, *argv)
        assert code == 0, stderr


def test_evaluate_unknown_depth(dataset, tmp_path, capsys):
    model = tmp_path / "model.json"
    run(capsys, "fit", dataset, "--mappers", "2d3d", "--out", model)
    code, _, stderr = run(capsys, "evaluate", model, dataset,
                          "--depths", "3.0")
    assert code == 1
    assert "3.0" in stderr


def test_fit_and_evaluate_reject_duplicate_depths(dataset, tmp_path, capsys):
    # evaluate used to score and write the repeated depth twice
    model, out = tmp_path / "model.json", tmp_path / "r.csv"
    run(capsys, "fit", dataset, "--mappers", "2d3d", "--out", model)
    for argv in (("fit", dataset, "--mappers", "2d3d", "--depths", "1.0,1.0",
                  "--out", tmp_path / "m.json"),
                 ("evaluate", model, dataset, "--depths", "1.0,1.0",
                  "--out", out)):
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert stderr == "error: ConfigError: depths contains duplicates\n"
    assert not out.exists() and not (tmp_path / "m.json").exists()


def test_evaluate_unprojectable_model_is_one_error_line(dataset, tmp_path,
                                                        capsys):
    # every ray of this model points straight back, away from the targets
    weights = np.zeros((7, 2))
    weights[0] = (0.0, np.pi)
    model = tmp_path / "away.json"
    save_model(Model2Dto3D(weights=weights, center=np.zeros(3),
                           eye_resolution=np.array([640.0, 360.0])), model)
    code, stdout, stderr = run(capsys, "evaluate", model, dataset)
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: BehindOrigin: plane z=")
    assert stderr.count("\n") == 1


def test_evaluate_rejects_a_non_finite_model(dataset, tmp_path, capsys):
    model = tmp_path / "model.json"
    run(capsys, "fit", dataset, "--mappers", "2d3d", "--out", model)
    doc = json.loads(model.read_text())
    doc["center_m"][0] = float("nan")
    model.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "evaluate", model, dataset)
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: ParseError: model field 'center_m'")
    assert stderr.count("\n") == 1


def test_evaluate_rejects_a_non_positive_eye_resolution(dataset, tmp_path,
                                                        capsys):
    # it used to load, and evaluate printed numpy RuntimeWarnings and
    # mean_deg=nan at every depth
    model = tmp_path / "model.json"
    run(capsys, "fit", dataset, "--mappers", "2d3d", "--out", model)
    doc = json.loads(model.read_text())
    doc["eye_resolution"] = [0, 360]
    model.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "evaluate", model, dataset)
    assert code == 1 and stdout == ""
    assert stderr == ("error: ParseError: model field 'eye_resolution' must "
                      "be 2 finite numbers > 0, got [0, 360]\n")


def with_target_at_origin(dataset, tmp_path):
    """The dataset with the third calibration record at 1.0 m moved onto
    the initial eyeball center (the scene origin)."""
    header, *lines = dataset.read_text().splitlines()
    record = json.loads(lines[2])
    assert record["role"] == "calibration" and record["depth_label"] == 1.0
    record["target_scene_m"] = [0.0, 0.0, 0.0]
    lines[2] = json.dumps(record)
    path = tmp_path / "origin.jsonl"
    path.write_text("\n".join([header] + lines) + "\n")
    return path


@pytest.mark.parametrize("mapper", ["2d3d", "3d3d"])
def test_fit_rejects_a_target_at_the_initial_eyeball_center(
        dataset, tmp_path, capsys, mapper):
    # it used to warn, then fail with ZeroVector (2d3d) or
    # NonFiniteResidual (3d3d)
    data = with_target_at_origin(dataset, tmp_path)
    code, stdout, stderr = run(capsys, "fit", data, "--mappers", mapper,
                               "--out", tmp_path / "model.json")
    assert code == 1 and stdout == ""
    assert stderr == ("error: DegenerateGeometry: calibration target 2 at "
                      "[0.0, 0.0, 0.0] coincides with the initial eyeball "
                      "center\n")


def test_sweep_fails_the_subsets_holding_a_target_at_the_origin(
        dataset, tmp_path):
    # the sweep raised ZeroVector, which is not a fit error
    sweep = depth_combination_sweep(load_dataset(
        with_target_at_origin(dataset, tmp_path)).bundle)
    assert len(sweep.records) == 3 * 3 * 2
    failed = {(r.mapper, r.calib_subset)
              for r in sweep.select(status="failed")}
    assert failed == {(m, s) for m in ("2d3d", "3d3d")
                      for s in ((1.0,), (1.0, 1.5))}
    assert len(sweep.select(status="failed")) == 2 * 2 * 2


def test_evaluate_without_test_records(dataset, tmp_path, capsys):
    model = tmp_path / "model.json"
    run(capsys, "fit", dataset, "--mappers", "2d3d", "--out", model)
    calib_only = tmp_path / "calib.jsonl"
    calib_only.write_text("".join(
        line for line in dataset.read_text().splitlines(keepends=True)
        if '"role":"test"' not in line))
    out = tmp_path / "results.csv"
    code, stdout, stderr = run(capsys, "evaluate", model, calib_only,
                               "--out", out)
    assert code == 1 and stdout == "" and not out.exists()
    assert stderr == ("error: CliUsageError: dataset has no test "
                      "records\n")


# ── sweep ────────────────────────────────────────────────────────────────

def test_sweep_small(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run(capsys, "sweep", "--depths", "1.0,1.5",
                          "--mappers", "2d2d,3d3d", "--seed", "2",
                          "--out", out)
    assert code == 0
    assert "12 rows (0 failed rows)" in stdout
    assert "2d2d mean_deg by depth count: k=1:" in stdout
    assert len(out.read_text().splitlines()) == 1 + 12


def test_sweep_summary_counts_failed_rows(tmp_path, capsys):
    # no fit fails here: the 2d3d fit on depth 2.0 alone cannot project
    # the targets of two test depths, which makes two failed rows
    code, stdout, _ = run(capsys, "sweep", "--depths", "1.0,1.5,2.0",
                          "--mappers", "2d3d", "--noise-px", "60",
                          "--noise-deg", "2", "--noise-target-mm", "5",
                          "--seed", "0", "--out", tmp_path / "s.csv")
    assert code == 0
    assert "21 rows (2 failed rows)" in stdout


@pytest.mark.filterwarnings("error")
def test_sweep_summary_marks_a_k_without_ok_records(tmp_path, capsys):
    # six calibration targets per depth: too few for a one-depth 2d2d or
    # 2d3d fit, enough for two depths and for 3d3d
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depths": [1.0, 2.0],
                               "grid": {"calib_rows": 2, "calib_cols": 3}}))
    out = tmp_path / "s.csv"
    code, stdout, stderr = run(capsys, "sweep", "--config", cfg,
                               "--out", out)
    assert code == 0 and stderr == ""
    assert "18 rows (8 failed rows)" in stdout
    assert "2d2d mean_deg by depth count: k=1:failed k=2:" in stdout
    assert "2d3d mean_deg by depth count: k=1:failed k=2:" in stdout
    assert "3d3d mean_deg by depth count: k=1:0.0000 k=2:" in stdout


# ── pinned outputs ───────────────────────────────────────────────────────
# The sha256 of a noisy simulated dataset and of a three-depth sweep CSV.
# A refactor must leave both unchanged; a change meant to alter the data
# or the results re-pins them and says why.

NOISY_SWEEP = ("sweep", "--depths", "1.0,1.5,2.0", "--noise-px", "1",
               "--noise-deg", "0.5", "--noise-target-mm", "2", "--seed", "4")
PINNED_OUTPUTS = {
    ("simulate", "--depths", "1.0,2.0", "--seed", "3", "--noise-px", "1",
     "--noise-deg", "0.5", "--noise-target-mm", "2"):
    "0c9fd3ebe6bd22398600f59aa11b163698761e7f9337a51c91a87d41e028beff",
    ("sweep", "--depths", "1.0,1.5,2.0"):
    "35f8fcad4e8397d8ecb167246e884c2af831960380a338f6013c92645f60bdf4",
    # noisy: fits end at 53 and 200 (2d3d) and 4, 64 and 200 iterations
    # (3d3d), so the set of fits a damping round evaluates changes
    NOISY_SWEEP:
    "83496ad58de4a1dd1626e878b52041482953539f128781b0eec6d76f5d51dfab",
}


@pytest.mark.parametrize("argv", PINNED_OUTPUTS,
                         ids=["simulate", "sweep", "sweep-noisy"])
def test_outputs_keep_their_pinned_bytes(argv, tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run(capsys, *argv, "--out", out)
    assert code == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == PINNED_OUTPUTS[argv])


def test_noisy_sweep_pins_its_kernel_calls(tmp_path, capsys, monkeypatch):
    """The noisy sweep's LM solves make one residual kernel call to start
    and one residual and one Jacobian call per damping round, 203 rounds
    per mapper: a changed damping rule, a second kernel call per round or
    trial costs computed around the residual kernels changes the counts.
    The kernels are wrapped by name, as the benchmark's tracer does."""
    calls = dict.fromkeys(("residuals_2d3d", "jacobian_2d3d",
                           "residuals_3d3d", "jacobian_3d3d"), 0)

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(_kernels, name,
                            counted(name, getattr(_kernels, name)))
    code, _, _ = run(capsys, *NOISY_SWEEP, "--out", tmp_path / "out")
    assert code == 0
    assert calls == {"residuals_2d3d": 204, "jacobian_2d3d": 203,
                     "residuals_3d3d": 204, "jacobian_3d3d": 203}


# ── selftest ─────────────────────────────────────────────────────────────

def test_selftest_passes(capsys):
    code, stdout, _ = run(capsys, "selftest")
    assert code == 0
    assert stdout.splitlines()[-1] == "selftest: all checks passed"


# ── failure contract ─────────────────────────────────────────────────────

def test_errors_are_single_line_on_stderr(tmp_path, capsys):
    code, stdout, stderr = run(capsys, "fit", tmp_path / "nope.jsonl",
                               "--mappers", "2d2d")
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: FileNotFoundError:")
    assert stderr.count("\n") == 1 and stderr.endswith("\n")


def test_unknown_config_key_is_reported(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "bogus_key": 2}))
    code, _, stderr = run(capsys, "simulate", "--config", cfg,
                          "--out", tmp_path / "d.jsonl")
    assert code == 1
    assert stderr.startswith("error: ConfigError:")
    assert "bogus_key" in stderr


@pytest.mark.parametrize("lm", [{"damping": float("nan")},
                                {"damping_up": 1.0}, {"damping_down": 1.0}])
def test_lm_settings_that_would_hang_a_fit_fail_before_it(lm, tmp_path,
                                                          capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"depths": [1.0, 2.0], "lm": lm}))
    code, stdout, stderr = run(capsys, "sweep", "--config", cfg,
                               "--mappers", "2d3d", "--out",
                               tmp_path / "s.csv")
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: ConfigError: invalid lm: "
                             + next(iter(lm)))
    assert not (tmp_path / "s.csv").exists()


def test_bad_flag_values(tmp_path, capsys):
    # each says what is wrong, not "invalid _parse_depths value: ..."
    ids = "(choose from 2d2d, 2d3d, 3d3d)"
    for argv, message in (
            (("simulate", "--depths", "one,two"),
             "--depths: bad depth list 'one,two'"),
            (("simulate", "--depths", ","), "--depths: empty depth list"),
            (("fit", "d.jsonl", "--mappers", "2d9d"),
             f"--mappers: unknown mapper '2d9d' {ids}"),
            (("sweep", "--mappers", "5d"),
             f"--mappers: unknown mapper '5d' {ids}")):
        code, stdout, stderr = run(capsys, *argv, "--out", tmp_path / "out")
        assert (code, stdout) == (1, "")
        assert stderr == f"error: CliUsageError: argument {message}\n"
        assert not (tmp_path / "out").exists()
    code, _, stderr = run(capsys, "frobnicate")
    assert code == 1
    assert stderr.startswith("error: CliUsageError:")


def test_a_bad_camera_in_a_config_is_named_before_simulating(tmp_path,
                                                              capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scene_camera": {
        "focal": "x", "principal": [320, 180], "resolution": [640, 360]}}))
    code, stdout, stderr = run(capsys, "simulate", "--config", cfg,
                               "--out", tmp_path / "d.jsonl")
    assert (code, stdout) == (1, "")
    assert stderr == ("error: ConfigError: invalid scene_camera: focal must "
                      "be 2 finite numbers > 0, got 'x'\n")


def test_one_parser_serves_every_call(tmp_path, capsys):
    """main builds its parser once per process; calls through it behave
    as the same calls with a fresh parser each: the same output, the same
    one-line errors and exit codes, the same files."""
    def session(out, fresh):
        out.mkdir()
        data, model = out / "data.jsonl", out / "model.json"
        results = []
        for argv in (("simulate", "--depths", "1.0,1.5", "--seed", "4",
                      "--out", data),
                     ("simulate", "--depths", "one,two", "--out", data),
                     ("fit", data, "--mappers", "2d3d", "--out", model),
                     ("fit", data, "--mappers", "5d", "--out", model),
                     ("evaluate", model, data, "--out", out / "r.csv"),
                     ("frobnicate",)):
            if fresh:
                cli._build_parser.cache_clear()
            results.append(tuple(str(x).replace(str(out), "OUT")
                                 for x in run(capsys, *argv)))
        return results, {p.name: p.read_bytes() for p in out.iterdir()}

    cli._build_parser.cache_clear()
    reused = session(tmp_path / "reused", fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    fresh = session(tmp_path / "fresh", fresh=True)
    assert reused == fresh
    assert [code for code, *_ in reused[0]] == ["0", "1", "0", "1", "0", "1"]
    assert all(err.startswith("error: CliUsageError:") and err.count("\n") == 1
               for code, _, err in reused[0] if code == "1")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("gaze3d ")
