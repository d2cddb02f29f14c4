"""File formats: dataset grammar, model serialization, CSV export, and
strict experiment configuration."""

import json

import numpy as np
import pytest

from gaze3d.dataset_io import (
    ConfigError,
    ExperimentConfig,
    ParseError,
    SCHEMA_VERSION,
    SchemaVersionMismatch,
    UnitViolation,
    export_results_csv,
    load_config,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from gaze3d.evaluation import SweepResult, depth_combination_sweep
from gaze3d.eye_simulator import SimRig, TwoSphereEye, default_bundle, synthesize_dataset
from gaze3d.mappers import Model3Dto3D, fit_mapper, predict_sample


@pytest.fixture(scope="module")
def bundle():
    return synthesize_dataset(SimRig(), TwoSphereEye(), depths=(1.0, 1.5),
                              seed=3)


@pytest.fixture()
def dataset_path(bundle, tmp_path):
    path = tmp_path / "data.jsonl"
    save_dataset(bundle, path)
    return path


def rewrite_line(path, lineno, transform):
    lines = path.read_text().splitlines()
    lines[lineno - 1] = transform(lines[lineno - 1])
    path.write_text("\n".join(lines) + "\n")


# ── dataset round trip ───────────────────────────────────────────────────

def test_identical_seeds_give_identical_bytes(bundle, tmp_path):
    twin = synthesize_dataset(SimRig(), TwoSphereEye(), depths=(1.0, 1.5),
                              seed=3)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(bundle, a)
    save_dataset(twin, b)
    assert a.read_bytes() == b.read_bytes()


def test_roundtrip_is_lossless(bundle, dataset_path):
    loaded = load_dataset(dataset_path)
    assert loaded.source == "simulated"
    assert loaded.missing_pose == 0
    assert loaded.depths() == bundle.depths()
    for depth in bundle.depths():
        for group in ("calibration", "test"):
            originals = getattr(bundle, group)[depth]
            restored = getattr(loaded, group)[depth]
            assert len(originals) == len(restored)
            for o, r in zip(originals, restored):
                assert np.array_equal(o.pupil_px, r.pupil_px)
                assert np.array_equal(o.pupil_pose, r.pupil_pose)
                assert np.array_equal(o.target, r.target)
                assert np.array_equal(o.target_px, r.target_px)
                assert o.depth_label == r.depth_label and o.role == r.role
    # the reconstructed rig carries the original cameras
    assert np.array_equal(loaded.bundle.rig.e_gt, bundle.rig.e_gt)
    assert np.array_equal(loaded.bundle.rig.eye_camera.rotation,
                          bundle.rig.eye_camera.rotation)


def test_resave_of_loaded_dataset_is_byte_identical(dataset_path, tmp_path):
    loaded = load_dataset(dataset_path)
    out = tmp_path / "resaved.jsonl"
    save_dataset(loaded.bundle, out, source=loaded.source)
    assert out.read_bytes() == dataset_path.read_bytes()


def test_loaded_dataset_feeds_fits_without_warnings(dataset_path):
    loaded = load_dataset(dataset_path)
    samples = [s for d in loaded.depths() for s in loaded.calibration[d]]
    for mapper in ("2d2d", "2d3d", "3d3d"):
        model = fit_mapper(mapper, samples)
        predict_sample(model, loaded.test[1.0][0])


# ── dataset validation ───────────────────────────────────────────────────

def test_schema_version_checked(dataset_path):
    rewrite_line(dataset_path, 1,
                 lambda s: s.replace(SCHEMA_VERSION, "gaze3d/999"))
    with pytest.raises(SchemaVersionMismatch):
        load_dataset(dataset_path)


def test_header_must_come_first(dataset_path):
    lines = dataset_path.read_text().splitlines()
    dataset_path.write_text("\n".join(lines[1:] + lines[:1]) + "\n")
    with pytest.raises(ParseError):
        load_dataset(dataset_path)


def test_corrupt_record_names_line(dataset_path):
    rewrite_line(dataset_path, 3, lambda s: s[:-10])
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_missing_field_rejected(dataset_path):
    def drop_target(s):
        rec = json.loads(s)
        del rec["target_scene_m"]
        return json.dumps(rec)
    rewrite_line(dataset_path, 2, drop_target)
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert err.value.line == 2
    assert "target_scene_m" in str(err.value)


def test_wrong_arity_rejected(dataset_path):
    def truncate_pupil(s):
        rec = json.loads(s)
        rec["pupil_px"] = rec["pupil_px"][:1]
        return json.dumps(rec)
    rewrite_line(dataset_path, 4, truncate_pupil)
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert err.value.line == 4


def test_non_finite_value_rejected(dataset_path):
    rewrite_line(dataset_path, 2,
                 lambda s: json.dumps({**json.loads(s),
                                       "pupil_px": [float("nan"), 1.0]}))
    with pytest.raises(ParseError):
        load_dataset(dataset_path)


def test_bad_role_rejected(dataset_path):
    rewrite_line(dataset_path, 5,
                 lambda s: json.dumps({**json.loads(s), "role": "validation"}))
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert err.value.line == 5


def test_non_unit_pose_names_record_index(dataset_path):
    def shrink_pose(s):
        rec = json.loads(s)
        rec["pupil_pose"] = [0.9 * v for v in rec["pupil_pose"]]
        return json.dumps(rec)
    rewrite_line(dataset_path, 2, shrink_pose)   # record index 0
    with pytest.raises(UnitViolation) as err:
        load_dataset(dataset_path)
    assert err.value.record_index == 0
    assert "record 0" in str(err.value)


def test_pose_within_tolerance_accepted(dataset_path):
    def nudge_pose(s):
        rec = json.loads(s)
        pose = np.asarray(rec["pupil_pose"])
        rec["pupil_pose"] = list(pose * (1.0 + 5e-7))
        return json.dumps(rec)
    rewrite_line(dataset_path, 2, nudge_pose)
    load_dataset(dataset_path)


def test_missing_pose_counted_not_rejected(dataset_path):
    for lineno in (2, 3):
        rewrite_line(dataset_path, lineno,
                     lambda s: json.dumps({**json.loads(s),
                                           "pupil_pose": None}))
    loaded = load_dataset(dataset_path)
    assert loaded.missing_pose == 2


def test_require_calibration(bundle, tmp_path):
    from gaze3d.eye_simulator import DatasetBundle
    test_only = DatasetBundle(calibration={}, test=bundle.test,
                              rig=bundle.rig, eye=bundle.eye)
    path = tmp_path / "test_only.jsonl"
    save_dataset(test_only, path)
    load_dataset(path)   # fine for evaluation use
    with pytest.raises(ParseError):
        load_dataset(path, require_calibration=True)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ParseError):
        load_dataset(path)


def set_fields(path, lineno, **fields):
    rewrite_line(path, lineno,
                 lambda s: json.dumps({**json.loads(s), **fields}))


@pytest.mark.parametrize("field, value, message", [
    ("pupil_px", ["369.4", "145.9"], "field 'pupil_px' is not numeric"),
    ("pupil_px", [True, False], "field 'pupil_px' is not numeric"),
    ("depth_label", "1.0", "missing or non-numeric depth_label"),
    ("depth_label", True, "missing or non-numeric depth_label"),
], ids=["string-pixels", "boolean-pixels", "string-depth", "boolean-depth"])
def test_strings_and_booleans_are_not_numbers(dataset_path, field, value,
                                              message):
    set_fields(dataset_path, 3, **{field: value})
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert err.value.line == 3
    assert str(err.value).startswith(f"line 3: {message}")


@pytest.mark.parametrize("change, message", [
    ({}, "missing or non-numeric depth_label"),
    ({"depth_label": 0}, "depth_label must be positive, got 0.0"),
    ({"depth_label": -1.5}, "depth_label must be positive, got -1.5"),
], ids=["missing", "zero", "negative"])
def test_depth_label_missing_or_not_positive(dataset_path, change, message):
    def edit(s):
        rec = json.loads(s)
        del rec["depth_label"]
        return json.dumps({**rec, **change})
    rewrite_line(dataset_path, 4, edit)
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert str(err.value) == f"line 4: {message}"


@pytest.mark.parametrize("field, value, message", [
    ("pupil_px", [10 ** 400, 145.9],
     "field 'pupil_px' has a number out of float range"),
    ("depth_label", 10 ** 400, "depth_label out of float range"),
    ("depth_label", float("inf"), "depth_label must be finite, got inf"),
], ids=["huge-int-pixels", "huge-int-depth", "infinite-depth"])
def test_numbers_beyond_float_range_rejected(dataset_path, field, value,
                                             message):
    # json writes the int as 400 digits and inf as Infinity; loading
    # either must name the line instead of raising OverflowError or
    # taking an infinite depth
    set_fields(dataset_path, 6, **{field: value})
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert str(err.value) == f"line 6: {message}"


def test_record_that_is_an_array_rejected(dataset_path):
    rewrite_line(dataset_path, 3, lambda s: "[1.0, 2.0]")
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert str(err.value) == "line 3: record is not an object"


@pytest.mark.parametrize("value", [[[1.0, 0.0], [0.0]], [1.0, [0.0, 0.0]]],
                         ids=["ragged-rows", "nested-entry"])
def test_ragged_field_rejected(dataset_path, value):
    set_fields(dataset_path, 3, pupil_pose=value)
    with pytest.raises(ValueError) as numpy_err:
        np.asarray(value, dtype=float)
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert str(err.value) == ("line 3: field 'pupil_pose' is not numeric: "
                              f"{numpy_err.value}")


def test_earliest_of_two_bad_records_reported(dataset_path):
    set_fields(dataset_path, 7, pupil_px=["1.0", "2.0"])
    set_fields(dataset_path, 5, depth_label=-1.0)
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert str(err.value) == "line 5: depth_label must be positive, got -1.0"

    # a non-unit pose before a line that is not JSON at all
    rewrite_line(dataset_path, 9, lambda s: s[:-5])
    set_fields(dataset_path, 4, pupil_pose=[0.5, 0.5, 0.5])
    with pytest.raises(UnitViolation) as err:
        load_dataset(dataset_path)
    assert err.value.record_index == 2
    assert str(err.value) == ("record 2 (line 4): pupil_pose norm 0.8660254 "
                              "is not unit")


def test_mixed_null_channels_load_as_none(bundle, dataset_path):
    n = len(dataset_path.read_text().splitlines()) - 1
    for i in range(n):
        lineno = i + 2
        if i % 3 == 0:
            set_fields(dataset_path, lineno, pupil_pose=None)
        if i % 5 == 1:
            set_fields(dataset_path, lineno, target_px=None)
    # optional keys may be absent, and integers are numbers
    rewrite_line(dataset_path, 3, lambda s: json.dumps(
        {k: v for k, v in json.loads(s).items()
         if k not in ("pupil_pose", "target_px")}))
    set_fields(dataset_path, 6, pupil_px=[369, 145])
    loaded = load_dataset(dataset_path)
    originals = [s for d in bundle.depths()
                 for group in (bundle.calibration, bundle.test)
                 for s in group[d]]
    restored = [r for d in loaded.depths()
                for group in (loaded.calibration, loaded.test)
                for r in group[d]]
    assert loaded.n_records == len(restored) == len(originals) == n
    assert loaded.missing_pose == len(range(0, n, 3)) + 1
    for i, (o, r) in enumerate(zip(originals, restored)):
        pose_null = i % 3 == 0 or i == 1
        target_px_null = i % 5 == 1
        assert (r.pupil_pose is None) == pose_null
        assert (r.target_px is None) == target_px_null
        if not pose_null:
            assert np.array_equal(r.pupil_pose, o.pupil_pose)
        if not target_px_null:
            assert np.array_equal(r.target_px, o.target_px)
        expected_px = (369.0, 145.0) if i == 4 else o.pupil_px
        assert np.array_equal(r.pupil_px, expected_px)
        assert r.pupil_px.dtype == np.float64
        assert np.array_equal(r.target, o.target)


def test_noisy_mixed_channel_resave_is_byte_identical(tmp_path):
    noisy = default_bundle("display", depths=(1.0, 2.0), seed=4,
                           noise_pupil_px=1.0, noise_pose_deg=0.5,
                           noise_target_mm=2.0)
    path = tmp_path / "noisy.jsonl"
    save_dataset(noisy, path)
    lines = path.read_text().splitlines()
    records = [json.loads(s) for s in lines[1:]]
    for i, rec in enumerate(records):
        if i % 3 == 0:
            rec["pupil_pose"] = None
        if i % 4 == 1:
            rec["target_px"] = None
    mixed = "\n".join(lines[:1] + [
        json.dumps(r, sort_keys=True, separators=(",", ":"))
        for r in records]) + "\n"
    path.write_text(mixed)
    resaved = tmp_path / "resaved.jsonl"
    loaded = load_dataset(path)
    save_dataset(loaded.bundle, resaved, source=loaded.source)
    assert resaved.read_text() == mixed


# ── model round trip ─────────────────────────────────────────────────────

def test_model_roundtrip_all_mappers(bundle, tmp_path):
    samples = bundle.calibration[1.0] + bundle.calibration[1.5]
    for mapper in ("2d2d", "2d3d", "3d3d"):
        model = fit_mapper(mapper, samples)
        path = tmp_path / f"{mapper}.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored.mapper_id == mapper
        probe = bundle.test[1.0][0]
        a, b = predict_sample(model, probe), predict_sample(restored, probe)
        if a.point is not None:
            assert np.array_equal(a.point, b.point)
        else:
            assert np.array_equal(a.ray.origin, b.ray.origin)
            assert np.array_equal(a.ray.direction, b.ray.direction)


def test_model_file_validation(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{}")
    with pytest.raises(ParseError):
        load_model(path)
    path.write_text(json.dumps({"format": "gaze3d-model/1", "mapper": "5d"}))
    with pytest.raises(ParseError):
        load_model(path)
    path.write_text(json.dumps({"format": "gaze3d-model/1",
                                "mapper": ["2d2d"]}))
    with pytest.raises(ParseError, match="unknown mapper"):
        load_model(path)


def test_model_file_format_is_fixed(tmp_path):
    path = tmp_path / "m.json"
    save_model(Model3Dto3D(angles=(0.1, 3.0, -0.2), center=(0.01, 0, -0.02)),
               path)
    assert path.read_text() == json.dumps(
        {"angles_rad": [0.1, 3.0, -0.2], "center_m": [0.01, 0.0, -0.02],
         "format": "gaze3d-model/1", "mapper": "3d3d"}, indent=2) + "\n"
    with pytest.raises(TypeError, match="not a mapper model"):
        save_model(object(), path)


@pytest.mark.parametrize("mapper, key, value, message", [
    ("2d3d", "center_m", [float("nan"), 0.0, 0.0], "non-finite"),
    ("3d3d", "center_m", [0.0, 0.0, float("inf")], "non-finite"),
    ("2d3d", "center_m", [0.0, 0.0], r"must have shape \(3,\), got \(2,\)"),
    ("2d2d", "weights", [[0.0, 0.0]] * 3, r"must have shape \(7, 2\)"),
    ("2d3d", "weights", [[0.0, 0.0]] * 6 + [[0.0]], "not a numeric array"),
    ("2d2d", "eye_resolution", "640x360", "not a numeric array"),
    ("2d3d", "eye_resolution", [640, 10**400], "not a numeric array"),
    ("3d3d", "angles_rad", ["0.1", 0.0, 0.0], "is not numeric"),
    ("2d2d", "weights", [[0.0, 0.0]] * 6 + [[True, 0.0]], "is not numeric"),
    ("3d3d", "angles_rad", None, "missing field"),
    ("2d3d", "eye_resolution", [0, 360], "must be positive"),
    ("2d2d", "eye_resolution", [640.0, -360.0], "must be positive"),
])
def test_model_arrays_are_checked(bundle, tmp_path, mapper, key, value,
                                  message):
    path = tmp_path / "m.json"
    save_model(fit_mapper(mapper, bundle.calibration[1.0]
                          + bundle.calibration[1.5]), path)
    doc = json.loads(path.read_text())
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=message) as err:
        load_model(path)
    assert repr(key) in str(err.value)


# ── results CSV ──────────────────────────────────────────────────────────

def csv_lines(path):
    return path.read_text().splitlines()


def test_csv_shape_and_header(bundle, tmp_path):
    sweep = depth_combination_sweep(bundle, mappers=("2d2d",))
    path = tmp_path / "r.csv"
    export_results_csv(sweep, path)
    lines = csv_lines(path)
    assert lines[0] == ("mapper,k,calib_subset,test_depth_m,n_targets,"
                        "mean_error_deg,std_error_deg,status")
    assert len(lines) == 1 + 3 * 2     # (C(2,1)+C(2,2)) subsets x 2 depths
    first = lines[1].split(",")
    assert first[0] == "2d2d" and first[1] == "1" and first[2] == "1.0"
    assert first[7] == "ok" and float(first[5]) > 0


def test_csv_five_depth_row_count(tmp_path):
    sweep = depth_combination_sweep(default_bundle("display"),
                                    mappers=("2d2d",))
    path = tmp_path / "five.csv"
    export_results_csv(sweep, path)
    assert len(csv_lines(path)) == 1 + 155


def test_csv_deterministic_reexport(bundle, tmp_path):
    sweep = depth_combination_sweep(bundle, mappers=("2d2d", "3d3d"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_results_csv(sweep, a)
    export_results_csv(SweepResult(records=tuple(reversed(sweep.records))), b)
    assert a.read_bytes() == b.read_bytes()    # order is canonicalized


def test_csv_failed_rows_have_empty_error_fields(tmp_path):
    from gaze3d.evaluation import ErrorRecord
    records = (
        ErrorRecord(mapper="3d3d", calib_subset=(1.0,), test_depth=1.5,
                    errors=np.array([0.1]), mean=0.1, std=0.0, status="ok"),
        ErrorRecord(mapper="3d3d", calib_subset=(1.5,), test_depth=1.0,
                    status="failed"),
    )
    path = tmp_path / "f.csv"
    export_results_csv(SweepResult(records=records), path)
    ok_row, failed_row = csv_lines(path)[1:]
    assert ok_row.endswith(",ok")
    assert failed_row.split(",")[4:] == ["0", "", "", "failed"]


def test_csv_multi_depth_subset_join(tmp_path):
    from gaze3d.evaluation import ErrorRecord
    rec = ErrorRecord(mapper="2d3d", calib_subset=(1.0, 1.5, 2.0),
                      test_depth=1.0, errors=np.array([0.2]), mean=0.2,
                      std=0.0, status="ok")
    path = tmp_path / "j.csv"
    export_results_csv(SweepResult(records=(rec,)), path)
    assert csv_lines(path)[1].split(",")[2] == "1.0;1.5;2.0"


def test_csv_empty_sweep_rejected(tmp_path):
    with pytest.raises(ValueError):
        export_results_csv(SweepResult(records=()), tmp_path / "x.csv")


# ── experiment config ────────────────────────────────────────────────────

def test_config_defaults_build():
    cfg = ExperimentConfig()
    bundle = cfg.build_bundle()
    assert bundle.depths() == (1.0, 1.25, 1.5, 1.75, 2.0)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"depth": [1.0]})
    assert "depth" in str(err.value)


def test_config_rejects_unknown_nested_keys():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(grid={"rows": 5})
    assert "grid.'rows'" in str(err.value)
    with pytest.raises(ConfigError):
        ExperimentConfig(lm={"lambda": 0.1})


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(depths=())
    with pytest.raises(ConfigError):
        ExperimentConfig(depths=(1.0, 1.0))
    with pytest.raises(ConfigError):
        ExperimentConfig(depths=(-1.0,))
    with pytest.raises(ConfigError):
        ExperimentConfig(mappers=("2d9d",))
    with pytest.raises(ConfigError):
        ExperimentConfig(grid_preset="imax")
    with pytest.raises(ConfigError):
        ExperimentConfig(noise_pupil_px=-0.1)
    with pytest.raises(ConfigError):
        ExperimentConfig(scene_camera={"focal": [720, 720]})


def test_config_override_skips_none():
    cfg = ExperimentConfig(seed=1).override(seed=None, depths=(1.0, 2.0))
    assert cfg.seed == 1
    assert cfg.depths == (1.0, 2.0)


def test_config_grid_and_noise_flow_into_bundle():
    cfg = ExperimentConfig(depths=(1.0,), grid_preset="fov",
                           grid={"calib_rows": 3, "calib_cols": 3},
                           noise_pupil_px=0.5, seed=6)
    bundle = cfg.build_bundle()
    assert len(bundle.calibration[1.0]) == 9
    assert bundle.rig.noise_pupil_px == 0.5


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 9, "depths": [1.0, 2.0],
                                "mappers": ["2d3d"],
                                "lm": {"max_iterations": 50}}))
    cfg = load_config(path)
    assert cfg.seed == 9 and cfg.depths == (1.0, 2.0)
    assert cfg.to_lm().max_iterations == 50
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
