"""File formats: dataset grammar, model serialization, CSV export, and
strict experiment configuration."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaze3d
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
from gaze3d.eye_simulator import (
    DatasetBundle,
    SampleColumns,
    SimRig,
    TwoSphereEye,
    default_bundle,
    synthesize_dataset,
)
from gaze3d.mappers import Model3Dto3D, fit_mapper, predict_sample
from helpers import pooled, rows, stack, take


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
    assert loaded.bundle.depths() == bundle.depths()
    for depth in bundle.depths():
        for group in ("calibration", "test"):
            originals = getattr(bundle, group)[depth]
            restored = getattr(loaded.bundle, group)[depth]
            for f in fields(SampleColumns):
                assert (getattr(originals, f.name).tobytes()
                        == getattr(restored, f.name).tobytes())
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
    samples = pooled(loaded.bundle.calibration, loaded.bundle.depths())
    for mapper in ("2d2d", "2d3d", "3d3d"):
        model = fit_mapper(mapper, samples)
        predict_sample(model, rows(loaded.bundle.test[1.0])[0])


@pytest.mark.parametrize("field, value", [
    ("pupil_px", np.array([np.nan, 145.0])),
    ("pupil_pose", np.array([np.inf, 0.0, 0.0])),
    ("target", np.array([0.1, np.nan, 1.5])),
    ("target_px", np.array([-np.inf, 300.0])),
])
def test_save_rejects_non_finite_values_and_writes_nothing(bundle, tmp_path,
                                                           field, value):
    # it used to write NaN or Infinity, which load_dataset rejects
    samples = bundle.calibration[1.5]
    values = getattr(samples, field).copy()
    values[2] = value
    bad = replace(bundle, calibration={
        **bundle.calibration, 1.5: replace(samples, **{field: values})})
    path = tmp_path / "bad.jsonl"
    with pytest.raises(ValueError) as err:
        save_dataset(bad, path)
    key = "target_scene_m" if field == "target" else field
    assert str(err.value) == (f"cannot save calibration record 2 at depth "
                              f"1.5: field {key!r} contains non-finite values")
    assert not path.exists()


@pytest.mark.parametrize("key", [math.nan, 0, -1, True],
                         ids=["nan", "zero", "negative", "bool"])
def test_bundle_rejects_depth_keys_that_are_not_positive_numbers(bundle, key):
    # the key is the depth save_dataset writes; a NaN one used to be
    # caught only when saving
    for role in ("calibration", "test"):
        with pytest.raises(ValueError) as err:
            DatasetBundle(**{"calibration": bundle.calibration,
                             "test": bundle.test,
                             role: {key: bundle.test[1.0]}},
                          rig=bundle.rig, eye=bundle.eye)
        assert str(err.value) == (f"{role} group depth must be a finite "
                                  f"number > 0, got {key!r}")


def test_groups_load_back_under_the_keys_they_were_saved_under(tmp_path):
    # a group's depth is its key: swapped between 1.0 and 2.0, each
    # group is written and loads back under the key it was stored under
    bundle = synthesize_dataset(SimRig(), TwoSphereEye(), depths=(1.0, 2.0),
                                seed=3)
    swapped = replace(bundle, **{
        role: {1.0: groups[2.0], 2.0: groups[1.0]}
        for role, groups in (("calibration", bundle.calibration),
                             ("test", bundle.test))})
    path = tmp_path / "swapped.jsonl"
    save_dataset(swapped, path)
    loaded = load_dataset(path)
    for role in ("calibration", "test"):
        got, want = getattr(loaded.bundle, role), getattr(swapped, role)
        assert list(got) == [1.0, 2.0]
        for depth, group in want.items():
            for f in fields(SampleColumns):
                assert (getattr(got[depth], f.name).tobytes()
                        == getattr(group, f.name).tobytes())


@pytest.mark.parametrize("key, text", [(2, "2.0"), (np.float64(1.5), "1.5")],
                         ids=["int", "float64"])
def test_saved_depth_label_is_the_float_of_the_key(bundle, tmp_path, key,
                                                   text):
    # numpy 2 reprs a float64 as np.float64(1.5), which is not JSON
    one_group = DatasetBundle(calibration={key: bundle.calibration[1.0]},
                              test={}, rig=bundle.rig, eye=bundle.eye)
    path = tmp_path / "data.jsonl"
    save_dataset(one_group, path)
    lines = path.read_text().splitlines()[1:]
    assert len(lines) == 25
    assert all(line.startswith(f'{{"depth_label":{text},"pupil_pose":')
               for line in lines)
    assert list(load_dataset(path).bundle.calibration) == [float(text)]


# ── dataset decoding ─────────────────────────────────────────────────────
# load_dataset decodes records with orjson and hands the lines orjson
# rejects to json; every number must read as json reads it.

def _decimal(sign, whole, fraction, exponent):
    return f"{sign}{whole}{fraction}{exponent}"


_EXPONENTS = st.builds(lambda marker, plus, n: f"{marker}{plus * (n >= 0)}{n}",
                       st.sampled_from("eE"), st.sampled_from(("", "+")),
                       st.integers(-330, 310))
_FRACTIONS = st.builds(lambda zeros, digits: f".{'0' * zeros}{digits}",
                       st.integers(0, 5), st.integers(0, 10 ** 40))
# integers up to 10**30 in size, decimals with long mantissas and
# exponents from -330 to 310, and negative zeros
_NUMBER_TEXTS = st.one_of(
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.sampled_from(("-0", "-0.0", "-0e7", "0E-330")),
    st.builds(_decimal, st.sampled_from(("", "-")),
              st.one_of(st.just("0"), st.integers(1, 10 ** 26).map(str)),
              st.one_of(st.just(""), _FRACTIONS),
              st.one_of(st.just(""), _EXPONENTS)),
).filter(lambda text: math.isfinite(float(json.loads(text))))
# pose entries below 0.7 in size, so that a third entry makes a unit pose
_POSE_TEXTS = st.one_of(
    st.sampled_from(("0", "-0", "-0.0")),
    st.builds(_decimal, st.sampled_from(("", "-")), st.just("0"), _FRACTIONS,
              st.builds(lambda n: f"e{n}", st.integers(-330, 0))),
).filter(lambda text: abs(float(json.loads(text))) < 0.7)


def _bits(texts_or_values):
    return np.array([float(json.loads(v)) if isinstance(v, str) else v
                     for v in texts_or_values],
                    dtype=float).view(np.uint64).tolist()


@pytest.fixture(scope="module")
def header_line(bundle, tmp_path_factory):
    path = tmp_path_factory.mktemp("header") / "data.jsonl"
    save_dataset(bundle, path)
    return path.read_text().splitlines()[0]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(numbers=st.lists(_NUMBER_TEXTS, min_size=7, max_size=7),
       pose=st.lists(_POSE_TEXTS, min_size=2, max_size=2),
       depth=_NUMBER_TEXTS.filter(lambda text: float(json.loads(text)) > 0))
def test_loader_reads_every_number_as_json_does(header_line, tmp_path_factory,
                                                numbers, pose, depth):
    x, y = (float(json.loads(t)) for t in pose)
    pose = pose + [repr(math.sqrt(1.0 - x * x - y * y))]
    line = ('{"depth_label":%s,"pupil_pose":[%s,%s,%s],"pupil_px":[%s,%s],'
            '"role":"calibration","target_px":[%s,%s],'
            '"target_scene_m":[%s,%s,%s]}' % (depth, *pose, *numbers))
    path = tmp_path_factory.getbasetemp() / "numbers.jsonl"
    path.write_text(header_line + "\n" + line + "\n")
    [(key, columns)] = load_dataset(path).bundle.calibration.items()
    [record] = rows(columns)
    assert _bits([key]) == _bits([depth])
    assert _bits(record.pupil_pose) == _bits(pose)
    assert _bits(record.pupil_px) == _bits(numbers[:2])
    assert _bits(record.target_px) == _bits(numbers[2:4])
    assert _bits(record.target) == _bits(numbers[4:])


_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_UNIT_POSE = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                       st.floats(0.1, 1.0)).map(
    lambda v: (np.array(v) / np.linalg.norm(v)).tolist())
_RECORDS = st.lists(st.fixed_dictionaries({
    "role": st.sampled_from(("test", "calibration")),
    "depth_label": st.sampled_from((2.0, 0.5, 1.25, 3, 1.0)),
    "pupil_px": st.lists(_ANY_FLOAT, min_size=2, max_size=2),
    "pupil_pose": st.none() | _UNIT_POSE,
    "target_scene_m": st.lists(_ANY_FLOAT, min_size=3, max_size=3),
    "target_px": st.none() | st.lists(_ANY_FLOAT, min_size=2, max_size=2),
}), max_size=40)


def _oracle_bundle(lines, rig, eye):
    """The records of `lines` decoded one by one with json.loads, grouped
    by role and depth in file order and stacked into columns."""
    groups = {"calibration": {}, "test": {}}
    for line in lines:
        r = json.loads(line)
        groups[r["role"]].setdefault(float(r["depth_label"]), []).append(
            SimpleNamespace(
                pupil_px=np.array(r["pupil_px"], dtype=float),
                pupil_pose=None if r.get("pupil_pose") is None
                else np.array(r["pupil_pose"], dtype=float),
                target=np.array(r["target_scene_m"], dtype=float),
                target_px=None if r.get("target_px") is None
                else np.array(r["target_px"], dtype=float)))
    return DatasetBundle(rig=rig, eye=eye, **{
        role: {depth: stack(samples) for depth, samples in group.items()}
        for role, group in groups.items()})


def _field_bits(value):
    return None if value is None else (value.dtype.str, value.tobytes())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(records=_RECORDS, sort_keys=st.booleans(), leave_out_nulls=st.booleans())
def test_loaded_columns_equal_a_per_line_json_oracle(
        header_line, tmp_path_factory, records, sort_keys, leave_out_nulls):
    """Roles and depths interleaved and out of order, some poses and
    scene pixels null (or their keys left out): each (role, depth) group's
    columns equal json.loads line by line, in file order, bit for bit,
    and saving either bundle writes the same bytes."""
    if leave_out_nulls:
        records = [{k: v for k, v in r.items() if v is not None}
                   for r in records]
    lines = [json.dumps(r, sort_keys=sort_keys) for r in records]
    path = tmp_path_factory.getbasetemp() / "interleaved.jsonl"
    path.write_text("\n".join([header_line] + lines) + "\n")
    loaded = load_dataset(path)
    oracle = _oracle_bundle(lines, loaded.bundle.rig, loaded.bundle.eye)
    assert loaded.n_records == len(records)
    assert loaded.missing_pose == sum(r.get("pupil_pose") is None
                                      for r in records)
    for role in ("calibration", "test"):
        got, want = getattr(loaded.bundle, role), getattr(oracle, role)
        assert list(got) == list(want)
        for depth, columns in got.items():
            assert type(depth) is float
            for f in fields(SampleColumns):
                assert (_field_bits(getattr(columns, f.name))
                        == _field_bits(getattr(want[depth], f.name)))
    saved, expected = (tmp_path_factory.getbasetemp() / name
                       for name in ("saved.jsonl", "expected.jsonl"))
    save_dataset(loaded.bundle, saved)
    save_dataset(oracle, expected)
    assert saved.read_bytes() == expected.read_bytes()
    for line in saved.read_text().splitlines()[1:]:   # as json writes it
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))


def test_save_writes_no_line_for_an_empty_group(bundle, tmp_path):
    path = tmp_path / "data.jsonl"
    save_dataset(replace(bundle, test={1.0: take(bundle.test[1.0], slice(0)),
                                       1.5: bundle.test[1.5]}), path)
    loaded = load_dataset(path)
    assert list(loaded.bundle.test) == [1.5]
    assert loaded.n_records == 2 * 25 + 16


def _set_text(field, text):
    """An edit that writes `text` verbatim as a record's `field`."""
    def edit(s):
        return json.dumps({**json.loads(s), field: "@"}).replace('"@"', text)
    return edit


@pytest.mark.parametrize("field, text, message", [
    ("pupil_px", "[NaN, 1.0]", "field 'pupil_px' contains non-finite values"),
    ("target_scene_m", "[0.1, -Infinity, 1.0]",
     "field 'target_scene_m' contains non-finite values"),
    ("target_px", "[1e400, 1.0]",
     "field 'target_px' contains non-finite values"),
    ("depth_label", "NaN", "depth_label must be finite, got nan"),
    ("depth_label", "1e400", "depth_label must be finite, got inf"),
], ids=["nan", "minus-infinity", "overflow", "nan-depth", "overflow-depth"])
def test_literals_orjson_rejects_give_the_json_errors(dataset_path, field,
                                                      text, message):
    rewrite_line(dataset_path, 3, _set_text(field, text))
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert str(err.value) == f"line 3: {message}"


@pytest.mark.parametrize("edit", [
    lambda s: s[:-1] + ',"note":"\\ud800"}',
    lambda s: " \t" + s + "  ",
    lambda s: s[:-1] + ',"pupil_px":[12.5,-3e2],"depth_label":1}',
], ids=["lone-surrogate-in-unknown-key", "whitespace-padded",
        "duplicate-keys"])
def test_lines_orjson_rejects_or_pads_load_as_json_reads_them(dataset_path,
                                                              edit):
    rewrite_line(dataset_path, 3, edit)
    line = dataset_path.read_text().splitlines()[2]
    expected = json.loads(line)       # json keeps the last duplicate key
    calibration = load_dataset(dataset_path).bundle.calibration
    record = rows(calibration[float(expected["depth_label"])])[1]
    assert _bits(record.pupil_px) == _bits(expected["pupil_px"])
    assert _bits(record.pupil_pose) == _bits(expected["pupil_pose"])
    assert _bits(record.target) == _bits(expected["target_scene_m"])
    assert _bits(record.target_px) == _bits(expected["target_px"])


def _edit_line(data, lineno, transform):
    """The bytes `data` of a dataset with `transform` applied to line
    `lineno` (bytes, without its newline)."""
    lines = data.split(b"\n")
    lines[lineno - 1] = transform(lines[lineno - 1])
    return b"\n".join(lines)


def _note(text):
    """An edit of a dataset's bytes that adds a "note" key holding `text`
    to its line 3."""
    return lambda data: _edit_line(
        data, 3, lambda s: s[:-1] + f',"note":"{text}"}}'.encode())


@pytest.mark.parametrize("edit", [
    _note("a\u2028b"), _note("a\u2029b"), _note("a\x85b"),
    lambda data: data.replace(b'"pupil_px":', b'"pupil_px":\r', 1),
    lambda data: data.replace(b"\n", b"\r\n"),
], ids=["line-separator", "paragraph-separator", "next-line", "cr-in-line",
        "crlf"])
def test_records_end_at_newline_only(dataset_path, tmp_path, edit):
    # a record is one \n-terminated line; these characters are legal in a
    # JSON line, and all but CRLF used to split it ("line 3: bad JSON:
    # Unterminated string starting at" for the first three)
    original = dataset_path.read_bytes()
    dataset_path.write_bytes(edit(original))
    resaved = tmp_path / "resaved.jsonl"
    save_dataset(load_dataset(dataset_path).bundle, resaved)
    assert resaved.read_bytes() == original


@pytest.mark.parametrize("lineno, transform, message", [
    (3, lambda s: s[:-1] + b',"note":"a\xffb"}',
     "line 3: bad UTF-8: invalid start byte"),
    (1, lambda s: s[:-1] + b',"note":"a\xffb"}',
     "line 1: bad UTF-8: invalid start byte"),
    (5, lambda s: s.replace(b'"role"', b'"r\xed\xa0\x80le"'),
     "line 5: bad UTF-8: invalid continuation byte"),
], ids=["record", "header", "encoded-surrogate"])
def test_bad_utf8_names_its_line(dataset_path, lineno, transform, message):
    # it used to raise UnicodeDecodeError, naming a file offset only
    dataset_path.write_bytes(_edit_line(dataset_path.read_bytes(), lineno,
                                        transform))
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert str(err.value) == message


def test_a_file_of_cr_ended_lines_is_one_line(dataset_path):
    # JSON Lines ends each line with \n; a file ending lines with a bare
    # \r is its header line followed by extra data
    dataset_path.write_bytes(dataset_path.read_bytes().replace(b"\n", b"\r"))
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert str(err.value) == "line 1: bad JSON: Extra data"


def test_only_dataset_loading_imports_orjson(tmp_path):
    # sweeps decode no dataset and should not pay orjson's import
    script = "\n".join((
        "import sys",
        "from gaze3d.dataset_io import load_dataset, save_dataset",
        "from gaze3d.evaluation import depth_combination_sweep",
        "from gaze3d.eye_simulator import default_bundle",
        "bundle = default_bundle(depths=(1.0, 2.0))",
        "depth_combination_sweep(bundle)",
        "assert 'orjson' not in sys.modules",
        "save_dataset(bundle, sys.argv[1])",
        "load_dataset(sys.argv[1])",
        "assert 'orjson' in sys.modules",
    ))
    env = {**os.environ,
           "PYTHONPATH": str(Path(gaze3d.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script,
                           str(tmp_path / "data.jsonl")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# ── dataset validation ───────────────────────────────────────────────────

def test_schema_version_checked(dataset_path):
    rewrite_line(dataset_path, 1,
                 lambda s: s.replace(SCHEMA_VERSION, "gaze3d/999"))
    with pytest.raises(SchemaVersionMismatch):
        load_dataset(dataset_path)


@pytest.mark.parametrize("key, path, value, message", [
    ("e_gt", (0,), math.nan, "bad rig in header: e_gt must be 3 finite "
     "numbers, got [nan, 0.035, -0.025]"),
    ("noise", ("pupil_px",), math.nan, "bad rig in header: noise_pupil_px "
     "must be a finite number >= 0, got nan"),
    ("noise", ("pose_deg",), -1.0, "bad rig in header: noise_pose_deg must "
     "be a finite number >= 0, got -1.0"),
    ("scene_camera", ("focal", 0), math.nan, "bad scene_camera in header: "
     "focal must be finite, got [nan, 720.0]"),
    ("eye_camera", ("translation", 2), math.inf, "bad eye_camera in header: "
     "translation must be finite, got [0.015, 0.035, inf]"),
    # float() took these, and a bool or string e_gt shifted every error
    ("e_gt", (0,), True, "bad rig in header: e_gt must be 3 finite "
     "numbers, got [True, 0.035, -0.025]"),
    ("e_gt", (0,), "0.015", "bad rig in header: e_gt must be 3 finite "
     "numbers, got ['0.015', 0.035, -0.025]"),
    # a zero resolution loaded, and fit printed LAPACK lines and a
    # LinAlgError
    ("eye_camera", ("resolution",), [0, 0], "bad eye_camera in header: "
     "resolution must be positive, got [0.0, 0.0]"),
    ("eye_camera", ("resolution", 0), True, "bad eye_camera in header: "
     "resolution entries must be numbers, got [True, 360.0]"),
    ("scene_camera", ("focal", 1), "720", "bad scene_camera in header: "
     "focal entries must be numbers, got [720.0, '720']"),
    ("eye_camera", ("rotation", 4), False, "bad eye_camera in header: "
     "rotation entries must be numbers, got [[-1.0, 0.0, "
     "1.2246467991473532e-16], [0.0, False, 0.0], "
     "[-1.2246467991473532e-16, 0.0, -1.0]]"),
    # an integer beyond float range raised OverflowError past load_dataset
    ("e_gt", (1,), 10**400, f"bad rig in header: e_gt must be 3 finite "
     f"numbers, got [0.015, {10**400}, -0.025]"),
    ("noise", ("target_mm",), 10**400, f"bad rig in header: "
     f"noise_target_mm must be a finite number >= 0, got {10**400}"),
    ("scene_camera", ("focal", 0), 10**400, f"bad scene_camera in header: "
     f"focal entries must be numbers, got [{10**400}, 720.0]"),
])
def test_header_with_non_finite_or_negative_rig_values_rejected(
        dataset_path, key, path, value, message):
    # a NaN e_gt used to load, and evaluate printed mean_deg=nan
    def edit(line):
        header = json.loads(line)
        *inner, last = path
        target = header[key]
        for step in inner:
            target = target[step]
        target[last] = value
        return json.dumps(header)
    rewrite_line(dataset_path, 1, edit)
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert str(err.value) == f"line 1: {message}"


@pytest.mark.parametrize("eye, message", [
    ({"eyeball_radius_mm": math.nan},
     "eyeball_radius_mm must be a finite number > 0, got nan"),
    ({"eyeball_radius_mm": math.inf},
     "eyeball_radius_mm must be a finite number > 0, got inf"),
    ({"corneal_radius_mm": "x"},
     "corneal_radius_mm must be a finite number > 0, got 'x'"),
    ({"bogus": 1}, "unexpected keyword argument 'bogus'"),
    ({"eyeball_radius_mm": 30.0}, "do not intersect"),
    ([11.5, 7.8, 4.7], "must be a mapping"),
], ids=["nan", "infinity", "string", "unknown-key", "apart", "list"])
def test_header_with_a_bad_eye_model_rejected(dataset_path, eye, message):
    # these used to raise NoIntersection or TypeError, naming no line
    rewrite_line(dataset_path, 1, lambda line: json.dumps(
        {**json.loads(line), "eye_model_mm": eye}))
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert str(err.value).startswith("line 1: bad eye_model_mm in header: ")
    assert message in str(err.value)


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
    original = dataset_path.read_text()
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

    # a non-unit pose before a pose that is not numeric: each record's
    # pose is held to both rules, in file order
    dataset_path.write_text(original)
    set_fields(dataset_path, 9, pupil_pose=["a", 0.0, 1.0])
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
                 for s in rows(group[d])]
    restored = [r for d in loaded.bundle.depths()
                for group in (loaded.bundle.calibration, loaded.bundle.test)
                for r in rows(group[d])]
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
    samples = pooled(bundle.calibration, (1.0, 1.5))
    for mapper in ("2d2d", "2d3d", "3d3d"):
        model = fit_mapper(mapper, samples)
        path = tmp_path / f"{mapper}.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored.mapper_id == mapper
        probe = rows(bundle.test[1.0])[0]
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
    save_model(fit_mapper(mapper, pooled(bundle.calibration, (1.0, 1.5))),
               path)
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


CAMERA = {"focal": [600, 600], "principal": [320, 180],
          "resolution": [640, 360]}


@pytest.mark.parametrize("key, value", [
    ("depths", [1.0, float("nan")]), ("depths", [1.0, float("inf")]),
    ("depths", [True]), ("depths", ["1.0"]), ("depths", 1.0),
    ("noise_pupil_px", float("nan")), ("noise_pose_deg", float("inf")),
    ("noise_target_mm", "2"), ("center_bounds_m", -0.05),
    ("center_bounds_m", float("nan")), ("seed", 1.5), ("seed", True),
    ("seed", -1), ("e_gt", [float("nan"), 0.0, 0.0]),
    ("normalize_residuals", "no"),
    ("eye_model_mm", {"eyeball_radius_mm": float("nan")}),
    ("eye_model_mm", {"corneal_radius_mm": -7.8}),
    ("eye_model_mm", {"center_separation_mm": "4.7"}),
    ("eye_model_mm", {"eyeball_radius_mm": 30.0}),
    ("grid", {"calib_rows": -3}), ("grid", {"test_cols": 2.5}),
    ("grid", {"width": float("inf")}), ("grid", {"scale_with_depth": 1}),
    ("scene_camera", {**CAMERA, "focal": "x"}),
    ("scene_camera", {**CAMERA, "focal": [600]}),
    ("eye_camera", {**CAMERA, "translation": [0, 0]}),
    ("eye_camera", {**CAMERA, "rotation_angles": {"a": 1}}),
    ("scene_camera", {**CAMERA, "resolution": [0, 0], "principal": [0, 0]}),
    ("scene_camera", {**CAMERA, "resolution": [True, 360],
                      "principal": [1, 180]}),
    ("scene_camera", {**CAMERA, "translation": ["0", 0, 0]}),
    ("e_gt", [True, 0, 0]), ("e_gt", ["0.015", 0.035, -0.025]),
    ("e_gt", 0.015),
    # an integer beyond float range used to raise OverflowError
    ("depths", [1.0, 10**400]), ("noise_pupil_px", 10**400),
    ("center_bounds_m", 10**400), ("e_gt", [0.0, 10**400, 0.0]),
    ("eye_model_mm", {"eyeball_radius_mm": 10**400}),
    ("grid", {"width": 10**400}),
    ("scene_camera", {**CAMERA, "focal": [10**400, 600]}),
    # float() took a numeric string angle (and a bool: see below)
    ("eye_camera", {**CAMERA, "rotation_angles": ["0.1", 0, 0]}),
    ("eye_camera", {**CAMERA, "rotation_angles": [10**400, 0, 0]}),
    ("eye_camera", {**CAMERA, "rotation_angles": [math.nan, 0, 0]}),
])
def test_config_rejects_non_finite_and_mistyped_values(key, value):
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_dict({key: value})


@pytest.mark.parametrize("lm, name", [
    ({"damping": float("nan")}, "damping"), ({"damping_up": 1}, "damping_up"),
    ({"damping_up": 0.5}, "damping_up"), ({"damping": "x"}, "damping"),
    ({"max_iterations": 2.5}, "max_iterations"),
    ({"damping_up": 1.0001}, "damping_up"),
    ({"damping_up": 1.01}, "damping_up"),
    ({"damping_down": 1.0}, "damping_down"),
    ({"damping_down": 0.5}, "damping_down"),
    ({"damping_down": 1.01}, "damping_down"),
    ({"damping": 10**400}, "damping"),
])
def test_config_builds_its_lm_settings_at_load(lm, name):
    with pytest.raises(ConfigError, match=f"lm settings: {name}"):
        ExperimentConfig.from_dict({"depths": [1.0, 2.0], "lm": lm})


@pytest.mark.parametrize("config, message", [
    ({"depths": [1.0, 2.0], "eye_model_mm": {"eyeball_radius_mm": math.nan}},
     "eye_model_mm.eyeball_radius_mm must be a finite number > 0, got nan"),
    ({"grid": {"calib_rows": -3}},
     "invalid grid: calib_rows must be an integer >= 2, got -3"),
    # it loaded as a 1 rad turn about x
    ({"scene_camera": {**CAMERA, "rotation_angles": [True, math.pi, 0]}},
     "invalid scene_camera: rotation_angles must be 3 finite numbers, "
     "got [True, 3.141592653589793, 0]"),
    ({"grid": {"test_cols": 1001}},
     "invalid grid: test_cols must be at most 1000, got 1001"),
    ({"grid": {"calib_rows": 10**400}},
     f"invalid grid: calib_rows must be at most 1000, got {10**400}"),
], ids=["eye", "grid", "camera-angles", "grid-1001", "grid-huge"])
def test_config_checks_eye_and_grid_at_load(config, message):
    # the eye and grid used to construct, and failed only at synthesis
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(config)
    assert str(err.value) == message


def test_grid_counts_at_the_cap_are_valid():
    # built only: a 1000 x 1000 grid is not synthesized here
    ExperimentConfig.from_dict({"grid": {
        "calib_rows": 1000, "calib_cols": 1000,
        "test_rows": 1000, "test_cols": 1000}})


def test_config_keeps_the_rig_it_built():
    cfg = ExperimentConfig.from_dict({"scene_camera": CAMERA,
                                      "noise_pupil_px": 0.5})
    rig = cfg.to_rig()
    assert rig is cfg.to_rig()
    assert rig.scene_camera.focal.tolist() == [600.0, 600.0]
    assert rig.noise_pupil_px == 0.5
    assert cfg.override(noise_pupil_px=1.0).to_rig().noise_pupil_px == 1.0


def test_config_unbounded_center_stays_valid():
    cfg = ExperimentConfig(center_bounds_m=None, depths=(1.0, 2.0))
    assert cfg.to_mapping_config((640, 360)).center_bounds_m is None
    assert cfg.override(noise_pupil_px=0.5).noise_pupil_px == 0.5
    with pytest.raises(ConfigError, match="noise_pupil_px"):
        cfg.override(noise_pupil_px=float("nan"))


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
    assert cfg.to_mapping_config((640, 360)).lm.max_iterations == 50
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)
