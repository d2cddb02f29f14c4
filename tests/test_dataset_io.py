"""File formats: dataset grammar, model serialization, CSV export, and
strict experiment configuration."""

import gc
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from collections.abc import Mapping
from dataclasses import fields, is_dataclass, replace
from itertools import cycle, islice
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaze3d
from gaze3d import dataset_io
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
from gaze3d.mappers import (
    Model2Dto2D,
    Model2Dto3D,
    Model3Dto3D,
    fit_mapper,
    predict_sample,
)
from helpers import pooled, rows, stack, take


@pytest.fixture(scope="module")
def bundle():
    return synthesize_dataset(SimRig(), TwoSphereEye(), depths=(1.0, 1.5),
                              seed=3)


@pytest.fixture()
def saved_path(bundle, tmp_path):
    """A dataset file as save_dataset leaves it: beside its sidecar."""
    path = tmp_path / "data.jsonl"
    save_dataset(bundle, path)
    return path


@pytest.fixture()
def dataset_path(saved_path):
    """The dataset file the round-trip and validation tests load and
    edit; test_dataset_io_parsed runs them again without its sidecar."""
    return saved_path


def sidecar(path):
    """The sidecar save_dataset writes beside the dataset file `path`."""
    return Path(f"{path}.cols")


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
                              f"1.5: field {key!r} must be {len(value)} "
                              f"finite numbers, got {value.tolist()}")
    assert not path.exists()


def test_save_rejects_a_pose_load_rejects_and_writes_nothing(tmp_path):
    # a group's arrays are writable; save used to write this record, and
    # load_dataset then raised "UnitViolation: record 0 (line 2):
    # pupil_pose norm 2 is not unit"
    bundle = default_bundle(depths=(1.0,))
    bundle.calibration[1.0].pupil_pose[0] = [2.0, 0.0, 0.0]
    path = tmp_path / "bad.jsonl"
    with pytest.raises(ValueError) as err:
        save_dataset(bundle, path)
    assert str(err.value) == ("cannot save calibration record 0 at depth "
                              "1.0: field 'pupil_pose' norm 2 is not unit")
    assert not path.exists()


@pytest.mark.parametrize("scale", [1 + 5e-7, 1 - 5e-7, 1 + 2e-6, 1 - 2e-6])
def test_save_and_load_share_the_unit_pose_tolerance(bundle, tmp_path,
                                                     scale):
    samples = bundle.test[1.5]
    poses = samples.pupil_pose.copy()
    poses[3] *= scale
    nudged = replace(bundle, test={**bundle.test,
                                   1.5: replace(samples, pupil_pose=poses)})
    path = tmp_path / "nudged.jsonl"
    if abs(scale - 1.0) < 1e-6:
        save_dataset(nudged, path)
        assert (load_dataset(path).bundle.test[1.5].pupil_pose.tobytes()
                == poses.tobytes())
    else:
        with pytest.raises(ValueError, match=r"^cannot save test record 3 "
                           r"at depth 1\.5: field 'pupil_pose' norm "
                           r"(1\.000002|0\.999998) is not unit$"):
            save_dataset(nudged, path)
        assert not path.exists()


@pytest.mark.parametrize("source, shown", [
    (["simulated"], r"\['simulated'\]"), ("simulatd", "'simulatd'"),
    (None, "None")], ids=["list", "misspelt", "null"])
def test_load_rejects_a_source_save_does_not_write(dataset_path, source,
                                                    shown):
    """A header source other than "simulated" or "recorded" fails at line
    1 by name; it used to load, be scored as a recording and then fail to
    re-save."""
    rewrite_line(dataset_path, 1, lambda line: json.dumps(
        {**json.loads(line), "source": source}))
    with pytest.raises(ParseError, match=rf"^line 1: unknown source {shown} "
                       r"\(expected one of 'simulated', 'recorded'\)$"):
        load_dataset(dataset_path)


@pytest.mark.parametrize("source", ("simulated", "recorded", None))
def test_source_survives_save_and_load(bundle, tmp_path, source):
    """Each source save_dataset writes loads back as itself and re-saves
    byte for byte; a header with no source loads as "recorded"."""
    path, again = tmp_path / "d.jsonl", tmp_path / "again.jsonl"
    save_dataset(bundle, path, source=source or "recorded")
    if source is None:
        rewrite_line(path, 1, lambda line: json.dumps(
            {k: v for k, v in json.loads(line).items() if k != "source"}))
    loaded = load_dataset(path)
    assert loaded.source == (source or "recorded")
    save_dataset(loaded.bundle, again, source=loaded.source)
    if source is not None:
        assert again.read_bytes() == path.read_bytes()


def test_save_rejects_an_unknown_source(bundle, tmp_path):
    path = tmp_path / "d.jsonl"
    with pytest.raises(ValueError, match="^unknown source 'other'$"):
        save_dataset(bundle, path, source="other")
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


# save_dataset writes a column's floats with orjson, whose text is
# repr's for 0.0, -0.0 and 1e-4 <= |x| < 1e16, and a row holding any
# other value with repr.  json.dumps is the oracle of every record line.
_EDGE = (0.0, -0.0, 1e-4, float(np.nextafter(1e-4, 0)), 1e-05, 5e-324,
         9999999999999998.0, 1e16, -1e16)


def _json_oracle_lines(bundle):
    """The record lines json.dumps writes for `bundle`, in save order."""
    lines = []
    for depth in sorted(set(bundle.calibration) | set(bundle.test)):
        for role in ("calibration", "test"):
            group = getattr(bundle, role).get(depth)
            for row in (rows(group) if group is not None else ()):
                record = {key: None if value is None else value.tolist()
                          for key, value in (
                              ("pupil_px", row.pupil_px),
                              ("pupil_pose", row.pupil_pose),
                              ("target_scene_m", row.target),
                              ("target_px", row.target_px))}
                lines.append(json.dumps(
                    {**record, "depth_label": depth, "role": role},
                    sort_keys=True, separators=(",", ":")))
    return lines


def test_save_writes_the_json_text_of_edge_floats(bundle, tmp_path):
    n = len(_EDGE)
    edge = np.array(_EDGE)
    pose = np.tile([0.0, 0.0, 1.0], (n, 1))
    pose[1] = [-0.0, 0.0, -1.0]
    pose[2] = [1e-05, 0.0, math.sqrt(1 - 1e-10)]
    pose[3] = np.nan                                # a null pose
    target_px = np.column_stack([edge, edge[::-1]])
    target_px[4] = np.nan                           # a null target_px
    group = SampleColumns(pupil_px=np.column_stack([edge[::-1], edge]),
                          pupil_pose=pose,
                          target=np.column_stack([edge, np.roll(edge, 3),
                                                  np.full(n, 1.5)]),
                          target_px=target_px)
    two_rows = take(group, slice(2))
    edges = DatasetBundle(calibration={1.5: group, 1e-05: two_rows},
                          test={1.5: two_rows}, rig=bundle.rig,
                          eye=bundle.eye)
    path = tmp_path / "edges.jsonl"
    save_dataset(edges, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert text.splitlines()[1:] == _json_oracle_lines(edges)
    loaded = load_dataset(path).bundle
    for role in ("calibration", "test"):
        for depth, saved in getattr(edges, role).items():
            restored = getattr(loaded, role)[depth]
            for f in fields(SampleColumns):
                present = saved.present(f.name)
                assert np.array_equal(restored.present(f.name), present)
                assert (getattr(restored, f.name)[present].tobytes()
                        == getattr(saved, f.name)[present].tobytes())


def test_orjson_row_text_is_repr_text_in_range():
    # holds the writer's premise to the installed orjson: 10^5 floats of
    # 1e-4 <= |x| < 1e16, by decimal exponent and by bit pattern
    import orjson

    rng = np.random.default_rng(28)
    low, high = np.array([1e-4, 1e16]).view(np.int64)
    values = np.concatenate([
        10.0 ** rng.uniform(-4, 16, 60_000),
        rng.integers(low, high, 40_000).view(float)])
    values = values[(values >= 1e-4) & (values < 1e16)]
    values *= rng.choice([-1.0, 1.0], len(values))
    for width in (2, 3):
        matrix = values[:len(values) // width * width].reshape(-1, width)
        text = orjson.dumps(matrix, option=orjson.OPT_SERIALIZE_NUMPY)
        assert text.decode() == "[" + ",".join(
            f"[{','.join(map(repr, row))}]" for row in matrix.tolist()) + "]"


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
    _assert_loads_as_the_oracle(header_line, tmp_path_factory, records,
                                sort_keys, leave_out_nulls)


@pytest.mark.parametrize("chunk", [1, 7])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(records=_RECORDS, sort_keys=st.booleans(), leave_out_nulls=st.booleans())
def test_loaded_columns_equal_the_oracle_across_chunks(
        header_line, tmp_path_factory, chunk, records, sort_keys,
        leave_out_nulls):
    """The same oracle with load_dataset decoding one or seven lines at a
    time, so that groups span chunks (the test above runs at the default
    chunk, which holds every record it draws)."""
    with mock.patch.object(dataset_io, "_CHUNK_LINES", chunk):
        _assert_loads_as_the_oracle(header_line, tmp_path_factory, records,
                                    sort_keys, leave_out_nulls)


def _assert_loads_as_the_oracle(header_line, tmp_path_factory, records,
                                sort_keys, leave_out_nulls):
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
    _assert_same_groups(loaded.bundle, oracle)
    saved, expected = (tmp_path_factory.getbasetemp() / name
                       for name in ("saved.jsonl", "expected.jsonl"))
    save_dataset(loaded.bundle, saved)
    save_dataset(oracle, expected)
    assert saved.read_bytes() == expected.read_bytes()
    for line in saved.read_text().splitlines()[1:]:   # as json writes it
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))


def _assert_same_groups(got, want):
    """`got` and `want` hold the same groups, in the same order, with the
    same bits in every field."""
    for role in ("calibration", "test"):
        got_groups, want_groups = getattr(got, role), getattr(want, role)
        assert list(got_groups) == list(want_groups)
        for depth, columns in got_groups.items():
            assert type(depth) is float
            for f in fields(SampleColumns):
                assert (_field_bits(getattr(columns, f.name))
                        == _field_bits(getattr(want_groups[depth], f.name)))


# bad JSON texts for a record value or one entry of a vector value: a
# string, a bool, null, a nested list, a NaN or infinity literal, a
# 400-digit integer and an object
_BAD_TEXTS = st.sampled_from(('"1.0"', "true", "false", "null",
                              "[[0.5], [0.5]]", "NaN", "-Infinity",
                              "1" + "0" * 399, '{"x": 1}'))
_VECTOR_WIDTHS = {"pupil_px": 2, "pupil_pose": 3, "target_scene_m": 3,
                  "target_px": 2}


@st.composite
def _bad_fields(draw):
    """A record key and a JSON text no record may hold under it: a bad
    value, a vector with one bad entry or a vector of the wrong entry
    count (null only where the field is required)."""
    key = draw(st.sampled_from(("pupil_px", "pupil_pose", "target_scene_m",
                                "target_px", "depth_label", "role")))
    bad = draw(_BAD_TEXTS)
    width = _VECTOR_WIDTHS.get(key)
    how = draw(st.sampled_from(("value", "entry", "count")))
    if width is None or how == "value" and not (
            bad == "null" and key in ("pupil_pose", "target_px")):
        return key, bad
    if how == "count":
        entries = ["0.5"] * draw(st.sampled_from(
            [n for n in (0, 1, 2, 3, 4) if n != width]))
    else:
        entries = ["0.5"] * width
        entries[draw(st.integers(0, width - 1))] = bad
    return key, "[" + ",".join(entries) + "]"


@pytest.fixture(scope="module")
def record_lines(bundle, tmp_path_factory):
    """The header and the first four record lines of a saved dataset."""
    path = tmp_path_factory.mktemp("lines") / "data.jsonl"
    save_dataset(bundle, path)
    return path.read_text().splitlines()[:5]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bad=_bad_fields(), index=st.integers(0, 3))
def test_a_bad_field_is_rejected_naming_its_line(
        record_lines, tmp_path_factory, bad, index):
    """The column checks and the per-record rule (_check_record) agree:
    a record with one bad field fails load_dataset with a ParseError or
    UnitViolation naming its line, never the RuntimeError of a record
    one rule rejects and the other accepts."""
    _assert_bad_field_named(record_lines, tmp_path_factory, bad, index)


@pytest.fixture(scope="module")
def twenty_record_lines(bundle, tmp_path_factory):
    """The header and the first twenty record lines of a saved dataset."""
    path = tmp_path_factory.mktemp("lines") / "data.jsonl"
    save_dataset(bundle, path)
    return path.read_text().splitlines()[:21]


@pytest.mark.parametrize("chunk", [1, 7, dataset_io._CHUNK_LINES])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(bad=_bad_fields(), index=st.integers(0, 19))
def test_a_bad_field_is_named_by_its_line_across_chunks(
        twenty_record_lines, tmp_path_factory, chunk, bad, index):
    """The same, on twenty records decoded one, seven or the default
    number of lines at a time: the bad record may sit in any chunk."""
    with mock.patch.object(dataset_io, "_CHUNK_LINES", chunk):
        _assert_bad_field_named(twenty_record_lines, tmp_path_factory, bad,
                                index)


def _assert_bad_field_named(record_lines, tmp_path_factory, bad, index):
    key, text = bad
    header, *lines = record_lines
    lines[index] = json.dumps({**json.loads(lines[index]), key: "@"}).replace(
        '"@"', text)
    path = tmp_path_factory.getbasetemp() / "one-bad-field.jsonl"
    path.write_text("\n".join([header] + lines) + "\n")
    with pytest.raises((ParseError, UnitViolation)) as err:
        load_dataset(path)
    assert (err.value.line if isinstance(err.value, ParseError)
            else err.value.record_index + 2) == index + 2


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
    ("pupil_px", "[NaN, 1.0]",
     "field 'pupil_px' must be 2 finite numbers, got [nan, 1.0]"),
    ("target_scene_m", "[0.1, -Infinity, 1.0]",
     "field 'target_scene_m' must be 3 finite numbers, got [0.1, -inf, 1.0]"),
    ("target_px", "[1e400, 1.0]",
     "field 'target_px' must be 2 finite numbers, got [inf, 1.0]"),
    ("depth_label", "NaN", "depth_label must be a finite number > 0, got nan"),
    ("depth_label", "1e400",
     "depth_label must be a finite number > 0, got inf"),
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


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("edit, error", [
    (None, None),
    (_set_text("role", '"train"'), ParseError),
    (_set_text("pupil_px", "[NaN, 1.0]"), ParseError),
], ids=["loads", "parse-error", "json-decides"])
def test_load_leaves_the_collector_as_it_found_it(dataset_path, collecting,
                                                  edit, error):
    # the collector is off while the decoded records are held
    sidecar(dataset_path).unlink(missing_ok=True)     # parsed
    if edit is not None:
        rewrite_line(dataset_path, 3, edit)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if error is None:
            load_dataset(dataset_path)
        else:
            with pytest.raises(error):
                load_dataset(dataset_path)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_load_turns_the_collector_back_on_after_an_error(dataset_path,
                                                        monkeypatch):
    def fail(lines):
        assert not gc.isenabled()
        raise RuntimeError("decode failed")

    monkeypatch.setattr(dataset_io, "_record_columns", fail)
    sidecar(dataset_path).unlink(missing_ok=True)     # parsed
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="decode failed"):
        load_dataset(dataset_path)
    assert gc.isenabled()


def test_only_dataset_loading_imports_orjson(tmp_path):
    # sweeps read and write no dataset and should not pay orjson's
    # import; save_dataset writes floats with it
    script = "\n".join((
        "import sys",
        "from gaze3d.dataset_io import load_dataset, save_dataset",
        "from gaze3d.evaluation import depth_combination_sweep",
        "from gaze3d.eye_simulator import default_bundle",
        "bundle = default_bundle(depths=(1.0, 2.0))",
        "depth_combination_sweep(bundle)",
        "assert 'orjson' not in sys.modules",
        "save_dataset(bundle, sys.argv[1])",
        "assert 'orjson' in sys.modules",
        "load_dataset(sys.argv[1])",
    ))
    env = {**os.environ,
           "PYTHONPATH": str(Path(gaze3d.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script,
                           str(tmp_path / "data.jsonl")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# ── streaming ────────────────────────────────────────────────────────────
# load_dataset decodes _CHUNK_LINES record lines at a time and save_dataset
# writes one group at a time; lines, errors and bytes are the whole-file
# reader's.  Each case runs at seven lines a chunk and at the default, so
# that records sit on both sides of a chunk boundary.

@pytest.fixture(params=[7, dataset_io._CHUNK_LINES],
                ids=["chunk-7", "chunk-default"])
def chunk(request, monkeypatch):
    """The number of record lines load_dataset decodes at a time."""
    monkeypatch.setattr(dataset_io, "_CHUNK_LINES", request.param)
    return request.param


@pytest.fixture(scope="module")
def saved_lines(bundle, tmp_path_factory):
    """The header and the record lines of a saved dataset, as bytes
    without their newlines."""
    path = tmp_path_factory.mktemp("saved") / "data.jsonl"
    save_dataset(bundle, path)
    return path.read_bytes().splitlines()


def _records(saved_lines, n):
    """n record lines, the saved ones over and over."""
    return list(islice(cycle(saved_lines[1:]), n))


def _write(path, saved_lines, records, end=b"\n"):
    path.write_bytes(b"\n".join([saved_lines[0], *records]) + end)
    return path


@pytest.mark.parametrize("chunks, extra", [(0, 0), (1, -1), (1, 0), (1, 1),
                                           (2, 1)],
                         ids=["no-records", "one-short", "one-chunk",
                              "one-over", "two-and-one"])
def test_record_counts_around_chunk_boundaries_load_as_the_oracle(
        chunk, saved_lines, tmp_path, chunks, extra):
    records = _records(saved_lines, chunks * chunk + extra)
    loaded = load_dataset(_write(tmp_path / "data.jsonl", saved_lines,
                                 records))
    assert loaded.n_records == len(records)
    _assert_same_groups(loaded.bundle, _oracle_bundle(
        records, loaded.bundle.rig, loaded.bundle.eye))


def test_a_last_line_without_newline_is_a_line(chunk, saved_lines, tmp_path):
    for n in (chunk, chunk + 1):
        records = _records(saved_lines, n)
        ended, unended = (_write(tmp_path / f"{name}.jsonl", saved_lines,
                                 records, end)
                          for name, end in (("ended", b"\n"),
                                            ("unended", b"")))
        loaded = load_dataset(unended)
        assert loaded.n_records == n
        _assert_same_groups(loaded.bundle, load_dataset(ended).bundle)


@pytest.mark.parametrize("where", [-1, 0], ids=["chunk-end", "chunk-start"])
def test_a_crlf_line_on_a_chunk_boundary_loads(chunk, saved_lines, tmp_path,
                                               where):
    records = _records(saved_lines, 2 * chunk)
    plain = load_dataset(_write(tmp_path / "plain.jsonl", saved_lines,
                                records)).bundle
    records[chunk + where] += b"\r"
    _assert_same_groups(load_dataset(_write(tmp_path / "crlf.jsonl",
                                            saved_lines, records)).bundle,
                        plain)


@pytest.mark.parametrize("where", [-1, 0], ids=["chunk-end", "chunk-start"])
def test_a_blank_line_on_a_chunk_boundary_names_its_line(
        chunk, saved_lines, tmp_path, where):
    records = _records(saved_lines, 2 * chunk)
    records[chunk + where] = b""
    with pytest.raises(ParseError) as err:
        load_dataset(_write(tmp_path / "data.jsonl", saved_lines, records))
    assert str(err.value) == (f"line {chunk + where + 2}: blank line inside "
                              f"dataset")


@pytest.mark.parametrize("n", [-1, 0], ids=["one-short", "one-chunk"])
def test_a_trailing_blank_line_names_its_line(chunk, saved_lines, tmp_path,
                                              n):
    records = _records(saved_lines, chunk + n)
    with pytest.raises(ParseError) as err:
        load_dataset(_write(tmp_path / "data.jsonl", saved_lines, records,
                            end=b"\n\n"))
    assert str(err.value) == (f"line {len(records) + 2}: blank line inside "
                              f"dataset")


def _with(line, **fields):
    return json.dumps({**json.loads(line), **fields}).encode()


def test_a_bad_record_after_a_clean_chunk_names_its_line(chunk, saved_lines,
                                                         tmp_path):
    records = _records(saved_lines, 3 * chunk)
    path = tmp_path / "data.jsonl"
    records[chunk + 3] = _with(records[chunk + 3], role="train")
    records[2 * chunk] = _with(records[2 * chunk], depth_label=-1.0)
    with pytest.raises(ParseError) as err:
        load_dataset(_write(path, saved_lines, records))
    assert str(err.value) == (f"line {chunk + 5}: role must be "
                              f"'calibration' or 'test', got 'train'")
    records[chunk] = _with(records[chunk], pupil_pose=[0.5, 0.5, 0.5])
    with pytest.raises(UnitViolation) as err:
        load_dataset(_write(path, saved_lines, records))
    assert str(err.value) == (f"record {chunk} (line {chunk + 2}): "
                              f"pupil_pose norm 0.8660254 is not unit")


def test_a_refused_save_writes_nothing(bundle, tmp_path):
    # every group is checked before the file is opened, the last one too
    last = bundle.test[max(bundle.test)]
    target = last.target.copy()
    target[-1, 0] = np.nan
    bad = replace(bundle, test={**bundle.test, max(bundle.test): replace(
        last, target=target)})
    new, existing = tmp_path / "new.jsonl", tmp_path / "existing.jsonl"
    save_dataset(bundle, existing)
    before = existing.read_bytes()
    for path in (new, existing):
        with pytest.raises(ValueError, match=rf"^cannot save test record "
                           rf"{len(last) - 1} at depth 1\.5: field "
                           r"'target_scene_m' must be 3 finite numbers, "):
            save_dataset(bad, path)
    assert not new.exists()
    assert existing.read_bytes() == before


def test_a_refused_load_leaves_no_open_file(dataset_path, tmp_path):
    # run with ResourceWarning as an error: a file left open would warn
    # when it is collected
    good = dataset_path.read_bytes()
    header, rest = good.split(b"\n", 1)
    cases = {"empty": (b"", "line 1: empty file"),
             "not-json": (b"{" + good, "line 1: bad JSON: "),
             "schema": (header.replace(b"gaze3d/1", b"gaze3d/9") + b"\n"
                        + rest, "unsupported schema 'gaze3d/9'"),
             "record": (good.replace(b'"role":"test"', b'"role":"x"', 1),
                        "role must be 'calibration' or 'test', got 'x'")}
    for name, (data, _) in cases.items():
        (tmp_path / name).write_bytes(data)
    script = "\n".join((
        "import gc, sys",
        "from gaze3d.dataset_io import load_dataset",
        "for path in sys.argv[1:]:",
        "    try:",
        "        load_dataset(path)",
        "    except ValueError as err:",
        "        print(err)",
        "    gc.collect()",
    ))
    env = {**os.environ,
           "PYTHONPATH": str(Path(gaze3d.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-c", script,
         *(str(tmp_path / name) for name in cases)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and not done.stderr, done.stderr
    for line, (_, message) in zip(done.stdout.splitlines(), cases.values(),
                                  strict=True):
        assert message in line


def _traced_peak(call):
    """The traced peak of call(), above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_dataset_io_transient_memory_is_bounded(tmp_path):
    # Decoding a whole file's records at once peaked at about 14.7x the
    # arrays the load returns (2.04 MB for the 1,845-record round-trip
    # file, 21.7 MB for ten times its records), and saving the whole
    # text at 11x.  Streamed, the load peaks at 0.43 MB and 2.4x the
    # arrays and the save at 1.1x; each bound leaves a margin above 2x.
    # A load from the sidecar holds its table and the grouped arrays.
    bundle = ExperimentConfig.from_dict({"grid": {
        "calib_rows": 15, "calib_cols": 15, "test_rows": 12,
        "test_cols": 12}}).build_bundle()
    path, longer = tmp_path / "data.jsonl", tmp_path / "longer.jsonl"
    save_dataset(bundle, path)
    assert load_dataset(path).n_records == 1845
    assert _traced_peak(lambda: load_dataset(path)) <= 1e6
    sidecar(path).unlink()      # parsed
    assert load_dataset(path).n_records == 1845
    assert _traced_peak(lambda: load_dataset(path)) <= 1e6

    header, *records = path.read_bytes().splitlines()
    longer.write_bytes(b"\n".join([header, *records * 10]) + b"\n")
    loaded = load_dataset(longer).bundle
    arrays = sum(getattr(group, f.name).nbytes
                 for groups in (loaded.calibration, loaded.test)
                 for group in groups.values() for f in fields(SampleColumns))
    assert arrays == 18450 * 10 * 8
    assert _traced_peak(lambda: load_dataset(longer)) < 5 * arrays
    assert _traced_peak(lambda: save_dataset(loaded, tmp_path / "out")) < (
        2.5 * arrays)


# ── column sidecar ───────────────────────────────────────────────────────
# save_dataset writes PATH.cols beside PATH: the SHA-256 of PATH's bytes,
# then an np.save payload of the (N, 12) float table _read_records builds
# from them.  A load whose digest matches takes the table; any other
# sidecar is passed over and the file parsed, with the same result or
# error.

@pytest.fixture()
def parses(monkeypatch):
    """The loads that parsed their file, as a list growing by one each."""
    calls = []
    read = dataset_io._read_records
    monkeypatch.setattr(dataset_io, "_read_records",
                        lambda fh: calls.append(fh.name) or read(fh))
    return calls


def _sidecar_oracle(path):
    """The sidecar of the dataset file `path` as the format describes it,
    built from the file's bytes with json.loads, one line at a time."""
    data = path.read_bytes()
    table = np.array([
        [*r["pupil_px"], *(r.get("pupil_pose") or [math.nan] * 3),
         *r["target_scene_m"], *(r.get("target_px") or [math.nan] * 2),
         r["depth_label"], r["role"] == "test"]
        for r in map(json.loads, data.splitlines()[1:])],
        dtype=float).reshape(-1, 12)
    payload = io.BytesIO()
    np.save(payload, table, allow_pickle=False)
    return hashlib.sha256(data).digest() + payload.getvalue()


def _deep_bits(value):
    """`value` as nested tuples: every dataclass by its fields, every
    mapping in its order, every float and array by its bits."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", np.float64(value).tobytes())
    if is_dataclass(value):
        return (type(value).__name__, *(
            (f.name, _deep_bits(getattr(value, f.name)))
            for f in fields(value)))
    if isinstance(value, Mapping):
        return tuple((_deep_bits(k), _deep_bits(v)) for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return tuple(map(_deep_bits, value))
    return (type(value).__name__, value)


def _count(bundle):
    return sum(len(columns) for groups in (bundle.calibration, bundle.test)
               for columns in groups.values())


# the unit poses of an int column
_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1))
# missing rows hold a quiet NaN of either sign, with a payload, or
# float32's
_NANS = (np.nan, -np.nan, np.uint64(0x7FF8000000000001).view(float),
         np.float32("nan"))


@st.composite
def _saved_columns(draw):
    """A SampleColumns save_dataset accepts: every field float64,
    float32 or int64, with edge values, and pupil_pose and target_px
    missing in some rows."""
    n = draw(st.integers(0, 6))

    def column(width, unit=False, optional=False):
        kind = draw(st.sampled_from(("float64", "float32", "int64")))
        if unit and kind == "int64":
            values = np.array(draw(st.lists(st.sampled_from(_AXES),
                                            min_size=n, max_size=n)),
                              dtype=np.int64).reshape(n, 3)
        elif unit:
            raw = np.array(draw(st.lists(st.tuples(*[st.floats(-1, 1)] * 3)
                                         .filter(lambda v: np.linalg.norm(v)
                                                 > 0.1),
                                         min_size=n, max_size=n)),
                           dtype=float).reshape(n, 3)
            values = (raw / np.linalg.norm(raw, axis=1)[:, None]).astype(
                kind)
        else:
            element = (st.integers(-2 ** 63, 2 ** 63 - 1) if kind == "int64"
                       else st.floats(allow_nan=False, allow_infinity=False,
                                      width=32 if kind == "float32" else 64))
            values = np.array(draw(st.lists(element, min_size=n * width,
                                            max_size=n * width)),
                              dtype=kind).reshape(n, width)
        missing = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        if optional and any(missing):
            if kind == "int64":
                values = values.astype(float)
            values[np.array(missing)] = draw(st.sampled_from(_NANS))
        return values

    return SampleColumns(pupil_px=column(2), pupil_pose=column(3, unit=True,
                                                               optional=True),
                         target=column(3), target_px=column(2, optional=True))


_SAVED_BUNDLES = st.builds(
    lambda calibration, test: DatasetBundle(
        calibration=calibration, test=test, rig=SimRig(), eye=TwoSphereEye()),
    *[st.dictionaries(st.sampled_from((1.0, 0.5, 2, np.float64(2.5), 1e-3)),
                      _saved_columns(), max_size=3)] * 2)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(bundle=_SAVED_BUNDLES, source=st.sampled_from(("simulated",
                                                      "recorded")))
def test_a_load_from_the_sidecar_equals_a_parse(tmp_path_factory, bundle,
                                                source):
    """For a bundle save_dataset accepts, a load that takes the sidecar
    and one that parses the file give the same result, bit for bit: every
    column, the groups' order and keys, the counts, the source, the rig
    and the eye.  The sidecar is the format's bytes, and two saves write
    the same ones."""
    directory = tmp_path_factory.mktemp("sidecar")
    path = directory / "data.jsonl"
    save_dataset(bundle, path, source=source)
    first = sidecar(path).read_bytes()
    save_dataset(bundle, path, source=source)
    assert sidecar(path).read_bytes() == first == _sidecar_oracle(path)
    with mock.patch.object(dataset_io, "_read_records",
                           side_effect=dataset_io._read_records) as parse:
        taken = load_dataset(path)
        assert not parse.called
        sidecar(path).unlink()
        parsed = load_dataset(path)
        assert parse.call_count == 1
    assert _deep_bits(taken) == _deep_bits(parsed)
    assert list(directory.iterdir()) == [path]    # no temporary file left


def test_a_fresh_save_loads_from_its_sidecar(bundle, saved_path, parses):
    loaded = load_dataset(saved_path)
    assert parses == []
    assert sidecar(saved_path).read_bytes() == _sidecar_oracle(saved_path)
    _assert_same_groups(loaded.bundle, bundle)


def _table(path):
    """The digest and the table of the sidecar of `path`."""
    data = sidecar(path).read_bytes()
    return data[:32], np.load(io.BytesIO(data[32:]), allow_pickle=False)


def _npy(array, **kwargs):
    out = io.BytesIO()
    np.lib.format.write_array(out, array, **kwargs)
    return out.getvalue()


_BAD_SIDECARS = {
    "empty": lambda data, digest, table: b"",
    "digest-only": lambda data, digest, table: data[:32],
    "cut-in-npy-header": lambda data, digest, table: data[:60],
    "one-byte-short": lambda data, digest, table: data[:-1],
    "one-byte-over": lambda data, digest, table: data + b"\0",
    "garbage": lambda data, digest, table: bytes(range(256)) * 8,
    "other-digest": lambda data, digest, table: (
        hashlib.sha256(b"other").digest() + data[32:]),
    "eleven-columns": lambda data, digest, table: digest + _npy(
        np.ascontiguousarray(table[:, :11])),
    "one-dimensional": lambda data, digest, table: digest + _npy(
        table.ravel()),
    "float32": lambda data, digest, table: digest + _npy(
        table.astype(np.float32)),
    "big-endian": lambda data, digest, table: digest + _npy(
        table.astype(">f8")),
    "fortran-order": lambda data, digest, table: digest + _npy(
        np.asfortranarray(table)),
    "npy-version-2": lambda data, digest, table: digest + _npy(
        table, version=(2, 0)),
    "pickled": lambda data, digest, table: digest + _npy(
        table.astype(object), allow_pickle=True),
}


@pytest.mark.parametrize("make", _BAD_SIDECARS.values(), ids=_BAD_SIDECARS)
def test_a_bad_sidecar_is_passed_over(saved_path, parses, make):
    want = _deep_bits(load_dataset(saved_path))
    bad = make(sidecar(saved_path).read_bytes(), *_table(saved_path))
    sidecar(saved_path).write_bytes(bad)
    assert _deep_bits(load_dataset(saved_path)) == want
    assert parses == [str(saved_path)]
    assert sidecar(saved_path).read_bytes() == bad     # left as it was


def test_a_missing_sidecar_or_a_directory_there_is_passed_over(
        saved_path, parses):
    want = _deep_bits(load_dataset(saved_path))
    sidecar(saved_path).unlink()
    assert _deep_bits(load_dataset(saved_path)) == want
    assert not sidecar(saved_path).exists()      # a load writes none
    sidecar(saved_path).mkdir()
    assert _deep_bits(load_dataset(saved_path)) == want
    assert parses == [str(saved_path)] * 2


def test_a_stale_sidecar_is_passed_over(bundle, saved_path, parses):
    # the last digit of the first record's first pupil_px entry changed
    # in place: the same length, another value
    kept = sidecar(saved_path).read_bytes()
    data = saved_path.read_bytes()
    at = data.index(b",", data.index(b'"pupil_px":[')) - 1
    data = data[:at] + (b"1" if data[at:at + 1] == b"2" else b"2") + data[
        at + 1:]
    saved_path.write_bytes(data)
    loaded = load_dataset(saved_path)
    assert parses == [str(saved_path)]
    first = loaded.bundle.calibration[1.0].pupil_px[0, 0]
    assert first != bundle.calibration[1.0].pupil_px[0, 0]
    assert first == json.loads(data.splitlines()[1])["pupil_px"][0]
    assert sidecar(saved_path).read_bytes() == kept
    sidecar(saved_path).unlink()
    assert _deep_bits(load_dataset(saved_path)) == _deep_bits(loaded)


@pytest.mark.parametrize("edit, error", [
    (lambda data: data.replace(b'"role":"test"', b'"role":"tezt"', 1),
     "line 27: role must be 'calibration' or 'test', got 'tezt'"),
    (lambda data: data.replace(b"gaze3d/1", b"gaze3d/9", 1),
     "unsupported schema 'gaze3d/9' (this reader supports 'gaze3d/1')"),
    (lambda data: data.split(b"\n", 1)[0] + b"\n\n",
     "line 2: blank line inside dataset"),
], ids=["bad-record", "bad-header", "blank-line"])
def test_a_stale_sidecar_gives_the_parse_error(saved_path, edit, error):
    saved_path.write_bytes(edit(saved_path.read_bytes()))
    with pytest.raises(ValueError) as err:
        load_dataset(saved_path)
    assert str(err.value) == error


def test_a_sidecar_is_only_read_beside_its_own_file(saved_path, tmp_path,
                                                    parses):
    # the same bytes under another name load from their own sidecar only
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(saved_path.read_bytes())
    want = _deep_bits(load_dataset(saved_path))
    assert _deep_bits(load_dataset(copy)) == want
    assert parses == [str(copy)]


@pytest.mark.parametrize("fail", ["tempfile.mkstemp", "os.replace",
                                  "os.chmod"])
def test_a_sidecar_that_cannot_be_written_is_left_out(bundle, saved_path,
                                                      tmp_path, parses,
                                                      fail):
    # a stale sidecar from the last save stays; its digest is not the
    # new file's
    other = replace(bundle, test={})
    kept = sidecar(saved_path).read_bytes()

    def refuse(*args, **kwargs):
        raise OSError(28, "No space left on device")

    with mock.patch(fail, refuse):
        assert save_dataset(other, saved_path) is None
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "data.jsonl", "data.jsonl.cols"]     # no temporary file left
    assert sidecar(saved_path).read_bytes() == kept
    assert load_dataset(saved_path).n_records == _count(other)
    assert parses == [str(saved_path)]


def test_a_directory_at_the_sidecar_path_is_left_alone(bundle, tmp_path):
    path = tmp_path / "data.jsonl"
    sidecar(path).mkdir()
    save_dataset(bundle, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "data.jsonl", "data.jsonl.cols"]
    assert sidecar(path).is_dir() and not any(sidecar(path).iterdir())
    assert load_dataset(path).n_records == _count(bundle)


def test_a_file_descriptor_gets_no_sidecar(bundle, tmp_path, parses):
    path = tmp_path / "data.jsonl"
    save_dataset(bundle, os.open(path, os.O_WRONLY | os.O_CREAT, 0o644))
    assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]
    save_dataset(bundle, tmp_path / "named.jsonl")
    assert path.read_bytes() == (tmp_path / "named.jsonl").read_bytes()
    load_dataset(os.open(path, os.O_RDONLY))
    assert len(parses) == 1


def test_the_sidecar_takes_the_file_mode(bundle, tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"")
    path.chmod(0o640)
    save_dataset(bundle, path)
    assert stat.S_IMODE(sidecar(path).stat().st_mode) == 0o640


@pytest.mark.parametrize("field, dtype, shown", [
    ("pupil_px", bool, r"\[True, True\]"),
    ("target_px", complex, r"\[\(496\+0j\), \(278\.568\+0j\)\]"),
    ("target", object, "an array of dtype object"),
])
def test_save_refuses_columns_that_are_not_real_numbers(bundle, tmp_path,
                                                         field, dtype, shown):
    # a bool column was written as [true,true], which load_dataset
    # rejects; a complex one left a header-only file that loaded as 0
    # records
    group = bundle.calibration[1.0]
    bad = replace(bundle, calibration={**bundle.calibration, 1.0: replace(
        group, **{field: getattr(group, field).astype(dtype)})})
    key = {"target": "target_scene_m"}.get(field, field)
    width = 3 if field == "target" else 2
    new, existing = tmp_path / "new.jsonl", tmp_path / "existing.jsonl"
    save_dataset(bundle, existing)
    before = existing.read_bytes(), sidecar(existing).read_bytes()
    for path in (new, existing):
        with pytest.raises(ValueError, match=rf"^cannot save calibration "
                           rf"record 0 at depth 1\.0: field '{key}' must be "
                           rf"{width} finite numbers, got {shown}$"):
            save_dataset(bad, path)
    assert not new.exists() and not sidecar(new).exists()
    assert (existing.read_bytes(), sidecar(existing).read_bytes()) == before


@pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(float).max,
                    reason="longdouble is float here")
def test_save_refuses_a_longdouble_beyond_float_range(bundle, tmp_path):
    # it was written as inf, which load_dataset rejects
    group = bundle.test[1.5]
    target = group.target.astype(np.longdouble)
    target[2, 1] = np.longdouble("1e400")
    bad = replace(bundle, test={**bundle.test, 1.5: replace(group,
                                                            target=target)})
    with pytest.raises(ValueError, match=r"^cannot save test record 2 at "
                       r"depth 1\.5: field 'target_scene_m' must be 3 finite "
                       r"numbers, got "):
        save_dataset(bad, tmp_path / "data.jsonl")
    assert not any(tmp_path.iterdir())


def test_saving_one_large_group_is_bounded(tmp_path):
    # A one-group bundle of 10,000 records (a 100x100 calibration grid
    # at 1.5 m) peaked at 7.82 MB traced for 0.80 MB of arrays (9.8x)
    # while a whole group's text was built for one write; written and
    # tabled _CHUNK_LINES rows at a time, it is held to the bound of
    # test_dataset_io_transient_memory_is_bounded's save.
    bundle = replace(ExperimentConfig.from_dict({
        "depths": [1.5], "grid": {"calib_rows": 100, "calib_cols": 100}})
        .build_bundle(), test={})
    arrays = sum(getattr(bundle.calibration[1.5], f.name).nbytes
                 for f in fields(SampleColumns))
    assert arrays == 10000 * 10 * 8
    path = tmp_path / "data.jsonl"
    assert _traced_peak(lambda: save_dataset(bundle, path)) < 2.5 * arrays
    assert load_dataset(path).n_records == 10000
    assert sidecar(path).read_bytes() == _sidecar_oracle(path)


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
     "focal must be 2 finite numbers > 0, got [nan, 720.0]"),
    ("eye_camera", ("translation", 2), math.inf, "bad eye_camera in header: "
     "translation must be 3 finite numbers, got [0.015, 0.035, inf]"),
    # float() took these, and a bool or string e_gt shifted every error
    ("e_gt", (0,), True, "bad rig in header: e_gt must be 3 finite "
     "numbers, got [True, 0.035, -0.025]"),
    ("e_gt", (0,), "0.015", "bad rig in header: e_gt must be 3 finite "
     "numbers, got ['0.015', 0.035, -0.025]"),
    # a zero resolution loaded, and fit printed LAPACK lines and a
    # LinAlgError
    ("eye_camera", ("resolution",), [0, 0], "bad eye_camera in header: "
     "resolution must be 2 finite numbers > 0, got [0, 0]"),
    ("eye_camera", ("resolution", 0), True, "bad eye_camera in header: "
     "resolution must be 2 finite numbers > 0, got [True, 360.0]"),
    ("scene_camera", ("focal", 1), "720", "bad scene_camera in header: "
     "focal must be 2 finite numbers > 0, got [720.0, '720']"),
    ("eye_camera", ("rotation", 4), False, "bad eye_camera in header: "
     "rotation must be 3x3 finite numbers, got [[-1.0, 0.0, "
     "1.2246467991473532e-16], [0.0, False, 0.0], "
     "[-1.2246467991473532e-16, 0.0, -1.0]]"),
    # an integer beyond float range raised OverflowError past load_dataset
    ("e_gt", (1,), 10**400, f"bad rig in header: e_gt must be 3 finite "
     f"numbers, got [0.015, {10**400}, -0.025]"),
    ("noise", ("target_mm",), 10**400, f"bad rig in header: "
     f"noise_target_mm must be a finite number >= 0, got {10**400}"),
    ("scene_camera", ("focal", 0), 10**400, f"bad scene_camera in header: "
     f"focal must be 2 finite numbers > 0, got [{10**400}, 720.0]"),
    # a scaled or reflected rotation loaded and projected every point
    # to the wrong pixel
    ("scene_camera", ("rotation", 0), 2.0, "bad scene_camera in header: "
     "rotation must be orthonormal with determinant +1, got [[2.0, 0.0, "
     "0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]"),
    ("scene_camera", ("rotation", 8), -1.0, "bad scene_camera in header: "
     "rotation must be orthonormal with determinant +1, got [[1.0, 0.0, "
     "0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]"),
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
    # these two read "TwoSphereEye.__init__() got an unexpected keyword
    # argument 'bogus'" and "... argument after ** must be a mapping"
    ({"bogus": 1}, "unknown key 'bogus'"),
    ({"eyeball_radius_mm": 30.0}, "spheres R=30.0, r=7.8 at separation "
     "d=4.7 do not intersect"),
    ([11.5, 7.8, 4.7], "must be an object, got list"),
], ids=["nan", "infinity", "string", "unknown-key", "apart", "list"])
def test_header_with_a_bad_eye_model_rejected(dataset_path, eye, message):
    # these used to raise NoIntersection or TypeError, naming no line
    rewrite_line(dataset_path, 1, lambda line: json.dumps(
        {**json.loads(line), "eye_model_mm": eye}))
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert str(err.value) == f"line 1: bad eye_model_mm in header: {message}"


@pytest.mark.parametrize("key, edit, message", [
    # a camera without focal failed with the bare KeyError text "'focal'"
    ("scene_camera", lambda camera: camera.pop("focal"),
     "focal must be 2 finite numbers > 0, got None"),
    ("eye_camera", lambda camera: camera.pop("resolution"),
     "resolution must be 2 finite numbers > 0, got None"),
    # these loaded: an unknown key was ignored, and a config camera's
    # rotation_angles is not a header camera's key
    ("scene_camera", lambda camera: camera.update(bogus=1),
     "unknown key 'bogus'"),
    ("eye_camera", lambda camera: camera.update(rotation_angles=[0, 0, 0]),
     "unknown key 'rotation_angles'"),
    ("noise", lambda noise: noise.update(pupil_sigma=1.0),
     "unknown key 'pupil_sigma'"),
], ids=["no-focal", "no-resolution", "camera-unknown-key",
        "camera-rotation-angles", "noise-unknown-key"])
def test_header_sections_take_only_their_own_keys(dataset_path, key, edit,
                                                  message):
    def rewrite(line):
        header = json.loads(line)
        edit(header[key])
        return json.dumps(header)
    rewrite_line(dataset_path, 1, rewrite)
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert err.value.line == 1
    assert str(err.value) == f"line 1: bad {key} in header: {message}"


@pytest.mark.parametrize("key", ["scene_camera", "eye_camera",
                                 "eye_model_mm", "noise"])
def test_a_null_header_section_reads_as_the_default(dataset_path, tmp_path,
                                                    key):
    # as a null config section does; a null camera or noise section
    # failed with "must be an object, got NoneType".  The bundle was made
    # with the default rig and eye, so it saves to the same bytes.
    saved = dataset_path.read_bytes()
    rewrite_line(dataset_path, 1, lambda line: json.dumps(
        {**json.loads(line), key: None}))
    again = tmp_path / "again.jsonl"
    save_dataset(load_dataset(dataset_path).bundle, again)
    assert again.read_bytes() == saved


@pytest.mark.parametrize("key, value, kind", [
    ("noise", [1], "list"), ("scene_camera", [1], "list"),
    ("eye_camera", "x", "str")])
def test_header_sections_must_be_objects(dataset_path, key, value, kind):
    # these raised "AttributeError: 'list' object has no attribute 'get'"
    rewrite_line(dataset_path, 1, lambda line: json.dumps(
        {**json.loads(line), key: value}))
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert err.value.line == 1
    assert str(err.value) == (f"line 1: bad {key} in header: must be an "
                              f"object, got {kind}")


def test_header_units_must_be_the_declared_ones(dataset_path):
    rewrite_line(dataset_path, 1, lambda line: json.dumps(
        {**json.loads(line), "units": {"length": "mm"}}))
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert str(err.value) == "line 1: unsupported units {'length': 'mm'}"


@pytest.mark.parametrize("blank", [b"", b"  \t"], ids=["empty", "spaces"])
def test_blank_line_inside_dataset_names_its_line(dataset_path, blank):
    lines = dataset_path.read_bytes().split(b"\n")
    dataset_path.write_bytes(b"\n".join(lines[:2] + [blank] + lines[2:]))
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert str(err.value) == "line 3: blank line inside dataset"


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
    ("pupil_px", ["369.4", "145.9"],
     "field 'pupil_px' must be 2 finite numbers, got ['369.4', '145.9']"),
    ("pupil_px", [True, False],
     "field 'pupil_px' must be 2 finite numbers, got [True, False]"),
    ("depth_label", "1.0",
     "depth_label must be a finite number > 0, got '1.0'"),
    ("depth_label", True, "depth_label must be a finite number > 0, got True"),
], ids=["string-pixels", "boolean-pixels", "string-depth", "boolean-depth"])
def test_strings_and_booleans_are_not_numbers(dataset_path, field, value,
                                              message):
    set_fields(dataset_path, 3, **{field: value})
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert err.value.line == 3
    assert str(err.value) == f"line 3: {message}"


@pytest.mark.parametrize("change, message", [
    ({}, "depth_label must be a finite number > 0, got None"),
    ({"depth_label": 0}, "depth_label must be a finite number > 0, got 0"),
    ({"depth_label": -1.5},
     "depth_label must be a finite number > 0, got -1.5"),
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
     f"field 'pupil_px' must be 2 finite numbers, got [{10**400}, 145.9]"),
    ("depth_label", 10 ** 400,
     f"depth_label must be a finite number > 0, got {10**400}"),
    ("depth_label", float("inf"),
     "depth_label must be a finite number > 0, got inf"),
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
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert str(err.value) == ("line 3: field 'pupil_pose' must be 3 finite "
                              f"numbers, got {value}")


def test_earliest_of_two_bad_records_reported(dataset_path):
    original = dataset_path.read_text()
    set_fields(dataset_path, 7, pupil_px=["1.0", "2.0"])
    set_fields(dataset_path, 5, depth_label=-1.0)
    with pytest.raises(ParseError) as err:
        load_dataset(dataset_path)
    assert str(err.value) == ("line 5: depth_label must be a finite number "
                              "> 0, got -1.0")

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
        if mapper == "2d2d":    # a scene pixel; the others a Ray
            assert np.array_equal(a, b)
        else:
            assert np.array_equal(a.origin, b.origin)
            assert np.array_equal(a.direction, b.direction)


def test_a_fitted_half_turn_saves_and_loads(tmp_path):
    # the angle bound is rotation_from_angles' |a| <= pi + 1e-12, which a
    # noiseless 3d3d fit on the 1.0 and 2.0 m grids meets with b = pi
    bundle = default_bundle("display", depths=(1.0, 2.0))
    model = fit_mapper("3d3d", pooled(bundle.calibration, (1.0, 2.0)))
    assert model.angles[1] == math.pi
    path = tmp_path / "m.json"
    save_model(model, path)
    assert np.array_equal(load_model(path).angles, model.angles)


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


def test_model_file_names_the_line_of_a_bad_byte(bundle, tmp_path):
    # it was read as text, so a bad byte raised "UnicodeDecodeError:
    # 'utf-8' codec can't decode byte 0xff in position 95"
    path = tmp_path / "m.json"
    save_model(fit_mapper("2d2d", bundle.calibration[1.0]), path)
    data = path.read_bytes()
    lineno = data[:data.index(b'"2d2d"')].count(b"\n") + 1
    path.write_bytes(data.replace(b'"2d2d"', b'"2d\xff2d"'))
    with pytest.raises(ParseError) as err:
        load_model(path)
    assert str(err.value) == f"line {lineno}: bad UTF-8: invalid start byte"
    # a JSON error keeps its text
    path.write_bytes(data.replace(b'"2d2d"', b'x'))
    with pytest.raises(ParseError) as err:
        load_model(path)
    assert str(err.value) == f"line {lineno}: bad JSON: Expecting value"


def test_model_file_format_is_fixed(tmp_path):
    path = tmp_path / "m.json"
    save_model(Model3Dto3D(angles=(0.1, 3.0, -0.2), center=(0.01, 0, -0.02)),
               path)
    assert path.read_text() == json.dumps(
        {"angles_rad": [0.1, 3.0, -0.2], "center_m": [0.01, 0.0, -0.02],
         "format": "gaze3d-model/1", "mapper": "3d3d"}, indent=2) + "\n"
    with pytest.raises(TypeError, match="not a mapper model"):
        save_model(object(), path)


@pytest.mark.parametrize("model, message", [
    (Model2Dto3D(weights=np.zeros((7, 2)), center=(np.nan, 0.0, 0.0),
                 eye_resolution=(640.0, 360.0)),
     "model field 'center_m' must be 3 finite numbers, got [nan, 0.0, 0.0]"),
    (Model2Dto2D(weights=np.ones((6, 2)), eye_resolution=(640.0, 360.0)),
     "model field 'weights' must be 7x2 finite numbers, got "
     + str([[1.0, 1.0]] * 6)),
    (Model3Dto3D(angles=(4.0, 0.0, 0.0), center=(0.0, 0.0, 0.0)),
     "model field 'angles_rad' must be 3 finite numbers in [-pi, pi], "
     "got [4.0, 0.0, 0.0]"),
], ids=["nan-center", "six-weight-rows", "angle-above-pi"])
def test_save_model_refuses_what_load_model_rejects(tmp_path, model, message):
    # it wrote NaN, or a (6, 2) weight matrix, and load_model then failed
    path = tmp_path / "m.json"
    with pytest.raises(ValueError) as err:
        save_model(model, path)
    assert str(err.value) == f"cannot save model: {message}"
    assert not path.exists()


@pytest.mark.parametrize("mapper, key, value, message", [
    ("2d3d", "center_m", [float("nan"), 0.0, 0.0],
     "model field 'center_m' must be 3 finite numbers, got [nan, 0.0, 0.0]"),
    ("3d3d", "center_m", [0.0, 0.0, float("inf")],
     "model field 'center_m' must be 3 finite numbers, got [0.0, 0.0, inf]"),
    ("2d3d", "center_m", [0.0, 0.0],
     "model field 'center_m' must be 3 finite numbers, got [0.0, 0.0]"),
    ("2d2d", "weights", [[0.0, 0.0]] * 3, "model field 'weights' must be 7x2 "
     "finite numbers, got [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]"),
    ("2d3d", "weights", [[0.0, 0.0]] * 6 + [[0.0]], "model field 'weights' "
     "must be 7x2 finite numbers, got [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], "
     "[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0]]"),
    ("2d2d", "eye_resolution", "640x360", "model field 'eye_resolution' "
     "must be 2 finite numbers > 0, got '640x360'"),
    ("2d3d", "eye_resolution", [640, 10**400], f"model field "
     f"'eye_resolution' must be 2 finite numbers > 0, got [640, {10**400}]"),
    ("3d3d", "angles_rad", ["0.1", 0.0, 0.0], "model field 'angles_rad' "
     "must be 3 finite numbers in [-pi, pi], got ['0.1', 0.0, 0.0]"),
    ("2d2d", "weights", [[0.0, 0.0]] * 6 + [[True, 0.0]], "model field "
     "'weights' must be 7x2 finite numbers, got [[0.0, 0.0], [0.0, 0.0], "
     "[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [True, 0.0]]"),
    ("3d3d", "angles_rad", None, "model file missing field 'angles_rad'"),
    ("2d3d", "eye_resolution", [0, 360], "model field 'eye_resolution' "
     "must be 2 finite numbers > 0, got [0, 360]"),
    ("2d2d", "eye_resolution", [640.0, -360.0], "model field "
     "'eye_resolution' must be 2 finite numbers > 0, got [640.0, -360.0]"),
    # it loaded, and evaluate failed part way with AngleOutOfRange
    ("3d3d", "angles_rad", [4.0, 0.0, 0.0], "model field 'angles_rad' "
     "must be 3 finite numbers in [-pi, pi], got [4.0, 0.0, 0.0]"),
    ("3d3d", "angles_rad", [0.0, -3.1416, 0.0], "model field 'angles_rad' "
     "must be 3 finite numbers in [-pi, pi], got [0.0, -3.1416, 0.0]"),
], ids=["2d3d-center_m-value0-non-finite", "3d3d-center_m-value1-non-finite",
        r"2d3d-center_m-value2-must have shape \(3,\), got \(2,\)",
        r"2d2d-weights-value3-must have shape \(7, 2\)",
        "2d3d-weights-value4-not a numeric array",
        "2d2d-eye_resolution-640x360-not a numeric array",
        "2d3d-eye_resolution-value6-not a numeric array",
        "3d3d-angles_rad-value7-is not numeric",
        "2d2d-weights-value8-is not numeric",
        "3d3d-angles_rad-None-missing field",
        "2d3d-eye_resolution-value10-must be positive",
        "2d2d-eye_resolution-value11-must be positive",
        "3d3d-angles_rad-above-pi", "3d3d-angles_rad-below-minus-pi"])
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
    with pytest.raises(ParseError) as err:
        load_model(path)
    assert str(err.value) == message


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
    # the angle rule of a model file's angles_rad
    ("eye_camera", {**CAMERA, "rotation_angles": [0, 4.0, 0]}),
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
    with pytest.raises(ConfigError, match=f"^invalid lm: {name} "):
        ExperimentConfig.from_dict({"depths": [1.0, 2.0], "lm": lm})


@pytest.mark.parametrize("config, message", [
    ({"depths": [1.0, 2.0], "eye_model_mm": {"eyeball_radius_mm": math.nan}},
     "invalid eye_model_mm: eyeball_radius_mm must be a finite number > 0, "
     "got nan"),
    ({"grid": {"calib_rows": -3}},
     "invalid grid: calib_rows must be an integer from 2 to 1000, got -3"),
    # it loaded as a 1 rad turn about x
    ({"scene_camera": {**CAMERA, "rotation_angles": [True, math.pi, 0]}},
     "invalid scene_camera: rotation_angles must be 3 finite numbers in "
     "[-pi, pi], got [True, 3.141592653589793, 0]"),
    # it read "invalid eye_camera: angles [0, 4.0, 0] outside [-pi, pi]"
    ({"eye_camera": {**CAMERA, "rotation_angles": [0, 4.0, 0]}},
     "invalid eye_camera: rotation_angles must be 3 finite numbers in "
     "[-pi, pi], got [0, 4.0, 0]"),
    ({"grid": {"test_cols": 1001}},
     "invalid grid: test_cols must be an integer from 2 to 1000, got 1001"),
    ({"grid": {"calib_rows": 10**400}},
     f"invalid grid: calib_rows must be an integer from 2 to 1000, "
     f"got {10**400}"),
], ids=["eye", "grid", "camera-angles", "camera-angle-range", "grid-1001",
        "grid-huge"])
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


@pytest.mark.parametrize("data, message", [
    (b'{"seed": 1, "x\xff": 2}',
     "config line 1: bad UTF-8: invalid start byte"),
    (b'{"seed": 1,\n "x\xff": 2}',
     "config line 2: bad UTF-8: invalid start byte"),
    (b'{"seed": 1,\n\n "x": }', "config line 3: Expecting value"),
], ids=["utf8-line-1", "utf8-line-2", "json"])
def test_config_file_names_the_line_of_a_bad_byte(tmp_path, data, message):
    # it was read as text, so a bad byte raised "UnicodeDecodeError:
    # 'utf-8' codec can't decode byte 0xff in position 14"
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == message


@pytest.mark.parametrize("out", [True, 7, 1.5, ["a.jsonl"], {}])
def test_config_out_must_be_a_path_string(out):
    # open() took an int as a file descriptor: "out": true wrote the
    # dataset to stdout and closed it
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"out": out})
    assert str(err.value) == (f"out must be a path string or null, "
                              f"got {out!r}")
    for ok in (None, "a.jsonl", Path("a.jsonl")):
        assert ExperimentConfig(out=ok).out == ok


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
