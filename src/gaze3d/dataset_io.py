"""File formats, experiment configuration, and results export.

Dataset grammar (line-delimited JSON, extension-agnostic, ``.jsonl`` by
convention): line 1 is a header object carrying the schema version,
units, frame conventions, camera intrinsics and provenance; every
further line is one record::

    {"pupil_px": [u, v], "pupil_pose": [x, y, z] | null,
     "target_scene_m": [x, y, z], "target_px": [u, v] | null,
     "depth_label": <meters>, "role": "calibration" | "test"}

Lengths are meters, image coordinates pixels, angles radians.  Floats
are serialized with shortest round-trip repr and keys are sorted, so a
given dataset has exactly one byte representation: identical seeds give
byte-identical files and a load/save cycle is lossless.  Numeric fields
hold JSON numbers; numeric strings and booleans are rejected.

Files are JSON Lines: UTF-8, and each line ends at "\n" (a "\r" before
it is JSON whitespace, so CRLF files load).  Records are parsed per
column: load_dataset decodes each line with orjson.loads into six field
columns, checks every column at once (entry counts, numeric types,
finiteness, unit poses, roles, positive depths), and groups the rows by
(role, depth) with one stable sort, so each group keeps file order.
Each group becomes the SampleColumns of a DatasetBundle, keyed by its
depth_label, with a row of NaN for a null channel.  _VECTOR_FIELDS maps
each record key to its SampleColumns field, whose width and optional
flag are SampleColumns' own.  One decoder, _decode, reads a line that
orjson rejects: as strict UTF-8, with json.loads, which sets the
grammar (both read every number to the same float).  Only if a column
check fails does load_dataset check record by record (_check_record,
which decodes with _decode), in file order, so the error names the
first bad line.  load_dataset returns the bundle with its provenance
and counts, as a LoadedDataset.
save_dataset writes each group from its columns, with the group's key
as each record's depth_label and a NaN row as null, and refuses a NaN
or infinity, which the loader would reject, before it opens the file.

Results CSV: one header line, then one row per ErrorRecord with the
columns ``mapper,k,calib_subset,test_depth_m,n_targets,mean_error_deg,
std_error_deg,status`` (calib_subset semicolon-joined, std is the
population std), ordered by mapper, k, subset, test depth.  Failed fits
keep their row with empty error fields.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, fields, replace
from itertools import chain, compress
from operator import itemgetter

import numpy as np

from .eye_simulator import (
    _OPTIONAL,
    _WIDTHS,
    DEFAULT_DEPTHS,
    DEFAULT_E_GT,
    GRID_PRESETS,
    DatasetBundle,
    GridSpec,
    NoIntersection,
    SampleColumns,
    SimRig,
    TwoSphereEye,
    synthesize_dataset,
)
from .evaluation import SweepResult
from .geometry import PinholeCamera, dot_norms, is_number, rotation_from_angles
from .mappers import (
    MAPPER_IDS,
    MappingConfig,
    Model2Dto2D,
    Model2Dto3D,
    Model3Dto3D,
    mapper_of,
)
from .optimizer import LMSettings

SCHEMA_VERSION = "gaze3d/1"
MODEL_FORMAT = "gaze3d-model/1"

_UNITS = {"length": "m", "pixel": "px", "angle": "rad"}
_FRAMES = {
    "scene": "x right, y down, z forward; origin at the scene camera",
    "eye": "pupil_pose is a unit direction in the eye-camera frame",
}


class ParseError(ValueError):
    """Malformed dataset/model file; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None
                         else message)


class SchemaVersionMismatch(ValueError):
    """Dataset declares a schema version this reader does not support."""


class UnitViolation(ValueError):
    """A record violates the declared units (non-unit pupil_pose)."""

    def __init__(self, message, record_index=None):
        self.record_index = record_index
        super().__init__(message)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _floats(x):
    return [float(v) for v in np.asarray(x, dtype=float).ravel()]


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# datasets

def _camera_to_dict(cam: PinholeCamera) -> dict:
    return {"focal": _floats(cam.focal), "principal": _floats(cam.principal),
            "resolution": _floats(cam.resolution),
            "rotation": _floats(cam.rotation),
            "translation": _floats(cam.translation)}


def _camera_from_dict(d, what) -> PinholeCamera:
    try:    # reshaped as objects, so the camera checks the entries as read
        rotation = np.asarray(d.get("rotation", np.eye(3).ravel()),
                              dtype=object).reshape(3, 3)
        return PinholeCamera(focal=d["focal"], principal=d["principal"],
                             resolution=d["resolution"], rotation=rotation,
                             translation=d.get("translation", (0.0, 0.0, 0.0)))
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"bad {what} in header: {err}", line=1) from err


# JSON numbers as json.loads returns them; bool (an int subclass) and
# numeric strings are not numbers here.
_NUMBER_TYPES = frozenset((int, float))
_ROLES = ("calibration", "test")
# each vector field as (record key, SampleColumns field), in the order
# _check_record and _check_saved_finite check them; the field's width
# and whether it may be null are SampleColumns' (_WIDTHS, _OPTIONAL)
_VECTOR_FIELDS = (("pupil_px", "pupil_px"), ("pupil_pose", "pupil_pose"),
                  ("target_scene_m", "target"), ("target_px", "target_px"))
_RECORD_KEYS = (*(key for key, _ in _VECTOR_FIELDS), "depth_label", "role")
_RECORD_FIELDS = itemgetter(*_RECORD_KEYS)


def _decode(raw):
    """The record on one line (bytes, without its newline), or the
    reason the line is bad as a str.  orjson decodes; a line it rejects
    (NaN and Infinity, numbers beyond float range, lone surrogate
    escapes, bad UTF-8) is read as strict UTF-8 and json decides, which
    sets the grammar: both read every number to the same float."""
    import orjson       # see _record_columns

    try:
        record = orjson.loads(raw)
    except orjson.JSONDecodeError:
        try:
            text = raw.decode("utf-8")
            if not text.strip():
                return "blank line inside dataset"
            record = json.loads(text)
        except UnicodeDecodeError as err:
            return f"bad UTF-8: {err.reason}"
        except json.JSONDecodeError as err:
            return f"bad JSON: {err.msg}"
    if type(record) is not dict:
        return "record is not an object"
    return record


def _vec(record, key, name, lineno):
    value = record.get(key)
    if value is None:
        if name in _OPTIONAL:
            return None
        raise ParseError(f"missing field {key!r}", line=lineno)
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as err:
        raise ParseError(f"field {key!r} is not numeric: {err}",
                         line=lineno) from err
    except OverflowError as err:     # a JSON integer beyond float range
        raise ParseError(f"field {key!r} has a number out of float range",
                         line=lineno) from err
    width = _WIDTHS[name]
    if arr.shape != (width,):
        raise ParseError(f"field {key!r} must have {width} entries",
                         line=lineno)
    for v in value:
        if type(v) not in _NUMBER_TYPES:
            raise ParseError(f"field {key!r} is not numeric: {v!r}",
                             line=lineno)
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"field {key!r} contains non-finite values",
                         line=lineno)
    return arr


def _check_record(raw, idx):
    """Decode and check the record on line idx + 2, raising the error
    load_dataset reports for it.  This is the per-record rule that
    load_dataset's column checks apply to all records at once; it runs
    only when those fail, to find and word the first bad record."""
    lineno = idx + 2
    record = _decode(raw)
    if type(record) is not dict:
        raise ParseError(record, line=lineno)
    _, pose, _, _ = [_vec(record, key, name, lineno)
                     for key, name in _VECTOR_FIELDS]
    if pose is not None:
        norm = float(np.linalg.norm(pose))
        if abs(norm - 1.0) > 1e-6:
            raise UnitViolation(
                f"record {idx} (line {lineno}): pupil_pose norm "
                f"{norm:.8g} is not unit", record_index=idx)
    role = record.get("role")
    if role not in _ROLES:
        raise ParseError(f"role must be 'calibration' or 'test', "
                         f"got {role!r}", line=lineno)
    depth = record.get("depth_label")
    if type(depth) not in _NUMBER_TYPES:
        raise ParseError("missing or non-numeric depth_label", line=lineno)
    try:
        depth = float(depth)
    except OverflowError as err:
        raise ParseError("depth_label out of float range",
                         line=lineno) from err
    if not np.isfinite(depth):
        raise ParseError(f"depth_label must be finite, got {depth}",
                         line=lineno)
    if depth <= 0:
        raise ParseError(f"depth_label must be positive, got {depth}",
                         line=lineno)


def _vector_rows(values, name):
    """Field `name` of each record as an (N, width) float array, NaN rows
    where an optional field is null; None unless each non-null value is
    a list of `width` finite JSON numbers (and, for a required field,
    none is null)."""
    width = _WIDTHS[name]
    present = None
    if name in _OPTIONAL and None in values:
        present = np.array([v is not None for v in values], dtype=bool)
        values = list(compress(values, present))
    if (set(map(type, values)) - {list} or set(map(len, values)) - {width}
            or set(map(type, chain.from_iterable(values))) - _NUMBER_TYPES):
        return None
    rows = np.fromiter(chain.from_iterable(values), dtype=float,
                       count=len(values) * width).reshape(-1, width)
    if not np.isfinite(rows).all():
        return None
    if present is None:
        return rows
    full = np.full((len(present), width), np.nan)
    full[present] = rows
    return full


def _record_columns(lines):
    """The records on `lines` as arrays in file order: their
    SampleColumns (an optional field's null rows NaN), their depths and
    the mask of test-role rows.  None if some record breaks a rule of
    _check_record."""
    # imported here, so that importing gaze3d and running sweeps, which
    # decode no dataset, do not load it
    import orjson

    try:    # each record is dropped once its fields are taken
        fields = list(map(_RECORD_FIELDS, map(orjson.loads, lines)))
    except (orjson.JSONDecodeError, KeyError, TypeError):
        # a line orjson rejects, a key left out (a null field may be) or
        # a record that is not an object: decode line by line
        records = list(map(_decode, lines))
        if any(type(record) is not dict for record in records):
            return None
        fields = [tuple(map(record.get, _RECORD_KEYS)) for record in records]
    *vectors, depths, roles = (zip(*fields) if fields
                               else [()] * len(_RECORD_KEYS))
    try:
        if set(roles) - set(_ROLES) or set(map(type, depths)) - _NUMBER_TYPES:
            return None
        depths = np.array(depths, dtype=float)
        by_field = {name: _vector_rows(values, name)
                    for values, (_, name) in zip(vectors, _VECTOR_FIELDS)}
    # unhashable roles; ints too large for a float
    except (TypeError, ValueError, OverflowError):
        return None
    if any(rows is None for rows in by_field.values()):
        return None
    columns = SampleColumns(**by_field)
    # a null pose's NaN row compares False
    if (np.any(depths <= 0) or not np.isfinite(depths).all()
            or np.any(np.abs(dot_norms(columns.pupil_pose) - 1.0) > 1e-6)):
        return None
    return columns, depths, np.fromiter(map("test".__eq__, roles),
                                        dtype=bool, count=len(roles))


def _group_columns(columns: SampleColumns, depths, is_test):
    """The rows of _record_columns' columns grouped by (role, depth) with
    one stable sort: two dicts, calibration and test, of depth ->
    SampleColumns, each group in file order and the groups of a role in
    the order they first appear in the file."""
    labels, index = np.unique(depths, return_inverse=True)
    keys = 2 * index + is_test
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    stops = np.append(starts[1:], len(keys)).tolist()
    arrays = [getattr(columns, f.name)[order] for f in fields(SampleColumns)]
    calibration, test = {}, {}
    for g in np.argsort(order[starts]).tolist():  # by first appearance
        start, stop = starts[g], stops[g]
        key = int(keys[start])
        group = test if key % 2 else calibration
        group[float(labels[key // 2])] = SampleColumns(
            *(rows[start:stop] for rows in arrays))
    return calibration, test


@dataclass(frozen=True)
class LoadedDataset:
    """A parsed dataset plus provenance and data-quality counters."""

    bundle: DatasetBundle
    source: str
    n_records: int
    missing_pose: int           # records unusable for 3D-to-3D fitting


def _check_saved_finite(columns: SampleColumns, role, depth):
    """Name the first record of a group, and its first field, holding a
    NaN or infinity, which load_dataset would reject."""
    bad = np.array([columns.present(name)
                    & ~np.isfinite(getattr(columns, name)).all(axis=1)
                    for _, name in _VECTOR_FIELDS])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        key = _VECTOR_FIELDS[int(np.argmax(bad[:, i]))][0]
        raise ValueError(f"cannot save {role} record {i} at depth {depth}: "
                         f"field {key!r} contains non-finite values")


def _json_rows(columns: SampleColumns, name):
    """The JSON text of field `name` of each row, as json writes it: a
    list of float reprs, or null where the field is missing."""
    rows = getattr(columns, name)
    texts = ([f"[{x!r},{y!r}]" for x, y in rows.tolist()] if rows.shape[1] == 2
             else [f"[{x!r},{y!r},{z!r}]" for x, y, z in rows.tolist()])
    present = columns.present(name)
    return texts if present.all() else [
        text if has else "null" for text, has in zip(texts, present.tolist())]


def _record_lines(columns: SampleColumns, role, depth):
    """The record lines of one (role, depth) group, in row order, as
    _json_line writes them (sorted keys, float reprs)."""
    depth = repr(float(depth))
    return [f'{{"depth_label":{depth},"pupil_pose":{pose},'
            f'"pupil_px":{pupil_px},"role":"{role}","target_px":{target_px},'
            f'"target_scene_m":{target}}}'
            for pose, pupil_px, target_px, target in zip(
                *(_json_rows(columns, name) for name in (
                    "pupil_pose", "pupil_px", "target_px", "target")))]


def save_dataset(bundle: DatasetBundle, path, source="simulated") -> None:
    """Write a DatasetBundle in the line-delimited format above, from the
    SampleColumns of each (role, depth) group: by depth, calibration
    before test, rows in order, each record's depth_label the group's
    key."""
    if source not in ("simulated", "recorded"):
        raise ValueError(f"unknown source {source!r}")
    rig, eye = bundle.rig, bundle.eye
    header = {
        "schema": SCHEMA_VERSION,
        "source": source,
        "units": _UNITS,
        "frames": _FRAMES,
        "scene_camera": _camera_to_dict(rig.scene_camera),
        "eye_camera": _camera_to_dict(rig.eye_camera),
        "e_gt": _floats(rig.e_gt),
        "eye_model_mm": {
            "eyeball_radius_mm": eye.eyeball_radius_mm,
            "corneal_radius_mm": eye.corneal_radius_mm,
            "center_separation_mm": eye.center_separation_mm,
        },
        "noise": {"pupil_px": rig.noise_pupil_px,
                  "pose_deg": rig.noise_pose_deg,
                  "target_mm": rig.noise_target_mm},
    }
    lines = [_json_line(header)]
    groups = (bundle.calibration, bundle.test)
    for depth in sorted(set().union(*groups)):
        for role, columns in zip(_ROLES, (g.get(depth) for g in groups)):
            if columns is not None:
                _check_saved_finite(columns, role, depth)
                lines += _record_lines(columns, role, depth)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path, require_calibration=False) -> LoadedDataset:
    """Parse and validate a dataset file.

    Records without pupil_pose load fine but are counted in
    ``missing_pose`` (they cannot feed the 3D-to-3D mapper).  With
    ``require_calibration`` the file must contain calibration records —
    used by commands that fit, so the error surfaces before any fit.
    """
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    if not lines[-1]:       # the file's last \n ends a line, not starts one
        lines.pop()
    if not lines:
        raise ParseError("empty file", line=1)

    try:
        header = json.loads(lines[0].decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ParseError(f"bad UTF-8: {err.reason}", line=1) from err
    except json.JSONDecodeError as err:
        raise ParseError(f"bad JSON: {err.msg}", line=1) from err
    if not isinstance(header, dict) or "schema" not in header:
        raise ParseError("first line must be a header object with a "
                         "'schema' field", line=1)
    if header["schema"] != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"unsupported schema {header['schema']!r} "
            f"(this reader supports {SCHEMA_VERSION!r})")
    if header.get("units", _UNITS) != _UNITS:
        raise ParseError(f"unsupported units {header.get('units')!r}", line=1)
    source = header.get("source", "recorded")

    scene_cam = (_camera_from_dict(header["scene_camera"], "scene_camera")
                 if "scene_camera" in header else None)
    eye_cam = (_camera_from_dict(header["eye_camera"], "eye_camera")
               if "eye_camera" in header else None)
    try:
        eye = TwoSphereEye(**header.get("eye_model_mm", {}))
    except (TypeError, ValueError) as err:
        raise ParseError(f"bad eye_model_mm in header: {err}",
                         line=1) from err
    noise = header.get("noise", {})
    rig_kwargs = dict(eye_camera=eye_cam,
                      noise_pupil_px=noise.get("pupil_px", 0.0),
                      noise_pose_deg=noise.get("pose_deg", 0.0),
                      noise_target_mm=noise.get("target_mm", 0.0))
    if scene_cam is not None:
        rig_kwargs["scene_camera"] = scene_cam
    if header.get("e_gt") is not None:
        rig_kwargs["e_gt"] = header["e_gt"]
    try:
        rig = SimRig(**rig_kwargs)
    except (TypeError, ValueError) as err:
        raise ParseError(f"bad rig in header: {err}", line=1) from err

    parsed = _record_columns(lines[1:])
    if parsed is None:
        for idx, raw in enumerate(lines[1:]):
            _check_record(raw, idx)
        raise RuntimeError("a record fails the column checks but not "
                           "_check_record")
    calibration, test = _group_columns(*parsed)

    if require_calibration and not calibration:
        raise ParseError("dataset contains no calibration records")
    bundle = DatasetBundle(calibration=calibration, test=test,
                           rig=rig, eye=eye)
    posed = parsed[0].present("pupil_pose")
    return LoadedDataset(bundle=bundle, source=source,
                         n_records=len(posed),
                         missing_pose=int(len(posed) - posed.sum()))


# --------------------------------------------------------------------------
# fitted models

# per mapper: its model class and the (attribute, file key, shape,
# whether every entry must be positive) of each array it stores
_MODEL_ARRAYS = {
    "2d2d": (Model2Dto2D, (("weights", "weights", (7, 2), False),
                           ("eye_resolution", "eye_resolution", (2,), True))),
    "2d3d": (Model2Dto3D, (("weights", "weights", (7, 2), False),
                           ("center", "center_m", (3,), False),
                           ("eye_resolution", "eye_resolution", (2,), True))),
    "3d3d": (Model3Dto3D, (("angles", "angles_rad", (3,), False),
                           ("center", "center_m", (3,), False))),
}


def save_model(model, path) -> None:
    """Serialize a fitted mapper model as a small JSON document."""
    mapper = mapper_of(model)
    doc = {"format": MODEL_FORMAT, "mapper": mapper}
    for attr, key, *_ in _MODEL_ARRAYS[mapper][1]:
        doc[key] = np.asarray(getattr(model, attr), dtype=float).tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _model_array(doc, key, shape, positive):
    """The array a model file holds under `key`: `shape` finite JSON
    numbers, all above zero if `positive`, or a ParseError naming the
    field."""
    if key not in doc:
        raise ParseError(f"model file missing field {key!r}")
    value = doc[key]
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as err:
        raise ParseError(f"model field {key!r} is not a numeric array") \
            from err
    if arr.shape != shape:
        raise ParseError(f"model field {key!r} must have shape {shape}, "
                         f"got {arr.shape}")
    entries = chain.from_iterable(value) if len(shape) == 2 else value
    if any(type(v) not in _NUMBER_TYPES for v in entries):
        raise ParseError(f"model field {key!r} is not numeric")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"model field {key!r} contains non-finite values")
    if positive and np.any(arr <= 0):
        raise ParseError(f"model field {key!r} must be positive, "
                         f"got {arr.tolist()}")
    return arr


def load_model(path):
    """Inverse of save_model; every array is checked for its shape and
    for finite numeric entries, and the eye resolution for positive
    ones."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ParseError(f"bad JSON: {err.msg}", line=err.lineno) from err
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ParseError(f"not a {MODEL_FORMAT} file")
    mapper = doc.get("mapper")
    if mapper not in MAPPER_IDS:        # a tuple: mapper may be unhashable
        raise ParseError(f"unknown mapper {mapper!r}")
    cls, arrays = _MODEL_ARRAYS[mapper]
    return cls(**{attr: _model_array(doc, key, shape, positive)
                  for attr, key, shape, positive in arrays})


# --------------------------------------------------------------------------
# results export

CSV_COLUMNS = ("mapper", "k", "calib_subset", "test_depth_m", "n_targets",
               "mean_error_deg", "std_error_deg", "status")


def _fmt(x) -> str:
    return repr(float(x))


def export_results_csv(sweep: SweepResult, path) -> None:
    """Write a SweepResult as CSV (schema in the module docstring).

    Row order is (mapper, k, calibration subset, test depth), so
    identical sweeps export byte-identically.
    """
    if not sweep.records:
        raise ValueError("empty sweep")
    rows = sorted(sweep.records,
                  key=lambda r: (r.mapper, r.k, r.calib_subset, r.test_depth))
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        ok = r.status == "ok"
        lines.append(",".join((
            r.mapper,
            str(r.k),
            ";".join(_fmt(d) for d in r.calib_subset),
            _fmt(r.test_depth),
            str(r.n_targets),
            _fmt(r.mean) if ok else "",
            _fmt(r.std) if ok else "",
            r.status,
        )))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# experiment configuration

_CAMERA_KEYS = {"focal", "principal", "resolution", "rotation_angles",
                "translation"}
_EYE_KEYS = {f.name for f in fields(TwoSphereEye)}
_GRID_KEYS = {f.name for f in fields(GridSpec)}
_LM_KEYS = {f.name for f in fields(LMSettings)}


def check_depths(depths) -> tuple:
    """`depths` as a tuple of floats, if it is a nonempty list of finite
    positive meters without duplicates; a ConfigError otherwise.  The
    one depth-list rule of configs and of every CLI command."""
    if (not isinstance(depths, (list, tuple, np.ndarray)) or not len(depths)
            or not all(is_number(d) and d > 0 for d in depths)):
        raise ConfigError(f"depths must be a nonempty list of finite "
                          f"positive meters, got {depths!r}")
    depths = tuple(float(d) for d in depths)
    if len(set(depths)) != len(depths):
        raise ConfigError("depths contains duplicates")
    return depths


def _check_keys(d, allowed, where):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown config key {where}.{key!r}")


def _camera(d) -> PinholeCamera:
    """The PinholeCamera of a config camera dict."""
    kwargs = {key: value for key, value in d.items()
              if key != "rotation_angles"}
    if "rotation_angles" in d:
        angles = np.asarray(d["rotation_angles"], dtype=object)
        if angles.shape != (3,) or not all(map(is_number, angles)):
            raise ValueError(f"rotation_angles must be 3 finite numbers, "
                             f"got {d['rotation_angles']!r}")
        kwargs["rotation"] = rotation_from_angles(d["rotation_angles"])
    return PinholeCamera(**kwargs)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; unknown keys are rejected, not ignored.

    Optional dict fields override defaults field-by-field: ``grid`` takes
    GridSpec fields, ``lm`` takes LMSettings fields, ``eye_model_mm``
    takes TwoSphereEye fields, and the camera dicts take focal /
    principal / resolution plus optional rotation_angles (radians) and
    translation.  The types built from the values (GridSpec, LMSettings,
    MappingConfig, ...) check them; their errors become ConfigErrors.
    """

    seed: int = 0
    depths: tuple = DEFAULT_DEPTHS
    mappers: tuple = MAPPER_IDS
    grid_preset: str = "display"
    grid: dict = None
    noise_pupil_px: float = 0.0
    noise_pose_deg: float = 0.0
    noise_target_mm: float = 0.0
    e_gt: tuple = DEFAULT_E_GT
    eye_model_mm: dict = None
    scene_camera: dict = None
    eye_camera: dict = None
    lm: dict = None
    normalize_residuals: bool = MappingConfig.normalize_residuals
    center_bounds_m: float = MappingConfig.center_bounds_m
    out: str = None

    def __post_init__(self):
        if (isinstance(self.seed, bool)
                or not isinstance(self.seed, numbers.Integral)
                or self.seed < 0):
            raise ConfigError(f"seed must be an integer >= 0, got "
                              f"{self.seed!r}")
        object.__setattr__(self, "depths", check_depths(self.depths))
        object.__setattr__(self, "mappers", tuple(self.mappers))
        if not self.mappers:
            raise ConfigError("mappers must be nonempty")
        for m in self.mappers:
            if m not in MAPPER_IDS:
                raise ConfigError(f"unknown mapper {m!r} "
                                  f"(choose from {', '.join(MAPPER_IDS)})")
        if self.grid_preset not in GRID_PRESETS:
            raise ConfigError(f"unknown grid_preset {self.grid_preset!r}")
        if self.grid is not None:
            _check_keys(self.grid, _GRID_KEYS, "grid")
        try:    # built here, so a bad grid fails before any synthesis
            object.__setattr__(self, "_grids", replace(
                GRID_PRESETS[self.grid_preset], **(self.grid or {})))
        except ValueError as err:
            raise ConfigError(f"invalid grid: {err}") from None
        if self.lm is not None:
            _check_keys(self.lm, _LM_KEYS, "lm")
        try:    # built here, so a bad lm block fails before any fit
            lm = LMSettings(**(self.lm or {}))
        except ValueError as err:
            raise ConfigError(f"invalid lm settings: {err}") from None
        if self.eye_model_mm is not None:
            _check_keys(self.eye_model_mm, _EYE_KEYS, "eye_model_mm")
        try:
            object.__setattr__(self, "_eye",
                               TwoSphereEye(**(self.eye_model_mm or {})))
        except NoIntersection as err:   # a ValueError too: caught first
            raise ConfigError(f"invalid eye_model_mm: {err}") from None
        except ValueError as err:       # the length it names
            raise ConfigError(f"eye_model_mm.{err}") from None
        cameras = {}
        for name in ("scene_camera", "eye_camera"):
            cam = getattr(self, name)
            if cam is not None:
                _check_keys(cam, _CAMERA_KEYS, name)
                for req in ("focal", "principal", "resolution"):
                    if req not in cam:
                        raise ConfigError(f"{name} needs {req!r}")
                try:
                    cameras[name] = _camera(cam)
                except (TypeError, ValueError) as err:
                    raise ConfigError(f"invalid {name}: {err}") from None
        try:    # built here, so a bad setting fails before any work
            object.__setattr__(self, "_mapping", MappingConfig(
                normalize_residuals=self.normalize_residuals,
                center_bounds_m=self.center_bounds_m, lm=lm))
            object.__setattr__(self, "_rig", SimRig(
                e_gt=self.e_gt, noise_pupil_px=self.noise_pupil_px,
                noise_pose_deg=self.noise_pose_deg,
                noise_target_mm=self.noise_target_mm, **cameras))
        except ValueError as err:
            raise ConfigError(str(err)) from err

    @classmethod
    def from_dict(cls, d) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        for key in d:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        try:
            return cls(**d)
        except (TypeError, ValueError) as err:
            if isinstance(err, ConfigError):
                raise
            raise ConfigError(str(err)) from err

    def override(self, **kwargs) -> "ExperimentConfig":
        """Copy with non-None overrides applied (CLI flags beat file)."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates)

    # -- builders ----------------------------------------------------------

    def to_rig(self) -> SimRig:
        return self._rig

    def to_mapping_config(self, eye_resolution) -> MappingConfig:
        return replace(self._mapping, eye_resolution=tuple(eye_resolution))

    def build_bundle(self) -> DatasetBundle:
        """Synthesize the dataset this configuration describes."""
        return synthesize_dataset(self._rig, self._eye, self.depths,
                                  self._grids, seed=self.seed)


def load_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON file (strict keys)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config line {err.lineno}: {err.msg}") from err
    return ExperimentConfig.from_dict(doc)
