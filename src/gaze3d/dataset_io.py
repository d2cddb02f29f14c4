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

Records are parsed per column: load_dataset reads each line with
json.loads into six field columns, checks every column at once (entry
counts, numeric types, finiteness, unit poses, roles, positive depths)
and gives each record row views of one float array per field.  Only if
a column check fails does it check record by record, in file order, so
the error names the first bad line.

Results CSV: one header line, then one row per ErrorRecord with the
columns ``mapper,k,calib_subset,test_depth_m,n_targets,mean_error_deg,
std_error_deg,status`` (calib_subset semicolon-joined, std is the
population std), ordered by mapper, k, subset, test depth.  Failed fits
keep their row with empty error fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from itertools import chain

import numpy as np

from .eye_simulator import (
    DEFAULT_DEPTHS,
    DEFAULT_E_GT,
    GRID_PRESETS,
    DatasetBundle,
    GridSpec,
    SimRig,
    TwoSphereEye,
    synthesize_dataset,
)
from .evaluation import SweepResult
from .geometry import PinholeCamera, dot_norms, rotation_from_angles
from .mappers import (
    MAPPER_IDS,
    MappingConfig,
    Model2Dto2D,
    Model2Dto3D,
    Model3Dto3D,
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
    try:
        rotation = np.asarray(d.get("rotation", np.eye(3).ravel()),
                              dtype=float).reshape(3, 3)
        return PinholeCamera(focal=d["focal"], principal=d["principal"],
                             resolution=d["resolution"], rotation=rotation,
                             translation=np.asarray(
                                 d.get("translation", (0.0, 0.0, 0.0)),
                                 dtype=float))
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"bad {what} in header: {err}", line=1) from err


# JSON numbers as json.loads returns them; bool (an int subclass) and
# numeric strings are not numbers here.
_NUMBER_TYPES = frozenset((int, float))
_ROLES = ("calibration", "test")
# the vector fields as (key, length, optional), in the order
# _check_record checks them
_VECTOR_FIELDS = (("pupil_px", 2, False), ("pupil_pose", 3, True),
                  ("target_scene_m", 3, False), ("target_px", 2, True))
_RECORD_KEYS = tuple(f[0] for f in _VECTOR_FIELDS) + ("depth_label", "role")


def _vec(record, key, length, lineno, optional=False):
    value = record.get(key)
    if value is None:
        if optional:
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
    if arr.shape != (length,):
        raise ParseError(f"field {key!r} must have {length} entries",
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
    """Parse and check the record on line idx + 2, raising the error
    load_dataset reports for it.  This is the per-record rule that
    load_dataset's column checks apply to all records at once; it runs
    only when those fail, to find and word the first bad record."""
    lineno = idx + 2
    if not raw.strip():
        raise ParseError("blank line inside dataset", line=lineno)
    try:
        record = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ParseError(f"bad JSON: {err.msg}", line=lineno) from err
    if not isinstance(record, dict):
        raise ParseError("record is not an object", line=lineno)
    _, pose, _, _ = [_vec(record, key, length, lineno, optional)
                     for key, length, optional in _VECTOR_FIELDS]
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


def _vector_rows(values, length, optional):
    """The non-null rows of one vector field as an (M, length) float
    array, or None unless each is a list of `length` finite JSON numbers
    (and, for a required field, none is null)."""
    if optional:
        values = [v for v in values if v is not None]
    if (set(map(type, values)) - {list} or set(map(len, values)) - {length}
            or set(map(type, chain.from_iterable(values))) - _NUMBER_TYPES):
        return None
    rows = np.fromiter(chain.from_iterable(values), dtype=float,
                       count=len(values) * length).reshape(-1, length)
    return rows if np.isfinite(rows).all() else None


def _record_columns(lines):
    """The six fields of the records on `lines` as columns in
    _RECORD_KEYS order: vectors as row views of one float array per
    field (None where an optional field is null), depth labels as floats.
    None if some record breaks a rule of _check_record."""
    records = []
    for raw in lines:
        try:
            record = json.loads(raw)
        except json.JSONDecodeError:
            return None
        if type(record) is not dict:
            return None
        records.append(tuple(map(record.get, _RECORD_KEYS)))
    *vectors, depths, roles = (zip(*records) if records
                               else [()] * len(_RECORD_KEYS))
    try:
        if set(roles) - set(_ROLES) or set(map(type, depths)) - _NUMBER_TYPES:
            return None
        depths = np.array(depths, dtype=float)
        arrays = [_vector_rows(values, length, optional)
                  for values, (_, length, optional)
                  in zip(vectors, _VECTOR_FIELDS)]
    # unhashable roles; ints too large for a float
    except (TypeError, ValueError, OverflowError):
        return None
    if (any(rows is None for rows in arrays) or np.any(depths <= 0)
            or not np.isfinite(depths).all()
            or np.any(np.abs(dot_norms(arrays[1]) - 1.0) > 1e-6)):
        return None
    columns = []
    for values, rows in zip(vectors, arrays):
        rows = iter(rows)
        columns.append([None if v is None else next(rows) for v in values])
    return (*columns, depths.tolist(), roles)


@dataclass(frozen=True)
class DataRecord:
    """One loaded observation (same measured channels as SimSample)."""

    pupil_px: np.ndarray
    pupil_pose: np.ndarray
    target: np.ndarray
    target_px: np.ndarray
    depth_label: float
    role: str


@dataclass(frozen=True)
class LoadedDataset:
    """A parsed dataset plus provenance and data-quality counters."""

    bundle: DatasetBundle
    source: str
    n_records: int
    missing_pose: int           # records unusable for 3D-to-3D fitting

    @property
    def calibration(self):
        return self.bundle.calibration

    @property
    def test(self):
        return self.bundle.test

    def depths(self):
        return self.bundle.depths()


def save_dataset(bundle: DatasetBundle, path, source="simulated") -> None:
    """Write a DatasetBundle in the line-delimited format above."""
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
    depths = sorted(set(bundle.calibration) | set(bundle.test))
    for depth in depths:
        for group in (bundle.calibration, bundle.test):
            for s in group.get(depth, []):
                pose = None if s.pupil_pose is None else s.pupil_pose.tolist()
                target_px = (None if s.target_px is None
                             else s.target_px.tolist())
                lines.append(_json_line({
                    "pupil_px": s.pupil_px.tolist(),
                    "pupil_pose": pose,
                    "target_scene_m": s.target.tolist(),
                    "target_px": target_px,
                    "depth_label": float(s.depth_label),
                    "role": s.role,
                }))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path, require_calibration=False) -> LoadedDataset:
    """Parse and validate a dataset file.

    Records without pupil_pose load fine but are counted in
    ``missing_pose`` (they cannot feed the 3D-to-3D mapper).  With
    ``require_calibration`` the file must contain calibration records —
    used by commands that fit, so the error surfaces before any fit.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)

    try:
        header = json.loads(lines[0])
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
    eye = TwoSphereEye(**header["eye_model_mm"]) if "eye_model_mm" in header \
        else TwoSphereEye()
    noise = header.get("noise", {})
    rig_kwargs = dict(eye_camera=eye_cam,
                      noise_pupil_px=noise.get("pupil_px", 0.0),
                      noise_pose_deg=noise.get("pose_deg", 0.0),
                      noise_target_mm=noise.get("target_mm", 0.0))
    if scene_cam is not None:
        rig_kwargs["scene_camera"] = scene_cam
    if header.get("e_gt") is not None:
        rig_kwargs["e_gt"] = np.asarray(header["e_gt"], dtype=float)
    try:
        rig = SimRig(**rig_kwargs)
    except (TypeError, ValueError) as err:
        raise ParseError(f"bad rig in header: {err}", line=1) from err

    columns = _record_columns(lines[1:])
    if columns is None:
        for idx, raw in enumerate(lines[1:]):
            _check_record(raw, idx)
        raise RuntimeError("a record fails the column checks but not "
                           "_check_record")
    calibration, test = {}, {}
    for pupil_px, pose, target, target_px, depth, role in zip(*columns):
        group = calibration if role == "calibration" else test
        group.setdefault(depth, []).append(DataRecord(
            pupil_px=pupil_px, pupil_pose=pose, target=target,
            target_px=target_px, depth_label=depth, role=role))

    if require_calibration and not calibration:
        raise ParseError("dataset contains no calibration records")
    bundle = DatasetBundle(calibration=calibration, test=test,
                           rig=rig, eye=eye)
    poses = columns[1]
    return LoadedDataset(bundle=bundle, source=source, n_records=len(poses),
                         missing_pose=sum(pose is None for pose in poses))


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
    if not isinstance(model, (Model2Dto2D, Model2Dto3D, Model3Dto3D)):
        raise TypeError(f"not a mapper model: {type(model).__name__}")
    doc = {"format": MODEL_FORMAT, "mapper": model.mapper_id}
    for attr, key, *_ in _MODEL_ARRAYS[model.mapper_id][1]:
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
_EYE_KEYS = {"eyeball_radius_mm", "corneal_radius_mm", "center_separation_mm"}
_GRID_KEYS = {f.name for f in fields(GridSpec)}
_LM_KEYS = {f.name for f in fields(LMSettings)}


def _check_keys(d, allowed, where):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown config key {where}.{key!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; unknown keys are rejected, not ignored.

    Optional dict fields override defaults field-by-field: ``grid`` takes
    GridSpec fields, ``lm`` takes LMSettings fields, ``eye_model_mm``
    takes TwoSphereEye fields, and the camera dicts take focal /
    principal / resolution plus optional rotation_angles (radians) and
    translation.
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
        object.__setattr__(self, "depths",
                           tuple(float(d) for d in self.depths))
        object.__setattr__(self, "mappers", tuple(self.mappers))
        if not self.depths or any(d <= 0 for d in self.depths):
            raise ConfigError("depths must be a nonempty list of positive "
                              "meters")
        if len(set(self.depths)) != len(self.depths):
            raise ConfigError("depths contains duplicates")
        if not self.mappers:
            raise ConfigError("mappers must be nonempty")
        for m in self.mappers:
            if m not in MAPPER_IDS:
                raise ConfigError(f"unknown mapper {m!r} "
                                  f"(choose from {', '.join(MAPPER_IDS)})")
        if self.grid_preset not in GRID_PRESETS:
            raise ConfigError(f"unknown grid_preset {self.grid_preset!r}")
        for name in ("noise_pupil_px", "noise_pose_deg", "noise_target_mm"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if len(tuple(self.e_gt)) != 3:
            raise ConfigError("e_gt must have 3 entries")
        if self.grid is not None:
            _check_keys(self.grid, _GRID_KEYS, "grid")
        if self.lm is not None:
            _check_keys(self.lm, _LM_KEYS, "lm")
        if self.eye_model_mm is not None:
            _check_keys(self.eye_model_mm, _EYE_KEYS, "eye_model_mm")
        for name in ("scene_camera", "eye_camera"):
            cam = getattr(self, name)
            if cam is not None:
                _check_keys(cam, _CAMERA_KEYS, name)
                for req in ("focal", "principal", "resolution"):
                    if req not in cam:
                        raise ConfigError(f"{name} needs {req!r}")

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

    def to_eye(self) -> TwoSphereEye:
        return TwoSphereEye(**(self.eye_model_mm or {}))

    def to_grids(self) -> GridSpec:
        base = GRID_PRESETS[self.grid_preset]
        return replace(base, **self.grid) if self.grid else base

    def _to_camera(self, d) -> PinholeCamera:
        kwargs = dict(focal=d["focal"], principal=d["principal"],
                      resolution=d["resolution"])
        if "rotation_angles" in d:
            kwargs["rotation"] = rotation_from_angles(d["rotation_angles"])
        if "translation" in d:
            kwargs["translation"] = np.asarray(d["translation"], dtype=float)
        return PinholeCamera(**kwargs)

    def to_rig(self) -> SimRig:
        kwargs = dict(e_gt=np.asarray(self.e_gt, dtype=float),
                      noise_pupil_px=self.noise_pupil_px,
                      noise_pose_deg=self.noise_pose_deg,
                      noise_target_mm=self.noise_target_mm)
        if self.scene_camera is not None:
            kwargs["scene_camera"] = self._to_camera(self.scene_camera)
        if self.eye_camera is not None:
            kwargs["eye_camera"] = self._to_camera(self.eye_camera)
        try:
            return SimRig(**kwargs)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    def to_lm(self) -> LMSettings:
        return LMSettings(**(self.lm or {}))

    def to_mapping_config(self, eye_resolution) -> MappingConfig:
        return MappingConfig(eye_resolution=tuple(eye_resolution),
                             normalize_residuals=self.normalize_residuals,
                             center_bounds_m=self.center_bounds_m,
                             lm=self.to_lm())

    def build_bundle(self) -> DatasetBundle:
        """Synthesize the dataset this configuration describes."""
        return synthesize_dataset(self.to_rig(), self.to_eye(), self.depths,
                                  self.to_grids(), seed=self.seed)


def load_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON file (strict keys)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config line {err.lineno}: {err.msg}") from err
    return ExperimentConfig.from_dict(doc)
