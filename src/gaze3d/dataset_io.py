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
byte-identical files and a load/save cycle is lossless.  save_dataset
gets repr's text from orjson, one call per column: orjson writes the
same shortest digits, and writes them as repr does for 0.0, -0.0 and
every 1e-4 <= |x| < 1e16, so only a row holding a value outside that
range (orjson's 0.00001 and 1e16 are repr's 1e-05 and 1e+16) is written
by repr itself.  Numeric fields hold JSON numbers; numeric strings and
booleans are rejected.  Every array of numbers read here (a record's
vectors, a header camera's fields and e_gt, a model file's arrays, a
config camera's rotation_angles) is checked by geometry.number_array and
every single number by geometry.check_number, so each rule has their one
wording; the readers add only the line or section and a missing-field
message.

Files are JSON Lines: UTF-8, and each line ends at "\n" (a "\r" before
it is JSON whitespace, so CRLF files load; a last line may lack its
"\n").  Both directions stream: a load holds the file's arrays and the
decoded records of one chunk of lines, a save the text and sidecar rows
of _CHUNK_LINES records, never the whole file's.  load_dataset reads the
header with one readline, then the records _CHUNK_LINES (256) lines at a
time (_read_records), each chunk parsed per column: it decodes each line
with orjson.loads into six field columns (with the cyclic garbage
collector off for the whole decode: a chunk's decoded records stay
alive until its columns are built, so a collection would traverse them
and free nothing) and checks every column at once (entry counts,
numeric types, finiteness, unit poses, roles, positive depths).  The
chunks' columns are joined once, and the rows grouped by
(role, depth) with one stable sort, so each group keeps file order.
Each group becomes the SampleColumns of a DatasetBundle, keyed by its
depth_label, with a row of NaN for a null channel.  _VECTOR_FIELDS maps
each record key to its SampleColumns field, whose width and optional
flag are SampleColumns' own.  One decoder, _decode, reads a line that
orjson rejects: as strict UTF-8, with json.loads, which sets the grammar
(both read every number to the same float).  Only if a chunk's column
checks fail does load_dataset check that chunk record by record
(_check_record, which decodes with _decode and applies number_array and
check_number), in file order; every rule is per record, so the chunks
before it hold no bad record and the error names the file's first bad
line.  load_dataset returns the bundle with its provenance and counts,
as a LoadedDataset.  save_dataset writes each group from its columns,
with the group's key as each record's depth_label and a NaN row as null,
one write per _CHUNK_LINES records after the header line, and refuses
what the loader would reject (a column that is not real numbers, a NaN
or infinity, a pupil_pose that is not unit within _UNIT_TOLERANCE) in
any group before it opens the file, as save_model refuses the arrays
load_model would reject.  A dataset header, a model file and a config
are read as bytes by one reader, _json_value, whose errors name the line
of the first bad byte or token.  A header's camera, eye_model_mm and
noise sections are read by the rule of a config's sections (_section):
an object (null is the default) with only its own keys, built by its
owning type, each error framed "line 1: bad <section> in header:
<reason>".

Column sidecar (_sidecar).  save_dataset also writes PATH.cols beside a
regular file PATH: the SHA-256 of the bytes written to PATH and the
table of rows _read_records builds from them.  After the header checks,
load_dataset gives _group_columns that table instead of the parsed rows
when the sidecar holds the file's digest, and otherwise parses as above.

Results CSV: one header line, then one row per ErrorRecord with the
columns ``mapper,k,calib_subset,test_depth_m,n_targets,mean_error_deg,
std_error_deg,status`` (calib_subset semicolon-joined, std is the
population std), ordered by mapper, k, subset, test depth.  Failed fits
keep their row with empty error fields.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from itertools import chain, compress, islice
from operator import itemgetter

import numpy as np

from . import _sidecar
from .eye_simulator import (
    _OPTIONAL,
    _WIDTHS,
    DEFAULT_DEPTHS,
    DEFAULT_E_GT,
    GRID_PRESETS,
    DatasetBundle,
    GridSpec,
    SampleColumns,
    SimRig,
    TwoSphereEye,
    check_depths,
    synthesize_dataset,
)
from .evaluation import SweepResult
from .geometry import (PinholeCamera, check_integer, check_number, dot_norms,
                       number_array, rotation_from_angles)
from .mappers import (
    MAPPER_IDS,
    MappingConfig,
    Model2Dto2D,
    Model2Dto3D,
    Model3Dto3D,
    check_mappers,
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


def _json_value(raw, error, json_reason="bad JSON: "):
    """The JSON value of the bytes `raw`, read as strict UTF-8: the one
    reader of dataset headers, model files and configs.  At the first bad
    byte or token it raises error(reason, line), with the line (from 1)
    that byte or token is on."""
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        raise error(f"bad UTF-8: {err.reason}", line) from err
    except json.JSONDecodeError as err:
        raise error(json_reason + err.msg, err.lineno) from err


# --------------------------------------------------------------------------
# datasets

# a header camera's keys (its rotation is the matrix's 9 entries), and
# the keys of its noise section with the SimRig field each sets
_HEADER_CAMERA_KEYS = {"focal", "principal", "resolution", "rotation",
                       "translation"}
_NOISE_FIELDS = {"pupil_px": "noise_pupil_px", "pose_deg": "noise_pose_deg",
                 "target_mm": "noise_target_mm"}


def _camera_to_dict(cam: PinholeCamera) -> dict:
    return {"focal": _floats(cam.focal), "principal": _floats(cam.principal),
            "resolution": _floats(cam.resolution),
            "rotation": _floats(cam.rotation),
            "translation": _floats(cam.translation)}


# JSON numbers as json.loads returns them; bool (an int subclass) and
# numeric strings are not numbers here.
_NUMBER_TYPES = frozenset((int, float))
# how far a pupil_pose norm may be from 1: the one unit rule of loading
# and saving
_UNIT_TOLERANCE = 1e-6
_ROLES = ("calibration", "test")
# each vector field as (record key, SampleColumns field), in the order
# _check_record and _check_saved check them; the field's width
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
        return number_array(value, (_WIDTHS[name],), f"field {key!r}")
    except ValueError as err:
        raise ParseError(str(err), line=lineno) from err


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
        if abs(norm - 1.0) > _UNIT_TOLERANCE:
            raise UnitViolation(
                f"record {idx} (line {lineno}): pupil_pose norm "
                f"{norm:.8g} is not unit", record_index=idx)
    role = record.get("role")
    if role not in _ROLES:
        raise ParseError(f"role must be 'calibration' or 'test', "
                         f"got {role!r}", line=lineno)
    try:
        check_number(record.get("depth_label"), "depth_label")
    except ValueError as err:
        raise ParseError(str(err), line=lineno) from err


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
            or np.any(np.abs(dot_norms(columns.pupil_pose) - 1.0)
                      > _UNIT_TOLERANCE)):
        return None
    return columns, depths, np.fromiter(map("test".__eq__, roles),
                                        dtype=bool, count=len(roles))


# record lines decoded at a time: a load holds the decoded records of one
# chunk, not of the whole file
_CHUNK_LINES = 256


def _read_records(fh):
    """The records on the lines left in the binary file `fh`, as
    _record_columns gives them for the whole file, decoded _CHUNK_LINES
    lines at a time.  A line is what binary line iteration yields, less
    one trailing b"\n".  Each rule of _record_columns is per record, so
    if a chunk fails, _check_record over its lines (with their indices
    in the file) raises the error of the file's first bad record."""
    import gc

    # a chunk's decoded records all live until its columns are built, so
    # a collection during the decode would traverse them and free nothing
    collecting = gc.isenabled()
    gc.disable()
    try:
        parts = []
        while True:
            lines = [line.removesuffix(b"\n")
                     for line in islice(fh, _CHUNK_LINES)]
            parsed = _record_columns(lines)
            if parsed is None:
                for idx, raw in enumerate(lines,
                                          len(parts) * _CHUNK_LINES):
                    _check_record(raw, idx)
                raise RuntimeError("a record fails the column checks but "
                                   "not _check_record")
            parts.append(parsed)
            if len(lines) < _CHUNK_LINES:
                break
    finally:
        if collecting:
            gc.enable()
    columns, depths, is_test = zip(*parts)
    return (SampleColumns.concatenate(columns), np.concatenate(depths),
            np.concatenate(is_test))


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


def _check_saved(columns: SampleColumns, role, depth):
    """Name the first record of a group that load_dataset would reject,
    and its first bad field, in number_array's words: a field whose
    column is not real numbers (a bool, complex or object column, which
    the file cannot hold as JSON numbers), a field holding a NaN or an
    infinity as the float the file holds, or a pupil_pose whose norm is
    not 1 (within _UNIT_TOLERANCE)."""
    real = [getattr(columns, name).dtype.kind in "fiu"
            for _, name in _VECTOR_FIELDS]
    if all(real):
        # a longdouble beyond float range is written, and read, as inf
        with np.errstate(over="ignore"):
            bad = np.array([columns.present(name) & ~np.isfinite(
                np.asarray(getattr(columns, name), float)).all(axis=1)
                            for _, name in _VECTOR_FIELDS])
            norms = dot_norms(columns.pupil_pose)
        off_unit = np.abs(norms - 1.0) > _UNIT_TOLERANCE    # a NaN row is not
    else:       # every record of such a column is bad
        bad = np.repeat(~np.array(real)[:, None], len(columns), axis=1)
        off_unit = np.zeros(len(columns), dtype=bool)
    if bad.any() or off_unit.any():
        i = int(np.argmax(bad.any(axis=0) | off_unit))
        where = f"cannot save {role} record {i} at depth {depth}:"
        if not bad[:, i].any():
            raise ValueError(f"{where} field 'pupil_pose' norm "
                             f"{norms[i]:.8g} is not unit")
        key, name = _VECTOR_FIELDS[int(np.argmax(bad[:, i]))]
        row = getattr(columns, name)[i]
        try:
            number_array(row, (_WIDTHS[name],), f"field {key!r}")
        except ValueError as err:
            raise ValueError(f"{where} {err}") from None
        # an object column of numbers
        raise ValueError(f"{where} field {key!r} must be {_WIDTHS[name]} "
                         f"finite numbers, got an array of dtype {row.dtype}")


def _json_rows(columns: SampleColumns, name):
    """The JSON text of field `name` of each row, as json writes it: a
    list of float reprs, or null where the field is missing.  orjson
    writes the whole column; its text is repr's for 0.0, -0.0 and every
    1e-4 <= |x| < 1e16, so a row holding another value (orjson's
    0.00001 and 1e16 are repr's 1e-05 and 1e+16) is written by repr."""
    import orjson       # see _record_columns

    rows = getattr(columns, name)
    if not len(rows):
        return []
    # float32 and float16 entries widened, as tolist() widens them
    rows = np.ascontiguousarray(rows, float if rows.dtype.kind == "f"
                                else None)
    texts = orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    texts = texts[1:-1].replace("],[", "]\n[").split("\n")
    size = np.abs(rows)     # NaN, a missing row's, compares False
    for i in np.flatnonzero(((size < 1e-4) & (size != 0)
                             | (size >= 1e16)).any(axis=1)).tolist():
        texts[i] = f"[{','.join(map(repr, rows[i].tolist()))}]"
    present = columns.present(name)
    return texts if present.all() else [
        text if has else "null" for text, has in zip(texts, present.tolist())]


def _record_text(columns: SampleColumns, role, depth):
    """The record lines of one (role, depth) group, in row order, as
    _json_line writes them (sorted keys, float reprs), each ended by
    "\n"."""
    depth = repr(float(depth))
    return "".join(
        f'{{"depth_label":{depth},"pupil_pose":{pose},'
        f'"pupil_px":{pupil_px},"role":"{role}","target_px":{target_px},'
        f'"target_scene_m":{target}}}\n'
        for pose, pupil_px, target_px, target in zip(
            *(_json_rows(columns, name) for name in (
                "pupil_pose", "pupil_px", "target_px", "target"))))


# the header's "source" values: save_dataset writes one, load_dataset
# reads one (a header without it is "recorded")
SOURCES = ("simulated", "recorded")


def _blocks(saved):
    """Each (columns, role, depth) group of `saved`, in order, as blocks
    of at most _CHUNK_LINES rows."""
    for columns, role, depth in saved:
        for start in range(0, len(columns), _CHUNK_LINES):
            yield SampleColumns(**{
                name: getattr(columns, name)[start:start + _CHUNK_LINES]
                for name in _WIDTHS}), role, depth


def save_dataset(bundle: DatasetBundle, path, source="simulated") -> None:
    """Write a DatasetBundle in the line-delimited format above, from the
    SampleColumns of each (role, depth) group: by depth, calibration
    before test, rows in order, each record's depth_label the group's
    key.  Every group is checked (_check_saved) before the file is
    opened, so a refused bundle writes nothing; then the header line and
    each group's record lines are written, _CHUNK_LINES lines at a time.
    A regular file also gets its column sidecar (_sidecar.write)."""
    import hashlib      # as orjson: a sweep reads and writes no dataset

    if source not in SOURCES:
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
        "noise": {key: getattr(rig, name)
                  for key, name in _NOISE_FIELDS.items()},
    }
    groups = (bundle.calibration, bundle.test)
    saved = [(columns, role, depth) for depth in sorted(set().union(*groups))
             for role, columns in zip(_ROLES, (g.get(depth) for g in groups))
             if columns is not None and len(columns)]
    for group in saved:
        _check_saved(*group)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        # every line is ASCII: json escapes the header's other characters
        for text in chain((_json_line(header) + "\n",),
                          (_record_text(*block) for block in _blocks(saved))):
            data = text.encode()
            digest.update(data)
            fh.write(data)
        mode = os.fstat(fh.fileno()).st_mode
    _sidecar.write(path, mode, digest.digest(),
                   sum(len(columns) for columns, _, _ in saved),
                   _blocks(saved))


def _read_header(line):
    """The source, rig and eye of a dataset's header line (bytes, as
    readline gives them: b"" for an empty file)."""
    if not line:
        raise ParseError("empty file", line=1)
    header = _json_value(line.removesuffix(b"\n"), ParseError)
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
    if source not in SOURCES:
        raise ParseError(f"unknown source {source!r} (expected one of "
                         f"{', '.join(map(repr, SOURCES))})", line=1)

    # each section by the config's rule; a camera's rotation is flat
    rig_kwargs = {key: _section(header[key], _camera, _HEADER_CAMERA_KEYS,
                                key, header=True)
                  for key in ("scene_camera", "eye_camera")
                  if header.get(key) is not None}
    eye = _section(header.get("eye_model_mm"), TwoSphereEye,
                   _names(TwoSphereEye), "eye_model_mm", header=True)
    rig_kwargs.update(_section(
        header.get("noise"), lambda **noise: {
            _NOISE_FIELDS[key]: value for key, value in noise.items()},
        _NOISE_FIELDS, "noise", header=True))
    if header.get("e_gt") is not None:
        rig_kwargs["e_gt"] = header["e_gt"]
    try:
        rig = SimRig(**rig_kwargs)
    except (TypeError, ValueError) as err:
        raise ParseError(f"bad rig in header: {err}", line=1) from err
    return source, rig, eye


def load_dataset(path, require_calibration=False) -> LoadedDataset:
    """Parse and validate a dataset file.

    Records without pupil_pose load fine but are counted in
    ``missing_pose`` (they cannot feed the 3D-to-3D mapper).  With
    ``require_calibration`` the file must contain calibration records —
    used by commands that fit, so the error surfaces before any fit.
    """
    with open(path, "rb") as fh:
        source, rig, eye = _read_header(fh.readline())
        parsed = _sidecar.read(path, fh) or _read_records(fh)
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
# number_array relation) of each array it stores
_MODEL_ARRAYS = {
    "2d2d": (Model2Dto2D, (("weights", "weights", (7, 2), None),
                           ("eye_resolution", "eye_resolution", (2,), ">"))),
    "2d3d": (Model2Dto3D, (("weights", "weights", (7, 2), None),
                           ("center", "center_m", (3,), None),
                           ("eye_resolution", "eye_resolution", (2,), ">"))),
    "3d3d": (Model3Dto3D, (("angles", "angles_rad", (3,), "angle"),
                           ("center", "center_m", (3,), None))),
}


def save_model(model, path) -> None:
    """Serialize a fitted mapper model as a small JSON document.  An
    array load_model would reject raises ValueError naming its field,
    before the file is opened."""
    mapper = mapper_of(model)
    doc = {"format": MODEL_FORMAT, "mapper": mapper}
    try:
        for attr, key, shape, relation in _MODEL_ARRAYS[mapper][1]:
            doc[key] = number_array(getattr(model, attr), shape,
                                    f"model field {key!r}", relation).tolist()
    except ValueError as err:
        raise ValueError(f"cannot save model: {err}") from None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _model_array(doc, key, shape, relation):
    """The array a model file holds under `key`, by number_array's rule,
    or a ParseError naming the field."""
    if key not in doc:
        raise ParseError(f"model file missing field {key!r}")
    try:
        return number_array(doc[key], shape, f"model field {key!r}",
                            relation)
    except ValueError as err:
        raise ParseError(str(err)) from err


def load_model(path):
    """Inverse of save_model; every array must be its _MODEL_ARRAYS
    shape of finite numbers (number_array), the eye resolution's
    entries > 0 and the 3d3d angles within rotation_from_angles' range
    [-pi, pi]."""
    with open(path, "rb") as fh:
        doc = _json_value(fh.read(), ParseError)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ParseError(f"not a {MODEL_FORMAT} file")
    try:
        [mapper] = check_mappers([doc.get("mapper")])
    except ValueError as err:
        raise ParseError(str(err)) from None
    cls, arrays = _MODEL_ARRAYS[mapper]
    return cls(**{attr: _model_array(doc, key, shape, relation)
                  for attr, key, shape, relation in arrays})


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


def _section(value, build, keys, name=None, header=False):
    """What `build` makes of `value`: the one rule of a config (name None),
    of each of its sections and of each section of a dataset header
    (header=True); null reads as {} in a section.  `value` must be an
    object with only `keys`, and `build` may raise TypeError or
    ValueError.  A config fails with the ConfigError "<name> must be an
    object", "unknown config key '<name>.<key>'" or "invalid <name>:
    <reason>" (the config itself: "config must be an object", "unknown
    config key '<key>'" or "<reason>"); a header section with the
    ParseError "line 1: bad <name> in header: <reason>", the reason
    "must be an object, got <type>", "unknown key '<key>'" or build's."""
    def error(reason, config_message):
        if header:
            return ParseError(f"bad {name} in header: {reason}", line=1)
        return ConfigError(config_message)

    if value is None and name:
        value = {}
    if not isinstance(value, dict):
        raise error(f"must be an object, got {type(value).__name__}",
                    f"{name or 'config'} must be an object")
    for key in value:
        if key not in keys:
            raise error(f"unknown key {key!r}", f"unknown config key "
                        f"{name + '.' if name else ''}{key!r}")
    try:
        return build(**value)
    except (TypeError, ValueError) as err:
        raise error(err, f"invalid {name}: {err}" if name
                    else str(err)) from None


def _camera(**d) -> PinholeCamera:
    """The PinholeCamera of a camera section: a config's, its rotation
    given by rotation_angles (radians), or a dataset header's, its
    rotation the matrix's 9 entries row by row; a missing focal,
    principal or resolution is null."""
    if "rotation_angles" in d:
        angles = d.pop("rotation_angles")
        number_array(angles, (3,), "rotation_angles", "angle")
        d["rotation"] = rotation_from_angles(angles)
    elif "rotation" in d:   # shaped 3x3, if it can be, for the camera to check
        rotation = np.asarray(d["rotation"], dtype=object)
        if rotation.size == 9:
            d["rotation"] = rotation.reshape(3, 3)
    return PinholeCamera(**{"focal": None, "principal": None,
                            "resolution": None, **d})


def _names(cls):
    return {f.name for f in fields(cls)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; unknown keys are rejected, not ignored.

    Optional dict fields override defaults field-by-field: ``grid`` takes
    GridSpec fields, ``lm`` takes LMSettings fields, ``eye_model_mm``
    takes TwoSphereEye fields, and the camera dicts take focal /
    principal / resolution plus optional rotation_angles (radians) and
    translation, each section read by _section.  The types built from the
    values (GridSpec, LMSettings, MappingConfig, ...), check_integer,
    check_depths and check_mappers check them, as ConfigErrors.
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
        try:    # each type built here, so a bad value fails before any work
            check_integer(self.seed, "seed", 0)
            if self.out is not None and not isinstance(self.out,
                                                       (str, os.PathLike)):
                raise ValueError(f"out must be a path string or null, got "
                                 f"{self.out!r}")
            object.__setattr__(self, "depths", check_depths(self.depths))
            object.__setattr__(self, "mappers", check_mappers(self.mappers))
            if self.grid_preset not in GRID_PRESETS:
                raise ValueError(f"unknown grid_preset "
                                 f"{self.grid_preset!r}")
            preset = GRID_PRESETS[self.grid_preset]
            object.__setattr__(self, "_grids", _section(
                self.grid, lambda **grid: replace(preset, **grid),
                _names(GridSpec), "grid"))
            lm = _section(self.lm, LMSettings, _names(LMSettings), "lm")
            object.__setattr__(self, "_eye", _section(
                self.eye_model_mm, TwoSphereEye, _names(TwoSphereEye),
                "eye_model_mm"))
            cameras = {name: _section(getattr(self, name), _camera,
                                      _CAMERA_KEYS, name)
                       for name in ("scene_camera", "eye_camera")
                       if getattr(self, name) is not None}
            object.__setattr__(self, "_mapping", MappingConfig(
                normalize_residuals=self.normalize_residuals,
                center_bounds_m=self.center_bounds_m, lm=lm))
            object.__setattr__(self, "_rig", SimRig(
                e_gt=self.e_gt, noise_pupil_px=self.noise_pupil_px,
                noise_pose_deg=self.noise_pose_deg,
                noise_target_mm=self.noise_target_mm, **cameras))
        except ValueError as err:   # a ConfigError keeps its message
            raise ConfigError(str(err)) from err

    @classmethod
    def from_dict(cls, d) -> "ExperimentConfig":
        return _section(d, cls, _names(cls))

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
    with open(path, "rb") as fh:
        doc = _json_value(fh.read(), lambda reason, line: ConfigError(
            f"config line {line}: {reason}"), json_reason="")
    return ExperimentConfig.from_dict(doc)
