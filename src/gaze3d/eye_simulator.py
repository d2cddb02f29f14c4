"""Two-sphere eye model and rig simulator for multi-depth gaze datasets.

The eye is two intersecting spheres (eyeball radius R, corneal radius r,
center separation d, millimeters); the pupil is the center of their
intersection circle.  A scene camera sits at the frame origin and an eye
camera watches the eye from a configurable pose.  Targets are grids of
points on fronto-parallel planes at several depths; for each target the
eye is rotated about its center so the optical axis passes through the
target, and the measurement channels (pupil pixel, pupil pose, target
position) are synthesized, optionally with seeded Gaussian noise.

synthesize_sample simulates one fixation and is the oracle for
synthesize_dataset, which computes each grid as arrays while every
sample keeps its own seeded generator, giving the same bits.  A
DatasetBundle stores each (role, depth) group as one SampleColumns and
builds the group's records only when they are asked for.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

import numpy as np

from ._kernels import _cross
from .geometry import (
    PinholeCamera,
    Ray,
    GeometryError,
    dot_norms,
    normalize,
    project,
    rotation_from_angles,
)


class NoIntersection(ValueError):
    """Eye spheres do not intersect; no pupil circle exists."""


class DegenerateTarget(ValueError):
    """Target coincides with the eyeball center."""


class TargetNotVisible(ValueError):
    """Target projects outside the scene image (or behind the camera)."""


class PupilNotVisible(ValueError):
    """Pupil center projects outside the eye image (or behind the camera)."""


def _check_positive(obj, names):
    """Raise a ValueError naming the first of the `names` attributes of
    `obj` that is not a finite real number > 0 (a bool is not one)."""
    for name in names:
        value = getattr(obj, name)
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value) or value <= 0):
            raise ValueError(f"{name} must be a finite number > 0, "
                             f"got {value!r}")


@dataclass(frozen=True)
class TwoSphereEye:
    """Anatomical eye model; defaults are the human averages R=11.5,
    r=7.8, d=4.7 (mm).  Each length must be a finite number > 0
    (ValueError), and the spheres must intersect (NoIntersection)."""

    eyeball_radius_mm: float = 11.5
    corneal_radius_mm: float = 7.8
    center_separation_mm: float = 4.7

    def __post_init__(self):
        _check_positive(self, [f.name for f in fields(self)])
        R, r, d = (self.eyeball_radius_mm, self.corneal_radius_mm,
                   self.center_separation_mm)
        if not (abs(R - r) < d < R + r):
            raise NoIntersection(
                f"spheres R={R}, r={r} at separation d={d} do not intersect")

    @property
    def pupil_offset_mm(self) -> float:
        return derive_pupil_geometry(self)[0]

    @property
    def pupil_circle_radius_mm(self) -> float:
        return derive_pupil_geometry(self)[1]


def derive_pupil_geometry(eye: TwoSphereEye):
    """(offset, radius) of the sphere-intersection circle, millimeters.

    offset = (d^2 + R^2 - r^2) / (2d) is the distance from the eyeball
    center to the circle center along the optical axis, radius the circle
    radius.  For the default constants radius = 5.77 mm, matching the
    anatomical pupil-circle value 5.8 mm.
    """
    R, r, d = (eye.eyeball_radius_mm, eye.corneal_radius_mm,
               eye.center_separation_mm)
    offset = (d * d + R * R - r * r) / (2.0 * d)
    radius_sq = R * R - offset * offset
    if radius_sq <= 0:
        raise NoIntersection("intersection circle is empty")
    return offset, math.sqrt(radius_sq)


DEFAULT_EYE_RESOLUTION = (640.0, 360.0)
DEFAULT_E_GT = (0.015, 0.035, -0.025)


def _default_scene_camera():
    return PinholeCamera(focal=(720.0, 720.0), principal=(640.0, 360.0),
                         resolution=(1280.0, 720.0))


def _default_eye_camera(e_gt, forward_m=0.035):
    # 35 mm in front of the eyeball center, facing opposite to the scene
    # camera (a half turn about the vertical axis).
    return PinholeCamera(focal=(620.0, 620.0), principal=(320.0, 180.0),
                         resolution=DEFAULT_EYE_RESOLUTION,
                         rotation=rotation_from_angles((0.0, np.pi, 0.0)),
                         translation=np.asarray(e_gt) + (0.0, 0.0, forward_m))


@dataclass(frozen=True)
class SimRig:
    """Cameras, ground-truth eyeball center and noise levels.

    e_gt is the eyeball center in the scene frame (meters); this offset
    from the scene-camera origin is the source of parallax error.  Noise
    sigmas: pupil pixels (px), pupil-pose deflection (degrees), target
    position (mm); zero disables the channel.  A non-finite e_gt, or a
    sigma that is NaN, infinite or negative, raises ValueError naming it.
    """

    scene_camera: PinholeCamera = field(default_factory=_default_scene_camera)
    eye_camera: PinholeCamera = None
    e_gt: np.ndarray = DEFAULT_E_GT
    noise_pupil_px: float = 0.0
    noise_pose_deg: float = 0.0
    noise_target_mm: float = 0.0

    def __post_init__(self):
        e_gt = np.asarray(self.e_gt, dtype=float)
        if e_gt.shape != (3,) or not np.isfinite(e_gt).all():
            raise ValueError(f"e_gt must be 3 finite numbers, got "
                             f"{e_gt.tolist()}")
        object.__setattr__(self, "e_gt", e_gt)
        for name in ("noise_pupil_px", "noise_pose_deg", "noise_target_mm"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value < 0):
                raise ValueError(f"{name} must be a finite number >= 0, "
                                 f"got {value!r}")
        if self.eye_camera is None:
            object.__setattr__(self, "eye_camera", _default_eye_camera(self.e_gt))
        eye_depth = self.eye_camera.world_to_camera(self.e_gt)[2]
        if eye_depth <= 0:
            raise ValueError("eye camera must face the eye "
                             f"(eyeball depth {eye_depth:.3g} <= 0)")

    @property
    def noisy(self):
        """Whether any noise sigma is above zero."""
        return (self.noise_target_mm > 0 or self.noise_pupil_px > 0
                or self.noise_pose_deg > 0)


@dataclass(frozen=True)
class TargetGrid:
    """Evenly spaced rows x cols grid on the plane z = depth, centered on
    the scene camera's principal axis."""

    depth: float
    rows: int = 5
    cols: int = 5
    width: float = 1.215
    height: float = 0.687


def generate_target_grid(grid: TargetGrid) -> np.ndarray:
    """Grid points as an (rows*cols, 3) array, row-major, scene frame."""
    if grid.rows < 2 or grid.cols < 2:
        raise ValueError("grid needs at least 2 rows and 2 cols")
    if grid.depth <= 0:
        raise ValueError("grid depth must be positive")
    xs = np.linspace(-grid.width / 2.0, grid.width / 2.0, grid.cols)
    ys = np.linspace(-grid.height / 2.0, grid.height / 2.0, grid.rows)
    pts = [(x, y, grid.depth) for y in ys for x in xs]
    return np.array(pts)


@dataclass(frozen=True)
class GridSpec:
    """Grid protocol for a whole experiment.

    Calibration grids are rows x cols of size width x height (meters);
    test grids shrink both sides by test_scale so they lie strictly
    inside the calibration hull.  With scale_with_depth the physical size
    grows linearly with depth, i.e. every plane subtends the same visual
    angle (markers spanning a fixed field of view); otherwise the size is
    constant, like a fixed display moved in depth.
    """

    calib_rows: int = 5
    calib_cols: int = 5
    width: float = 0.40
    height: float = 0.2262
    test_rows: int = 4
    test_cols: int = 4
    test_scale: float = 0.75
    scale_with_depth: bool = False

    def __post_init__(self):
        for name in ("calib_rows", "calib_cols", "test_rows", "test_cols"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral) or value < 2):
                raise ValueError(f"{name} must be an integer >= 2, "
                                 f"got {value!r}")
        _check_positive(self, ("width", "height", "test_scale"))
        if not isinstance(self.scale_with_depth, bool):
            raise ValueError(f"scale_with_depth must be true or false, "
                             f"got {self.scale_with_depth!r}")

    def _scale(self, depth):
        return depth if self.scale_with_depth else 1.0

    def calibration_grid(self, depth) -> TargetGrid:
        s = self._scale(depth)
        return TargetGrid(depth, self.calib_rows, self.calib_cols,
                          self.width * s, self.height * s)

    def test_grid(self, depth) -> TargetGrid:
        s = self._scale(depth) * self.test_scale
        return TargetGrid(depth, self.test_rows, self.test_cols,
                          self.width * s, self.height * s)


def fov_grid_spec() -> GridSpec:
    """Constant-visual-angle protocol used by the depth-count sweep."""
    return GridSpec(width=0.50, height=0.2827, scale_with_depth=True)


GRID_PRESETS = {"display": GridSpec(), "fov": fov_grid_spec()}


DEFAULT_DEPTHS = (1.0, 1.25, 1.5, 1.75, 2.0)


@dataclass(frozen=True)
class SimSample:
    """One observation: measured channels plus simulation ground truth.

    pupil_px and target_px are pixels; pupil_pose is the unit gaze
    direction in the eye-camera frame; target is meters in the scene
    frame.  gaze is the ground-truth ray from the eyeball center.
    """

    pupil_px: np.ndarray
    pupil_pose: np.ndarray
    target: np.ndarray
    target_px: np.ndarray
    depth_label: float
    role: str
    gaze: Ray


def gaze_toward(rig: SimRig, target) -> Ray:
    """Ground-truth gaze ray from the eyeball center through the target."""
    target = np.asarray(target, dtype=float)
    offset = target - rig.e_gt
    if np.linalg.norm(offset) < 1e-12:
        raise DegenerateTarget("target coincides with the eyeball center")
    return Ray(rig.e_gt.copy(), offset / np.linalg.norm(offset))


def _checked_project(cam, point, exc, what):
    try:
        px = project(cam, point)
    except GeometryError as err:
        raise exc(f"{what}: {err}") from err
    if np.any(px < 0) or np.any(px > cam.resolution):
        raise exc(f"{what} projects outside the image at {px}")
    return px


def _deflect(direction, sigma_rad, rng):
    """Rotate a unit vector by N(0, sigma) radians about a random
    perpendicular axis."""
    angle = rng.normal(0.0, sigma_rad)
    seed_axis = rng.normal(size=3)
    axis = np.cross(direction, seed_axis)
    while np.linalg.norm(axis) < 1e-12:   # seed happened to be parallel
        seed_axis = rng.normal(size=3)
        axis = np.cross(direction, seed_axis)
    axis = axis / np.linalg.norm(axis)
    # Rodrigues rotation about `axis`
    return (direction * np.cos(angle)
            + np.cross(axis, direction) * np.sin(angle)
            + axis * np.dot(axis, direction) * (1.0 - np.cos(angle)))


def _deflect_rows(directions, sigma_rad, rngs):
    """_deflect of each row of an (N, 3) array with its own generator,
    with the same draws and bits: each generator draws the row's angle
    and seed axis (and redraws the axis as _deflect does), then every
    row is rotated at once.  _cross, dot_norms and the stacked dot give
    the bits of np.cross, np.linalg.norm and np.dot on one row."""
    angles = np.empty(len(directions))
    seed_axes = np.empty(directions.shape)
    for i, rng in enumerate(rngs):
        angles[i] = rng.normal(0.0, sigma_rad)
        seed_axes[i] = rng.normal(size=3)
    axes = _cross(directions, seed_axes)
    norms = dot_norms(axes)
    for i in np.flatnonzero(norms < 1e-12):   # seed happened to be parallel
        while norms[i] < 1e-12:
            axes[i] = np.cross(directions[i], rngs[i].normal(size=3))
            norms[i] = np.linalg.norm(axes[i])
    axes = axes / norms[:, None]
    cos, sin = np.cos(angles)[:, None], np.sin(angles)[:, None]
    dots = (axes[:, None, :] @ directions[:, :, None])[:, 0]
    # Rodrigues rotation about each row's axis
    return (directions * cos + _cross(axes, directions) * sin
            + axes * dots * (1.0 - cos))


def synthesize_sample(rig: SimRig, eye: TwoSphereEye, target,
                      rng=None, depth_label=None, role="calibration") -> SimSample:
    """Simulate one fixation on `target`.

    Target noise (if any) perturbs the fixated 3D point itself, so the
    ground-truth ray still passes through the stored target; pupil-pixel
    and pose noise perturb only the measured channels.  `rng` may be a
    seed or a numpy Generator; determinism follows from it.
    """
    rng = np.random.default_rng(rng)
    target = np.asarray(target, dtype=float)
    if rig.noise_target_mm > 0:
        target = target + rng.normal(0.0, rig.noise_target_mm * 1e-3, 3)

    gaze = gaze_toward(rig, target)
    offset_m = derive_pupil_geometry(eye)[0] * 1e-3
    pupil_center = rig.e_gt + offset_m * gaze.direction

    target_px = _checked_project(rig.scene_camera, target,
                                 TargetNotVisible, "target")
    pupil_px = _checked_project(rig.eye_camera, pupil_center,
                                PupilNotVisible, "pupil center")
    if rig.noise_pupil_px > 0:
        pupil_px = pupil_px + rng.normal(0.0, rig.noise_pupil_px, 2)

    pose = rig.eye_camera.rotation.T @ gaze.direction
    if rig.noise_pose_deg > 0:
        pose = _deflect(pose, np.radians(rig.noise_pose_deg), rng)

    return SimSample(pupil_px=pupil_px, pupil_pose=pose, target=target,
                     target_px=target_px,
                     depth_label=float(depth_label if depth_label is not None
                                       else target[2]),
                     role=role, gaze=gaze)


@dataclass(frozen=True)
class DataRecord:
    """One loaded observation (same measured channels as SimSample)."""

    pupil_px: np.ndarray
    pupil_pose: np.ndarray
    target: np.ndarray
    target_px: np.ndarray
    depth_label: float
    role: str


# the vector fields of a record and their widths; the optional ones
# with the SampleColumns mask of the rows holding them
_WIDTHS = {"pupil_px": 2, "pupil_pose": 3, "target": 3, "target_px": 2}
_PRESENCE = {"pupil_pose": "has_pose", "target_px": "has_target_px"}


@dataclass(frozen=True)
class SampleColumns:
    """The samples of one (role, depth) group as arrays, one row per
    sample, in order.

    pupil_px (N, 2), pupil_pose (N, 3), target (N, 3) and target_px
    (N, 2) hold the channels, depth_label (N,) each sample's depth label.
    pupil_pose and target_px may be missing: has_pose and has_target_px
    mark the rows holding them, and the other rows hold NaN.  gaze holds
    the ground-truth gaze directions (N, 3) of simulated samples, and is
    None otherwise.
    """

    pupil_px: np.ndarray
    pupil_pose: np.ndarray
    target: np.ndarray
    target_px: np.ndarray
    depth_label: np.ndarray
    has_pose: np.ndarray
    has_target_px: np.ndarray
    gaze: np.ndarray = None

    def __len__(self):
        return len(self.depth_label)

    def present(self, name):
        """The mask of the rows holding field `name`."""
        mask = _PRESENCE.get(name)
        return (np.ones(len(self), dtype=bool) if mask is None
                else getattr(self, mask))

    @classmethod
    def from_records(cls, records):
        """The columns of a sequence of records (SimSample or DataRecord),
        without gaze.  Only pupil_pose and target_px may be None."""
        records = list(records)
        columns = {}
        for name, width in _WIDTHS.items():
            values = [getattr(r, name) for r in records]
            present = np.array([v is not None for v in values], dtype=bool)
            if name not in _PRESENCE and not present.all():
                raise ValueError(f"record {int(np.argmin(present))} has no "
                                 f"{name}")
            rows = np.full((len(values), width), np.nan)
            if present.any():
                given = np.asarray([v for v in values if v is not None],
                                   dtype=float)
                if given.shape != (len(given), width):
                    raise ValueError(f"every {name} must have {width} "
                                     "entries")
                rows[present] = given
            columns[name] = rows
            if name in _PRESENCE:
                columns[_PRESENCE[name]] = present
        return cls(depth_label=np.array([float(r.depth_label)
                                         for r in records]), **columns)

    @classmethod
    def concatenate(cls, groups):
        """The rows of each of `groups` in turn, as one SampleColumns
        without gaze."""
        return cls(**{f.name: np.concatenate([getattr(g, f.name)
                                              for g in groups])
                      for f in fields(cls) if f.name != "gaze"})

    def records(self, role, origin=None):
        """The samples as records holding row views of the columns:
        SimSamples, with their ground-truth gaze rays from `origin`, where
        gaze is held, DataRecords otherwise."""
        columns = (self.pupil_px,
                   [p if has else None for p, has
                    in zip(self.pupil_pose, self.has_pose.tolist())],
                   self.target,
                   [p if has else None for p, has
                    in zip(self.target_px, self.has_target_px.tolist())],
                   self.depth_label.tolist(), [role] * len(self))
        if self.gaze is None:
            return list(map(DataRecord, *columns))
        return list(map(SimSample, *columns,
                        [Ray(origin.copy(), d) for d in self.gaze]))


class RecordViews(Mapping):
    """The groups of one role: depth -> list of records, each list built
    from the group's SampleColumns on first access and kept.  `columns`
    maps each depth to its SampleColumns, which the batch paths read."""

    def __init__(self, role, columns, origin=None, records=None):
        self.role = role
        self.columns = columns
        self._origin = origin           # of the gaze rays of SimSamples
        self._records = records or {}

    def __getitem__(self, depth):
        records = self._records.get(depth)
        if records is None:
            records = self._records[depth] = self.columns[depth].records(
                self.role, self._origin)
        return records

    def __contains__(self, depth):
        return depth in self.columns

    def __iter__(self):
        return iter(self.columns)

    def __len__(self):
        return len(self.columns)


@dataclass(frozen=True)
class DatasetBundle:
    """Calibration and test samples grouped by depth label, plus the rig
    and eye that produced them.

    Each (role, depth) group is stored as one SampleColumns, which the
    fits, the sweep, the CLI and save_dataset read.  `calibration` and
    `test` are RecordViews: mappings from depth to a list of records,
    built on first access, for the one-sample API.  A bundle may be made
    from mappings of depth to SampleColumns or to lists of records (as
    dataclasses.replace does with a new `test`); a list of records is
    stacked into columns once and kept as that group's records.  Editing
    a returned list does not change the columns: to change a group, make
    a new bundle with dataclasses.replace.
    """

    calibration: Mapping
    test: Mapping
    rig: SimRig
    eye: TwoSphereEye

    def __post_init__(self):
        for role in ("calibration", "test"):
            groups = getattr(self, role)
            if isinstance(groups, RecordViews):
                if groups.role == role:
                    continue
                columns, records = groups.columns, {}
            else:
                columns, records = {}, {}
                for depth, group in groups.items():
                    if not isinstance(group, SampleColumns):
                        records[depth] = list(group)
                        group = SampleColumns.from_records(records[depth])
                    columns[depth] = group
            object.__setattr__(self, role, RecordViews(
                role, columns, self.rig.e_gt, records))

    def depths(self):
        return tuple(sorted(self.calibration))


def _project_rows(cam: PinholeCamera, points):
    """project() of each row of an (N, 3) array, with the same bits, and
    a mask of the rows _checked_project accepts (in front of the camera
    and inside its image).  The stacked matmul makes one matrix-vector
    product per row, as world_to_camera does for a single point."""
    pc = (cam.rotation.T @ (points - cam.translation)[..., None])[..., 0]
    in_front = pc[:, 2] > 1e-12
    depth = np.where(in_front, pc[:, 2], 1.0)    # other rows are rejected
    px = cam.principal + cam.focal * pc[:, :2] / depth[:, None]
    inside = ~(np.any(px < 0, axis=1) | np.any(px > cam.resolution, axis=1))
    return px, in_front & inside


def _synthesize_grid(rig: SimRig, eye: TwoSphereEye, points, seeds,
                     depth_label, role) -> SampleColumns:
    """synthesize_sample for every row of `points`, the i-th with a
    generator seeded from seeds[i], computed as (N, 3) and (N, 2) arrays
    and returned as the group's SampleColumns, gaze directions included.
    A noiseless rig draws nothing, so it needs no seeds (None).

    Gives the same bits as the per-sample calls: each generator draws
    target, pupil and pose noise in synthesize_sample's order, norms are
    dot products and projections one matrix-vector product per row.  If
    a sample cannot be synthesized, synthesize_sample on the first such
    point raises its exception.
    """
    rngs = [np.random.default_rng(s) for s in seeds] if rig.noisy else ()
    targets = points
    if rig.noise_target_mm > 0:
        sigma_m = rig.noise_target_mm * 1e-3
        targets = targets + np.array([r.normal(0.0, sigma_m, 3)
                                      for r in rngs])
    offsets = targets - rig.e_gt
    norms = dot_norms(offsets)
    degenerate = norms < 1e-12
    directions = offsets / np.where(degenerate, 1.0, norms)[:, None]
    offset_m = derive_pupil_geometry(eye)[0] * 1e-3
    pupil_centers = rig.e_gt + offset_m * directions
    target_px, target_ok = _project_rows(rig.scene_camera, targets)
    pupil_px, pupil_ok = _project_rows(rig.eye_camera, pupil_centers)
    bad = degenerate | ~target_ok | ~pupil_ok
    if bad.any():
        i = int(np.argmax(bad))
        rng = np.random.default_rng(seeds[i] if rig.noisy else 0)
        synthesize_sample(rig, eye, points[i], rng, depth_label=depth_label,
                          role=role)
        raise RuntimeError(f"point {i} fails the batched checks but not "
                           "synthesize_sample")
    if rig.noise_pupil_px > 0:
        pupil_px = pupil_px + np.array([r.normal(0.0, rig.noise_pupil_px, 2)
                                        for r in rngs])
    poses = (rig.eye_camera.rotation.T @ directions[..., None])[..., 0]
    if rig.noise_pose_deg > 0:
        poses = _deflect_rows(poses, np.radians(rig.noise_pose_deg), rngs)
    present = np.ones(len(points), dtype=bool)
    return SampleColumns(pupil_px=pupil_px, pupil_pose=poses, target=targets,
                         target_px=target_px,
                         depth_label=np.full(len(points), float(depth_label)),
                         has_pose=present, has_target_px=present,
                         gaze=directions)


def synthesize_dataset(rig: SimRig, eye: TwoSphereEye,
                       depths=DEFAULT_DEPTHS, grids: GridSpec = None,
                       seed=0) -> DatasetBundle:
    """Per depth, one calibration grid set and one test grid set.

    Samples are seeded individually from `seed` via spawned
    SeedSequences, so datasets are reproducible and order-independent
    (a noiseless rig draws nothing and spawns none).
    Each grid is synthesized as arrays and stored as the SampleColumns of
    its (role, depth) group: pupil_px (N, 2), pupil_pose (N, 3), target
    (N, 3), target_px (N, 2), depth labels and the ground-truth gaze
    directions (N, 3).  The samples are those synthesize_sample gives for
    each point with its own generator, bit for bit, and synthesize_sample
    is the oracle the tests hold it to.  Records (SimSamples holding row
    views of the columns) are built only when bundle.calibration or
    bundle.test is indexed.
    """
    if not depths:
        raise ValueError("depths must be nonempty")
    grids = grids or GridSpec()
    depths = sorted(float(d) for d in depths)
    root = np.random.SeedSequence(seed)
    calibration, test = {}, {}
    for depth in depths:
        for role, group, grid in (
                ("calibration", calibration, grids.calibration_grid(depth)),
                ("test", test, grids.test_grid(depth))):
            points = generate_target_grid(grid)
            seeds = root.spawn(len(points)) if rig.noisy else None
            group[depth] = _synthesize_grid(rig, eye, points, seeds, depth,
                                            role)
    return DatasetBundle(calibration=calibration, test=test, rig=rig, eye=eye)


def default_bundle(preset="display", depths=DEFAULT_DEPTHS, seed=0,
                   noise_pupil_px=0.0, noise_pose_deg=0.0,
                   noise_target_mm=0.0) -> DatasetBundle:
    """Noiseless-by-default dataset under one of the two grid presets.

    "display": fixed-size grids (a display moved in depth) — the default
    for parallax and offset analyses.  "fov": grids scaled with depth so
    every plane spans the same visual angle — used by the depth-count sweep,
    where fixed-size grids confound the depth-count effect with the
    shrinking per-plane pupil footprint.
    """
    if preset not in GRID_PRESETS:
        raise ValueError(f"unknown preset {preset!r}")
    rig = SimRig(noise_pupil_px=noise_pupil_px, noise_pose_deg=noise_pose_deg,
                 noise_target_mm=noise_target_mm)
    return synthesize_dataset(rig, TwoSphereEye(), depths,
                              GRID_PRESETS[preset], seed=seed)
