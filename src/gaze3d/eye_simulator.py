"""Two-sphere eye model and rig simulator for multi-depth gaze datasets.

The eye is two intersecting spheres (eyeball radius R, corneal radius r,
center separation d, millimeters); the pupil is the center of their
intersection circle.  A scene camera sits at the frame origin and an eye
camera watches the eye from a configurable pose.  Targets are any
points in the scene frame; for each target the eye is rotated about its
center so the optical axis passes through the target, and the
measurement channels (pupil pixel, pupil pose, target position) are
synthesized, optionally with seeded Gaussian noise.

synthesize_points is the one simulator path: it simulates a set of
target points as arrays, while every point keeps its own seeded
generator (a noiseless rig seeds nothing), and synthesize_sample, one
fixation at a time, is the oracle it gives the same bits as.
synthesize_dataset calls it on the grid points a GridSpec gives on
fronto-parallel planes at several depths (GridSpec.points, one
calibration and one test grid per depth).

A DatasetBundle stores each (role, depth) group as one SampleColumns of
the four measured channels, keyed by its depth, in read-only mappings;
a missing channel is a row of NaN, and the ground-truth gaze of a
simulated sample is the unit vector from the eyeball center to its
target (gaze_toward).  SampleColumns' table (_WIDTHS, _OPTIONAL) is the
one schema of a sample: every field's width and whether it may be
missing.  A SampleColumns checks its fields against it when it is
built, and the mappers and the dataset files read it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from types import MappingProxyType

import numpy as np

from .geometry import (
    PinholeCamera,
    Ray,
    GeometryError,
    check_integer,
    check_number,
    check_numbers,
    is_number,
    cross,
    dot_norms,
    number_array,
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


@dataclass(frozen=True)
class TwoSphereEye:
    """Anatomical eye model; defaults are the human averages R=11.5,
    r=7.8, d=4.7 (mm).  Each length must be a finite number > 0
    (ValueError), and the spheres must intersect (NoIntersection)."""

    eyeball_radius_mm: float = 11.5
    corneal_radius_mm: float = 7.8
    center_separation_mm: float = 4.7

    def __post_init__(self):
        check_numbers(self, [f.name for f in fields(self)])
        R, r, d = (self.eyeball_radius_mm, self.corneal_radius_mm,
                   self.center_separation_mm)
        if not (abs(R - r) < d < R + r):
            raise NoIntersection(
                f"spheres R={R}, r={r} at separation d={d} do not intersect")


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
    position (mm); zero disables the channel.  e_gt must be 3 finite
    numbers (geometry.number_array) and each sigma a finite number >= 0
    (check_numbers), or ValueError names it.
    """

    scene_camera: PinholeCamera = field(default_factory=_default_scene_camera)
    eye_camera: PinholeCamera = None
    e_gt: np.ndarray = DEFAULT_E_GT
    noise_pupil_px: float = 0.0
    noise_pose_deg: float = 0.0
    noise_target_mm: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "e_gt", number_array(self.e_gt, (3,),
                                                      "e_gt"))
        check_numbers(self, ("noise_pupil_px", "noise_pose_deg",
                             "noise_target_mm"), ">=")
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


# the most rows or columns a grid may have: 10^6 targets per plane
MAX_GRID_COUNT = 1000


@dataclass(frozen=True)
class GridSpec:
    """Grid protocol for a whole experiment.

    Each row and column count is an integer from 2 to MAX_GRID_COUNT.
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
            check_integer(getattr(self, name), name, 2, MAX_GRID_COUNT)
        check_numbers(self, ("width", "height", "test_scale"))
        if not isinstance(self.scale_with_depth, bool):
            raise ValueError(f"scale_with_depth must be true or false, "
                             f"got {self.scale_with_depth!r}")

    def points(self, depth, test=False) -> np.ndarray:
        """The calibration grid (or with `test` the test grid) on the
        plane z = depth, centered on the scene camera's principal axis, as
        an (rows*cols, 3) array in row-major order, scene frame.  A depth
        that is not a finite number > 0 raises ValueError naming it."""
        check_number(depth, "grid depth")
        s = depth if self.scale_with_depth else 1.0
        rows, cols = self.calib_rows, self.calib_cols
        if test:
            s *= self.test_scale
            rows, cols = self.test_rows, self.test_cols
        width, height = self.width * s, self.height * s
        xs = np.linspace(-width / 2.0, width / 2.0, cols)
        ys = np.linspace(-height / 2.0, height / 2.0, rows)
        return np.array([(x, y, depth) for y in ys for x in xs])


# the two grid protocols (see default_bundle)
GRID_PRESETS = {"display": GridSpec(),
                "fov": GridSpec(width=0.50, height=0.2827,
                                scale_with_depth=True)}


DEFAULT_DEPTHS = (1.0, 1.25, 1.5, 1.75, 2.0)


@dataclass(frozen=True)
class SimSample:
    """One observation: the four measured channels of one fixation.

    pupil_px and target_px are pixels; pupil_pose is the unit gaze
    direction in the eye-camera frame; target is meters in the scene
    frame, the point fixated, so the ground-truth gaze is
    gaze_toward(rig, target).
    """

    pupil_px: np.ndarray
    pupil_pose: np.ndarray
    target: np.ndarray
    target_px: np.ndarray


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
    row is rotated at once.  cross, dot_norms and the stacked dot give
    the bits of np.cross, np.linalg.norm and np.dot on one row."""
    angles = np.empty(len(directions))
    seed_axes = np.empty(directions.shape)
    for i, rng in enumerate(rngs):
        angles[i] = rng.normal(0.0, sigma_rad)
        seed_axes[i] = rng.normal(size=3)
    axes = cross(directions, seed_axes)
    norms = dot_norms(axes)
    for i in np.flatnonzero(norms < 1e-12):   # seed happened to be parallel
        while norms[i] < 1e-12:
            axes[i] = np.cross(directions[i], rngs[i].normal(size=3))
            norms[i] = np.linalg.norm(axes[i])
    axes = axes / norms[:, None]
    cos, sin = np.cos(angles)[:, None], np.sin(angles)[:, None]
    dots = (axes[:, None, :] @ directions[:, :, None])[:, 0]
    # Rodrigues rotation about each row's axis
    return (directions * cos + cross(axes, directions) * sin
            + axes * dots * (1.0 - cos))


def synthesize_sample(rig: SimRig, eye: TwoSphereEye, target,
                      rng=None) -> SimSample:
    """Simulate one fixation on `target`.

    Target noise (if any) perturbs the fixated 3D point itself, so the
    ground-truth ray still passes through the stored target; pupil-pixel
    and pose noise perturb only the measured channels.  `rng` may be a
    seed or a numpy Generator; determinism follows from it.  A noiseless
    rig draws nothing, so it builds no generator and never imports
    numpy.random.
    """
    if rig.noisy:
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
                     target_px=target_px)


# the schema of a sample: each field's width, and the optional fields
_WIDTHS = {"pupil_px": 2, "pupil_pose": 3, "target": 3, "target_px": 2}
_OPTIONAL = ("pupil_pose", "target_px")


@dataclass(frozen=True)
class SampleColumns:
    """The samples of one (role, depth) group as arrays, one row per
    sample, in order: the one sample container of datasets, fits and
    scoring.

    pupil_px (N, 2), pupil_pose (N, 3), target (N, 3) and target_px
    (N, 2) are the four measured channels.  pupil_pose and target_px may
    be missing: a row missing one holds NaN in each entry (see present).
    The group's depth is its key in a DatasetBundle, and the ground-truth
    gaze direction of a simulated sample is unit(target - rig.e_gt).
    Each field must be 2-D, of its _WIDTHS width and with one row per
    row of pupil_px, or ValueError names the field and its shape.
    """

    pupil_px: np.ndarray
    pupil_pose: np.ndarray
    target: np.ndarray
    target_px: np.ndarray

    def __post_init__(self):
        n = len(self.pupil_px)
        for name, width in _WIDTHS.items():
            shape = np.shape(getattr(self, name))
            if shape != (n, width):
                raise ValueError(f"field {name!r} must have shape "
                                 f"({n}, {width}), got {shape}")

    def __len__(self):
        return len(self.pupil_px)

    def present(self, name):
        """The mask of the rows holding field `name`: of an optional
        field, the rows that are not all NaN; of the others, every row.
        The one rule of what a missing channel is."""
        rows = getattr(self, name)
        if name not in _OPTIONAL:
            return np.ones(len(rows), dtype=bool)
        return ~np.isnan(rows).all(axis=1)

    @classmethod
    def concatenate(cls, groups):
        """The rows of each of `groups` in turn, as one SampleColumns."""
        return cls(*(np.concatenate([getattr(g, f.name) for g in groups])
                     for f in fields(cls)))


@dataclass(frozen=True)
class DatasetBundle:
    """Calibration and test samples grouped by depth, plus the rig and
    eye that produced them.

    `calibration` and `test` map each depth to the SampleColumns of that
    (role, depth) group, which the fits, the sweep, the CLI and
    save_dataset read; the key is the one record of the group's depth,
    its depth label.  A group may hold points at mixed depths (say, from
    synthesize_points): each target is scored on its own plane
    z = target[2], and the key only labels the group.  A key that is
    not a finite number > 0 raises ValueError, and a group that is not a
    SampleColumns TypeError, each naming the role and depth.  The
    checked mappings are stored read-only, so setting a group raises
    TypeError; to change a group, make a new bundle with
    dataclasses.replace.
    """

    calibration: dict
    test: dict
    rig: SimRig
    eye: TwoSphereEye

    def __post_init__(self):
        for role in ("calibration", "test"):
            groups = dict(getattr(self, role))
            for depth, group in groups.items():
                check_number(depth, f"{role} group depth")
                if not isinstance(group, SampleColumns):
                    raise TypeError(f"{role} group at depth {depth} is not "
                                    f"a SampleColumns: "
                                    f"{type(group).__name__}")
            object.__setattr__(self, role, MappingProxyType(groups))

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


def _seed_root(rig: SimRig, seed):
    """The root a noisy rig spawns each point's generator from: `seed`
    itself if it is a SeedSequence, else SeedSequence(seed) for an
    integer >= 0 (check_integer, on every rig).  A noiseless rig draws
    nothing, so it gets the checked seed back and never imports
    numpy.random."""
    random = sys.modules.get("numpy.random")   # loaded if seed is a SeedSequence
    if random is not None and isinstance(seed, random.SeedSequence):
        return seed
    check_integer(seed, "seed", 0)
    return np.random.SeedSequence(seed) if rig.noisy else seed


def _point_rows(points) -> np.ndarray:
    """`points` as a new float (N, 3) array, if it is a nonempty array of
    real numbers of that shape whose every entry is finite; a ValueError
    naming it otherwise."""
    try:
        rows = np.asarray(points)
    except ValueError:      # a ragged nesting
        rows = np.asarray(points, dtype=object)
    if (rows.dtype.kind in "iuf" and rows.ndim == 2
            and rows.shape[1] == 3 and len(rows)):
        finite = np.isfinite(rows).all(axis=1)
        if finite.all():
            return rows.astype(float)
        i = int(np.argmin(finite))
        got = f"{rows[i].tolist()} in row {i}"
    else:
        got = f"an array of shape {rows.shape} and dtype {rows.dtype}"
    raise ValueError(f"points must be a nonempty (N, 3) array of finite "
                     f"numbers, got {got}")


def synthesize_points(rig: SimRig, eye: TwoSphereEye, points,
                      seed=0) -> SampleColumns:
    """synthesize_sample for every row of the (N, 3) array `points`
    (scene frame, meters, any depths), as one SampleColumns.

    `seed` is an integer >= 0 or a numpy SeedSequence; the i-th point's
    generator is seeded from SeedSequence(seed).spawn(N)[i] (a
    SeedSequence root is spawned from as it is), so a noisy rig spawns N
    children of the root and a noiseless one, which draws nothing, spawns
    none and builds no SeedSequence.  A bad seed raises ValueError
    naming it (check_integer), and so do `points` that are not a
    nonempty (N, 3) array of finite numbers.

    Gives the same bits as the per-sample calls: each generator draws
    target, pupil and pose noise in synthesize_sample's order, norms are
    dot products and projections one matrix-vector product per row.  If
    a point cannot be simulated, synthesize_sample on the first such
    point raises its exception.
    """
    points = _point_rows(points)
    root = _seed_root(rig, seed)
    children = root.spawn(len(points)) if rig.noisy else ()
    rngs = [np.random.default_rng(s) for s in children]
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
        synthesize_sample(rig, eye, points[i],
                          children[i] if rig.noisy else None)
        raise RuntimeError(f"point {i} fails the batched checks but not "
                           "synthesize_sample")
    if rig.noise_pupil_px > 0:
        pupil_px = pupil_px + np.array([r.normal(0.0, rig.noise_pupil_px, 2)
                                        for r in rngs])
    poses = (rig.eye_camera.rotation.T @ directions[..., None])[..., 0]
    if rig.noise_pose_deg > 0:
        poses = _deflect_rows(poses, np.radians(rig.noise_pose_deg), rngs)
    return SampleColumns(pupil_px=pupil_px, pupil_pose=poses, target=targets,
                         target_px=target_px)


def check_depths(depths) -> tuple:
    """`depths` as a tuple of floats, if it is a nonempty list of finite
    positive meters without duplicates; a ValueError otherwise.  The one
    depth-list rule of synthesize_dataset, configs and every CLI
    command."""
    if (not isinstance(depths, (list, tuple, np.ndarray)) or not len(depths)
            or not all(is_number(d) and d > 0 for d in depths)):
        raise ValueError(f"depths must be a nonempty list of finite "
                         f"positive meters, got {depths!r}")
    depths = tuple(float(d) for d in depths)
    if len(set(depths)) != len(depths):
        raise ValueError("depths contains duplicates")
    return depths


def synthesize_dataset(rig: SimRig, eye: TwoSphereEye,
                       depths=DEFAULT_DEPTHS, grids: GridSpec = None,
                       seed=0) -> DatasetBundle:
    """Per depth, one calibration grid set and one test grid set.

    For each sorted depth (check_depths checks `depths`), calibration
    then test, synthesize_points simulates the grid's points
    (GridSpec.points) into the SampleColumns of that (role, depth) group,
    each group spawning its points' seeds from one root made from `seed`
    (an integer >= 0), so datasets are reproducible and
    order-independent.
    """
    depths = sorted(check_depths(depths))
    grids = grids or GridSpec()
    root = _seed_root(rig, seed)
    calibration, test = {}, {}
    for depth in depths:
        for group, is_test in ((calibration, False), (test, True)):
            group[depth] = synthesize_points(
                rig, eye, grids.points(depth, is_test), root)
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
