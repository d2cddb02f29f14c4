"""The three eye-to-scene mapping approaches.

2D-to-2D: polynomial regression from pupil pixels to scene pixels,
minimizing sum |s_i - q_i w|^2 in closed form.  Treats the eyeball
center as coincident with the scene-camera origin, hence parallax error
at depths away from the calibration depth.

3D-to-3D: rigid alignment of measured 3D pupil poses with target rays,
minimizing sum |R n_i x (t_i - e)|^2 over Euler angles and eyeball
center e, from the documented initialization e0 = 0, R0 = (0, pi, 0)
(the eye and scene cameras face opposite directions).

2D-to-3D: maps pupil pixels to gaze direction polar angles
alpha = (theta, phi) through the same 7-term polynomial, with
g = (sin theta, cos theta sin phi, cos theta cos phi), and jointly fits
the eyeball center by minimizing sum |g(q_i w) x (t_i - e)|^2.  The
weights are initialized by linear regression of q against the polar
angles of t_i - e0, e0 = 0.

Pupil pixels are mapped to [-1, 1]^2 using the eye-camera resolution
before featurization; this conditions the quartic u^2 v^2 term and is an
affine reparameterization of the same function class.  Both 3D fits
normalize t_i - e inside the cross product by default (pure
sine-of-angle residuals; raw offsets would overweight distant targets)
and box-bound e to |component| <= 0.05 m, a loose physical prior for a
head-mounted rig: with a single calibration depth the cost is nearly
flat along the depth axis of e, and the bound keeps that unobservable
direction from drifting to implausible solutions.  Both choices are
configurable.

Records: MAPPER_FIELDS names the field of a record each mapper reads and
the field it fits that to.  pupil_pose and target_px may be missing, so
select_records keeps the records holding both fields for fitting and
those holding the first for scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .eye_simulator import DEFAULT_EYE_RESOLUTION
from .geometry import (
    PinholeCamera,
    Ray,
    ZeroVector,
    back_project_batch,
    dot_norms,
    normalize,
    normalize_rows,
    rotation_from_angles,
)
from .optimizer import FitReport, LMSettings, ResidualProblem, solve_lm


class RankDeficient(ValueError):
    """Too few samples, or feature matrix not full rank."""


class DegenerateGeometry(ValueError):
    """Calibration geometry cannot constrain the fit (e.g. collinear
    targets)."""


DEFAULT_CENTER_BOUND_M = 0.05


def poly_features(p) -> np.ndarray:
    """Anisotropic polynomial feature q = (1, u, v, uv, u^2, v^2, u^2 v^2)."""
    u, v = np.asarray(p, dtype=float)
    return np.array([1.0, u, v, u * v, u * u, v * v, u * u * v * v])


def _feature_matrix(pupils_px, resolution):
    res = np.asarray(resolution, dtype=float)
    norm = (np.asarray(pupils_px, dtype=float) - res / 2.0) / (res / 2.0)
    u, v = norm[:, 0], norm[:, 1]
    return np.column_stack((np.ones_like(u), u, v, u * v, u * u, v * v,
                            u * u * v * v))


def polar_to_direction(alpha) -> np.ndarray:
    """g = (sin theta, cos theta sin phi, cos theta cos phi); unit norm.

    Takes one (theta, phi) pair or an (N, 2) array of them."""
    alpha = np.asarray(alpha, dtype=float)
    theta, phi = alpha[..., 0], alpha[..., 1]
    ct = np.cos(theta)
    return np.stack((np.sin(theta), ct * np.sin(phi), ct * np.cos(phi)),
                    axis=-1)


def direction_to_polar(direction) -> np.ndarray:
    """Inverse of polar_to_direction for unit vectors.

    Takes one direction or an (N, 3) array of them."""
    d = np.asarray(direction, dtype=float)
    norms = dot_norms(d)    # as in normalize: same bits alone and as a row
    if np.any(norms < 1e-15):
        raise ZeroVector("cannot normalize zero-length vector")
    d = d / norms[..., None]
    return np.stack((np.arcsin(np.clip(d[..., 0], -1.0, 1.0)),
                     np.arctan2(d[..., 1], d[..., 2])), axis=-1)


@dataclass(frozen=True)
class GazeEstimate:
    """Either a 2D scene-image point f or a 3D ray in the scene frame."""

    point: np.ndarray = None
    ray: Ray = None

    def __post_init__(self):
        if (self.point is None) == (self.ray is None):
            raise ValueError("estimate must hold exactly one of point/ray")
        if self.point is not None:
            object.__setattr__(self, "point", np.asarray(self.point, dtype=float))


@dataclass(frozen=True)
class Model2Dto2D:
    weights: np.ndarray                  # 7x2
    eye_resolution: np.ndarray

    mapper_id = "2d2d"


@dataclass(frozen=True)
class Model2Dto3D:
    weights: np.ndarray                  # 7x2, maps q -> (theta, phi)
    center: np.ndarray                   # eyeball center e, meters
    eye_resolution: np.ndarray
    report: FitReport = field(default=None, repr=False, compare=False)

    mapper_id = "2d3d"


@dataclass(frozen=True)
class Model3Dto3D:
    angles: np.ndarray                   # Euler angles of R, radians
    center: np.ndarray                   # eyeball center e, meters
    report: FitReport = field(default=None, repr=False, compare=False)

    mapper_id = "3d3d"

    @property
    def rotation(self):
        return rotation_from_angles(self.angles)


def _split_pairs(calib, n_left, n_right):
    left = np.asarray([np.asarray(a, dtype=float) for a, _ in calib])
    right = np.asarray([np.asarray(b, dtype=float) for _, b in calib])
    if left.ndim != 2 or left.shape[1] != n_left or right.shape[1] != n_right:
        raise ValueError("calibration pairs have wrong shapes")
    return left, right


def _check_not_collinear(targets, origin):
    dirs = targets - origin
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    if np.all(np.linalg.norm(np.cross(dirs, dirs[0]), axis=1) < 1e-9):
        raise DegenerateGeometry("all targets collinear with the initial "
                                 "eyeball center; rays cannot be constrained")


def _center_box(dim, center_bounds):
    if center_bounds is None:
        return None, None
    lower = np.full(dim, -np.inf)
    upper = np.full(dim, np.inf)
    lower[-3:] = -center_bounds
    upper[-3:] = center_bounds
    return lower, upper


def fit_2d_to_2d(calib, eye_resolution=DEFAULT_EYE_RESOLUTION) -> Model2Dto2D:
    """Least-squares fit of the 7x2 weight matrix from (p, s) pairs."""
    pupils, scene = _split_pairs(calib, 2, 2)
    if len(pupils) < 7:
        raise RankDeficient(f"need at least 7 samples, got {len(pupils)}")
    feats = _feature_matrix(pupils, eye_resolution)
    weights, _, rank, _ = np.linalg.lstsq(feats, scene, rcond=None)
    if rank < 7:
        raise RankDeficient(f"feature matrix rank {rank} < 7")
    return Model2Dto2D(weights=weights,
                       eye_resolution=np.asarray(eye_resolution, dtype=float))


def predict_2d_to_2d(model: Model2Dto2D, p) -> GazeEstimate:
    """Estimated 2D gaze position f = q w in scene pixels."""
    feats = _feature_matrix(np.asarray(p, dtype=float)[None, :],
                            model.eye_resolution)
    return GazeEstimate(point=(feats @ model.weights)[0])


def fit_2d_to_3d(calib, eye_resolution=DEFAULT_EYE_RESOLUTION,
                 normalize_residuals=True,
                 center_bounds=DEFAULT_CENTER_BOUND_M,
                 settings: LMSettings = LMSettings()) -> Model2Dto3D:
    """Joint LM fit of polynomial angle weights and eyeball center from
    (p, t) pairs."""
    pupils, targets = _split_pairs(calib, 2, 3)
    if len(pupils) < 9:
        raise RankDeficient(f"need at least 9 samples, got {len(pupils)}")
    _check_not_collinear(targets, np.zeros(3))
    feats = _feature_matrix(pupils, eye_resolution)

    # Initialization: e0 = 0 and w0 from the linear regression q -> polar
    # angles of t - e0.
    alpha = direction_to_polar(targets)
    w0, _, rank, _ = np.linalg.lstsq(feats, alpha, rcond=None)
    if rank < 7:
        raise RankDeficient(f"feature matrix rank {rank} < 7")
    x0 = np.concatenate((w0.ravel(), np.zeros(3)))

    lower, upper = _center_box(17, center_bounds)
    problem = ResidualProblem(
        dim=17,
        residual=lambda x: _kernels.residuals_2d3d(x, feats, targets,
                                                   normalize_residuals),
        jacobian=lambda x: _kernels.jacobian_2d3d(x, feats, targets,
                                                  normalize_residuals),
        lower=lower, upper=upper)
    report = solve_lm(problem, x0, settings)
    return Model2Dto3D(weights=report.params[:14].reshape(7, 2),
                       center=report.params[14:17],
                       eye_resolution=np.asarray(eye_resolution, dtype=float),
                       report=report)


def predict_2d_to_3d(model: Model2Dto3D, p) -> GazeEstimate:
    """Gaze ray from the fitted eyeball center."""
    feats = _feature_matrix(np.asarray(p, dtype=float)[None, :],
                            model.eye_resolution)
    alpha = (feats @ model.weights)[0]
    return GazeEstimate(ray=Ray(model.center, polar_to_direction(alpha)))


def fit_3d_to_3d(calib, normalize_residuals=True,
                 center_bounds=DEFAULT_CENTER_BOUND_M,
                 settings: LMSettings = LMSettings()) -> Model3Dto3D:
    """LM fit of rotation angles and eyeball center from (n, t) pairs."""
    poses, targets = _split_pairs(calib, 3, 3)
    if len(poses) < 3:
        raise DegenerateGeometry(f"need at least 3 samples, got {len(poses)}")
    _check_not_collinear(targets, np.zeros(3))
    poses = poses / np.linalg.norm(poses, axis=1, keepdims=True)

    x0 = np.array([0.0, np.pi, 0.0, 0.0, 0.0, 0.0])
    lower, upper = _center_box(6, center_bounds)
    wrap = np.array([True, True, True, False, False, False])
    problem = ResidualProblem(
        dim=6,
        residual=lambda x: _kernels.residuals_3d3d(x, poses, targets,
                                                   normalize_residuals),
        jacobian=lambda x: _kernels.jacobian_3d3d(x, poses, targets,
                                                  normalize_residuals),
        lower=lower, upper=upper, wrap_mask=wrap)
    report = solve_lm(problem, x0, settings)
    return Model3Dto3D(angles=report.params[:3], center=report.params[3:6],
                       report=report)


def predict_3d_to_3d(model: Model3Dto3D, n) -> GazeEstimate:
    """Gaze ray e + lambda R n for a unit pupil pose n."""
    direction = model.rotation @ np.asarray(n, dtype=float)
    return GazeEstimate(ray=Ray(model.center, normalize(direction)))


@dataclass(frozen=True)
class MappingConfig:
    """Shared fit settings used by the evaluation harness and CLI."""

    eye_resolution: tuple = DEFAULT_EYE_RESOLUTION
    normalize_residuals: bool = True
    center_bounds_m: float = DEFAULT_CENTER_BOUND_M
    lm: LMSettings = field(default_factory=LMSettings)


MAPPER_FIELDS = {
    "2d2d": ("pupil_px", "target_px"),
    "2d3d": ("pupil_px", "target"),
    "3d3d": ("pupil_pose", "target"),
}
MAPPER_IDS = tuple(MAPPER_FIELDS)


def _fields(mapper_id):
    if mapper_id not in MAPPER_FIELDS:
        raise ValueError(f"unknown mapper {mapper_id!r}")
    return MAPPER_FIELDS[mapper_id]


def select_records(mapper_id: str, records, fitting=True) -> list:
    """The records `mapper_id` can use, in order: those holding both its
    fields for fitting, or its input field for scoring (fitting=False)."""
    fields = _fields(mapper_id)[:2 if fitting else 1]
    return [r for r in records
            if all(getattr(r, f) is not None for f in fields)]


def fit_mapper(mapper_id: str, samples, config: MappingConfig = MappingConfig()):
    """Fit one mapper from records holding its fields (see select_records)."""
    source, target = _fields(mapper_id)
    pairs = [(getattr(s, source), getattr(s, target)) for s in samples]
    if mapper_id == "2d2d":
        return fit_2d_to_2d(pairs, config.eye_resolution)
    if mapper_id == "2d3d":
        return fit_2d_to_3d(pairs, config.eye_resolution,
                            config.normalize_residuals,
                            config.center_bounds_m, config.lm)
    return fit_3d_to_3d(pairs, config.normalize_residuals,
                        config.center_bounds_m, config.lm)


def _input_field(model):
    if not isinstance(model, (Model2Dto2D, Model2Dto3D, Model3Dto3D)):
        raise TypeError(f"not a mapper model: {type(model).__name__}")
    return MAPPER_FIELDS[model.mapper_id][0]


def predict_sample(model, sample) -> GazeEstimate:
    """Predict a gaze estimate for one record, dispatching on model type."""
    value = getattr(sample, _input_field(model))
    if isinstance(model, Model2Dto2D):
        return predict_2d_to_2d(model, value)
    if isinstance(model, Model2Dto3D):
        return predict_2d_to_3d(model, value)
    return predict_3d_to_3d(model, value)


def predict_rays(model, samples, scene_cam: PinholeCamera):
    """Gaze rays of a whole set of records as (N, 3) arrays of origins
    and unit directions in the scene frame: predict_sample for every
    record at once, with 2D estimates back-projected through `scene_cam`.
    The origins array is a read-only broadcast of the one shared origin.
    """
    field = _input_field(model)
    missing = [i for i, s in enumerate(samples) if getattr(s, field) is None]
    if missing:
        raise ValueError(f"record {missing[0]} has no {field}, "
                         f"which {model.mapper_id} prediction needs")
    inputs = np.array([getattr(s, field) for s in samples], dtype=float)
    if isinstance(model, Model3Dto3D):
        origin = model.center
        directions = normalize_rows(inputs @ model.rotation.T)
    else:
        out = _feature_matrix(inputs, model.eye_resolution) @ model.weights
        if isinstance(model, Model2Dto2D):     # scene pixels
            origin = scene_cam.translation
            directions = back_project_batch(scene_cam, out)
        else:                                  # polar angles
            origin = model.center
            directions = polar_to_direction(out)
    origins = np.broadcast_to(np.asarray(origin, dtype=float),
                              directions.shape)
    return origins, directions
