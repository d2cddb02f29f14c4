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
direction from drifting to implausible solutions.

Settings: both choices, the eye resolution and the LM settings are the
fields of MappingConfig, which every fit takes (the pair-based fits
too) and which rejects a bad value by name when built, before any fit.

Samples: MAPPER_FIELDS names the field each mapper reads and the field
it fits that to.  pupil_pose and target_px may be missing, so a mapper
uses the samples holding both fields for fitting and those holding the
first for scoring.  On a SampleColumns group that rule is a mask
(usable_rows), and column_arrays takes the masked rows as the arrays
that fit_arrays (the one fit path) and predict_ray_arrays (the one
prediction path) take.

LM fits: fit_arrays solves the 2d3d or 3d3d sets of a call in one
solve_lm_batch; its ProblemBatch (_lm_batch) is the one place that
groups the fits by sample count, the ragged layout of gaze3d._kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .eye_simulator import _WIDTHS, DEFAULT_EYE_RESOLUTION, SampleColumns
from .geometry import (
    PinholeCamera,
    Ray,
    ZeroVector,
    back_project_batch,
    dot_norms,
    is_number,
    normalize,
    normalize_rows,
    rotation_from_angles,
)
from .optimizer import (
    FitReport,
    LMSettings,
    NonFiniteResidual,
    ProblemBatch,
    SingularNormalEquations,
    solve_lm,  # noqa: F401 - perfbench traces it here
    solve_lm_batch,
)


class RankDeficient(ValueError):
    """Too few samples, or feature matrix not full rank."""


class DegenerateGeometry(ValueError):
    """Calibration geometry cannot constrain the fit (e.g. collinear
    targets)."""


# what a fit raises when its samples cannot give a model
FIT_ERRORS = (RankDeficient, DegenerateGeometry, SingularNormalEquations,
              NonFiniteResidual)


DEFAULT_CENTER_BOUND_M = 0.05


@dataclass(frozen=True)
class MappingConfig:
    """The settings every fit reads (see the module docs); a center bound
    of None leaves e unbounded, 0 pins it at e0 = 0.  A bad field raises
    ValueError naming it (TypeError for an lm that is not LMSettings)."""

    eye_resolution: tuple = DEFAULT_EYE_RESOLUTION
    normalize_residuals: bool = True
    center_bounds_m: float = DEFAULT_CENTER_BOUND_M
    lm: LMSettings = field(default_factory=LMSettings)

    def __post_init__(self):
        res = np.asarray(self.eye_resolution, dtype=object)
        if res.shape != (2,) or not all(is_number(v) and v > 0 for v in res):
            raise ValueError(f"eye_resolution must be two finite numbers > 0, "
                             f"got {self.eye_resolution!r}")
        if not isinstance(self.normalize_residuals, bool):
            raise ValueError(f"normalize_residuals must be true or false, "
                             f"got {self.normalize_residuals!r}")
        bound = self.center_bounds_m
        if bound is not None and not (is_number(bound) and bound >= 0):
            raise ValueError(f"center_bounds_m must be a finite number >= 0 "
                             f"or null (unbounded), got {bound!r}")
        if not isinstance(self.lm, LMSettings):
            raise TypeError(f"lm must be an LMSettings, got "
                            f"{type(self.lm).__name__}")


def poly_features(p) -> np.ndarray:
    """Anisotropic polynomial feature q = (1, u, v, uv, u^2, v^2, u^2 v^2)."""
    u, v = np.asarray(p, dtype=float)
    return np.array([1.0, u, v, u * v, u * u, v * v, u * u * v * v])


def _feature_matrix(pupils_px, resolution):
    """Features of (..., 2) pupil pixels, normalized by a resolution
    that broadcasts against them: a (..., 7) array."""
    res = np.asarray(resolution, dtype=float)
    norm = (np.asarray(pupils_px, dtype=float) - res / 2.0) / (res / 2.0)
    u, v = norm[..., 0], norm[..., 1]
    return np.stack((np.ones_like(u), u, v, u * v, u * u, v * v,
                     u * u * v * v), axis=-1)


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


def _rows(values, width):
    """An (N, width) float array of N vectors of `width` entries."""
    rows = (np.asarray(values, dtype=float) if len(values)
            else np.empty((0, width)))
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"expected vectors of {width} entries, "
                         f"got an array of shape {rows.shape}")
    return rows


def _split_pairs(calib):
    """The inputs and the targets of (input, target) pairs, as lists."""
    pairs = list(calib)
    return [a for a, _ in pairs], [b for _, b in pairs]


def _check_targets(targets):
    """Reject targets at the initial eyeball center e0 = 0 (before any
    division by their distance) or all collinear with it."""
    norms = np.linalg.norm(targets, axis=1, keepdims=True)
    coincident = norms[:, 0] < 1e-12
    if coincident.any():
        i = int(np.argmax(coincident))
        raise DegenerateGeometry(f"calibration target {i} at "
                                 f"{targets[i].tolist()} coincides with the "
                                 "initial eyeball center")
    dirs = targets / norms
    crosses = _kernels._cross(dirs, dirs[0])
    if np.all(np.linalg.norm(crosses, axis=1) < 1e-9):
        raise DegenerateGeometry("all targets collinear with the initial "
                                 "eyeball center; rays cannot be constrained")


def _check_finite(mapper_id, inputs, targets):
    """Reject a set holding a NaN or infinity, naming the field, before
    any least-squares solve or LM step sees it."""
    for name, rows in zip(_fields(mapper_id), (inputs, targets)):
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NonFiniteResidual(f"{name} of sample {i} is not finite: "
                                    f"{rows[i].tolist()}")


def _center_box(dim, center_bounds):
    if center_bounds is None:
        return None, None
    lower = np.full(dim, -np.inf)
    upper = np.full(dim, np.inf)
    lower[-3:] = -center_bounds
    upper[-3:] = center_bounds
    return lower, upper


def fit_2d_to_2d(calib, config: MappingConfig = MappingConfig()):
    """Least-squares fit of the 7x2 weight matrix from (p, s) pairs:
    fit_arrays on one set."""
    return _one_fit(fit_arrays("2d2d", [_split_pairs(calib)], config))


def _fit_2d2d(pupils, scene, eye_resolution):
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


def _setup_2d3d(pupils, targets, eye_resolution):
    """Checks and LM start of a 2D-to-3D fit: (features, targets, x0)."""
    if len(pupils) < 9:
        raise RankDeficient(f"need at least 9 samples, got {len(pupils)}")
    _check_targets(targets)
    feats = _feature_matrix(pupils, eye_resolution)

    # Initialization: e0 = 0 and w0 from the linear regression q -> polar
    # angles of t - e0.
    alpha = direction_to_polar(targets)
    w0, _, rank, _ = np.linalg.lstsq(feats, alpha, rcond=None)
    if rank < 7:
        raise RankDeficient(f"feature matrix rank {rank} < 7")
    return feats, targets, np.concatenate((w0.ravel(), np.zeros(3)))


def _setup_3d3d(poses, targets):
    """Checks and LM start of a 3D-to-3D fit: (unit poses, targets, x0)."""
    if len(poses) < 3:
        raise DegenerateGeometry(f"need at least 3 samples, got {len(poses)}")
    _check_targets(targets)
    poses = poses / np.linalg.norm(poses, axis=1, keepdims=True)
    return poses, targets, np.array([0.0, np.pi, 0.0, 0.0, 0.0, 0.0])


def _lm_layout(mapper_id):
    """Residual and Jacobian kernels, dim and wrap mask of an LM fit."""
    if mapper_id == "2d3d":
        return _kernels.residuals_2d3d, _kernels.jacobian_2d3d, 17, None
    return (_kernels.residuals_3d3d, _kernels.jacobian_3d3d, 6,
            np.array([True, True, True, False, False, False]))


def _lm_batch(mapper_id, groups, normalize, center_bounds):
    """The ProblemBatch of 2d3d or 3d3d fits, from (inputs, targets)
    arrays of each group of fits with equal sample counts, stacked on a
    leading axis; fits are numbered group by group.  A cost or normal
    equations call is one kernel call on the ragged rows of every fit it
    evaluates (a group evaluated whole is passed as it is, and a fit's
    inputs are read once for both damping rungs), and r . r, J^T J and
    J^T r are one matmul per group."""
    residual, jacobian, dim, wrap = _lm_layout(mapper_id)
    lower, upper = _center_box(dim, center_bounds)
    group_start = np.cumsum([0] + [len(x) for x, _ in groups])

    def evaluate(kernel, rows, params):
        """`kernel` on the fits of the sorted indices `rows`, and for
        each group among them (a, b, start, end): its fits are rows[a:b]
        and their output rows start:end."""
        cuts = np.searchsorted(rows, group_start).tolist()
        inputs, targets, parts, end = [], [], [], 0
        for g, (a, b) in enumerate(zip(cuts, cuts[1:])):
            if b > a:
                x, t = groups[g]
                if b - a < len(x):
                    idx = rows[a:b] - group_start[g]
                    x, t = x[idx], t[idx]
                inputs.append(x)
                targets.append(t)
                parts.append((a, b, end, end + 3 * x.shape[0] * x.shape[1]))
                end = parts[-1][-1]
        return kernel(params, inputs, targets, normalize), parts

    def cost(rows, params):
        r, parts = evaluate(residual, rows, params)
        out = np.empty(params.shape[:-1])
        for a, b, start, end in parts:
            fits = r[..., start:end].reshape(r.shape[:-1] + (b - a, -1))
            squares = (fits[..., None, :] @ fits[..., :, None])[..., 0, 0]
            out[..., a:b] = np.where(np.isfinite(fits).all(axis=-1),
                                     squares, np.nan)
        return out

    def normal_equations(rows, params):
        (r, jac), parts = evaluate(jacobian, rows, params)
        jtj = np.empty((len(rows), dim, dim))
        jtr = np.empty((len(rows), dim))
        finite = np.empty(len(rows), dtype=bool)
        for a, b, start, end in parts:
            fits = jac[start:end].reshape(b - a, -1, dim)
            fits_t = np.swapaxes(fits, 1, 2)
            jtj[a:b] = fits_t @ fits
            jtr[a:b] = (fits_t @ r[start:end].reshape(b - a, -1, 1))[..., 0]
            finite[a:b] = np.isfinite(fits).all(axis=(1, 2))
        return jtj, jtr, finite

    return ProblemBatch(dim=dim, size=int(group_start[-1]), cost=cost,
                        normal_equations=normal_equations,
                        lower=lower, upper=upper, wrap_mask=wrap)


def _lm_model(mapper_id, report, eye_resolution):
    if mapper_id == "2d3d":
        return Model2Dto3D(weights=report.params[:14].reshape(7, 2),
                           center=report.params[14:17],
                           eye_resolution=np.asarray(eye_resolution,
                                                     dtype=float),
                           report=report)
    return Model3Dto3D(angles=report.params[:3], center=report.params[3:6],
                       report=report)


def fit_2d_to_3d(calib, config: MappingConfig = MappingConfig()):
    """Joint LM fit of polynomial angle weights and eyeball center from
    (p, t) pairs: fit_arrays on one set."""
    return _one_fit(fit_arrays("2d3d", [_split_pairs(calib)], config))


def predict_2d_to_3d(model: Model2Dto3D, p) -> GazeEstimate:
    """Gaze ray from the fitted eyeball center."""
    feats = _feature_matrix(np.asarray(p, dtype=float)[None, :],
                            model.eye_resolution)
    alpha = (feats @ model.weights)[0]
    return GazeEstimate(ray=Ray(model.center, polar_to_direction(alpha)))


def fit_3d_to_3d(calib, config: MappingConfig = MappingConfig()):
    """LM fit of rotation angles and eyeball center from (n, t) pairs:
    fit_arrays on one set (eye_resolution is not read)."""
    return _one_fit(fit_arrays("3d3d", [_split_pairs(calib)], config))


def predict_3d_to_3d(model: Model3Dto3D, n) -> GazeEstimate:
    """Gaze ray e + lambda R n for a unit pupil pose n."""
    direction = model.rotation @ np.asarray(n, dtype=float)
    return GazeEstimate(ray=Ray(model.center, normalize(direction)))


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


def usable_rows(mapper_id: str, columns: SampleColumns,
                fitting=True) -> np.ndarray:
    """The mask of the rows of `columns` holding both fields of
    `mapper_id` for fitting, or its input field for scoring
    (fitting=False)."""
    if not isinstance(columns, SampleColumns):
        raise TypeError(f"samples must be a SampleColumns, got "
                        f"{type(columns).__name__}")
    mask = np.ones(len(columns), dtype=bool)
    for f in _fields(mapper_id)[:2 if fitting else 1]:
        mask &= columns.present(f)
    return mask


def column_arrays(mapper_id: str, columns: SampleColumns,
                  fitting=True) -> tuple:
    """The arrays `mapper_id` fits from the usable rows of one
    SampleColumns group (see usable_rows), or scores them with
    (fitting=False): (N, n) arrays of its input field and of the field it
    fits to, or of the scene targets, as new arrays."""
    keep = usable_rows(mapper_id, columns, fitting)
    source, target = _fields(mapper_id)
    return tuple(getattr(columns, f)[keep]
                 for f in (source, target if fitting else "target"))


def _one_fit(results):
    """The model of a one-set fit, or the fit error it failed with raised."""
    [result] = results
    if isinstance(result, Exception):
        raise result
    return result


def fit_mapper(mapper_id: str, samples: SampleColumns,
               config: MappingConfig = MappingConfig()):
    """Fit one mapper from the usable rows of a SampleColumns group (see
    usable_rows): fit_arrays on one set, with its fit error raised."""
    return _one_fit(fit_arrays(mapper_id, [column_arrays(mapper_id, samples)],
                               config))


def fit_arrays(mapper_id: str, array_sets,
               config: MappingConfig = MappingConfig()) -> list:
    """Fit one mapper on each of `array_sets`, (inputs, targets) pairs of
    (N, n) arrays of its two fields (see column_arrays): per set, its
    model or the FIT_ERRORS exception its fit failed with; a set holding a
    NaN or infinity fails with NonFiniteResidual.  A set whose arrays
    have other shapes raises ValueError.

    This is the one fit path: fit_mapper, the pair-based
    fit_2d_to_2d/fit_2d_to_3d/fit_3d_to_3d and the depth sweep all call
    it.  2d3d and 3d3d sets are fitted in one solve_lm_batch call on
    one ProblemBatch, sets with equal sample counts in one group; each
    fit takes the steps it takes alone, so its report does not depend on
    the other sets.  2d2d fits are one least-squares solve per set.
    """
    widths = [_WIDTHS[f] for f in _fields(mapper_id)]
    results = [None] * len(array_sets)
    groups = {}         # sample count -> [(set index, (inputs, targets, x0))]
    for i, arrays in enumerate(array_sets):
        inputs, targets = map(_rows, arrays, widths)
        if len(inputs) != len(targets):
            raise ValueError(f"set {i} has {len(inputs)} inputs but "
                             f"{len(targets)} targets")
        try:
            _check_finite(mapper_id, inputs, targets)
            if mapper_id == "2d2d":
                results[i] = _fit_2d2d(inputs, targets, config.eye_resolution)
                continue
            setup = (_setup_2d3d(inputs, targets, config.eye_resolution)
                     if mapper_id == "2d3d" else _setup_3d3d(inputs, targets))
        except FIT_ERRORS as err:
            results[i] = err
            continue
        groups.setdefault(len(inputs), []).append((i, setup))
    indices, arrays, starts = [], [], []
    while groups:       # popped, so each set's arrays go once stacked
        index, setups = zip(*groups.popitem()[1])
        inputs, targets, x0 = map(np.stack, zip(*setups))
        del setups
        indices += index
        arrays.append((inputs, targets))
        starts.append(x0)
    if arrays:
        batch = _lm_batch(mapper_id, arrays, config.normalize_residuals,
                          config.center_bounds_m)
        reports = solve_lm_batch(batch, np.concatenate(starts), config.lm)
        for i, report in zip(indices, reports):
            results[i] = (report if isinstance(report, Exception) else
                          _lm_model(mapper_id, report, config.eye_resolution))
    return results


def mapper_of(model) -> str:
    """The mapper id of a fitted model; TypeError for any other object.
    The one "is this a mapper model" rule of prediction, scoring and
    model files."""
    if not isinstance(model, (Model2Dto2D, Model2Dto3D, Model3Dto3D)):
        raise TypeError(f"not a mapper model: {type(model).__name__}")
    return model.mapper_id


def predict_sample(model, sample) -> GazeEstimate:
    """Predict a gaze estimate for one sample (a SimSample, or any object
    holding the model's input field), dispatching on model type: the
    scalar oracle of predict_ray_arrays."""
    value = getattr(sample, _fields(mapper_of(model))[0])
    if isinstance(model, Model2Dto2D):
        return predict_2d_to_2d(model, value)
    if isinstance(model, Model2Dto3D):
        return predict_2d_to_3d(model, value)
    return predict_3d_to_3d(model, value)


def predict_ray_arrays(models, inputs, scene_cam: PinholeCamera):
    """Gaze rays of each of `models` (all of one mapper) for every row of
    an (N, n) array of their input field: (M, N, 3) arrays of origins and
    unit directions in the scene frame, 2D estimates back-projected
    through `scene_cam`.  The origins are a read-only broadcast of each
    model's one origin.  Each model's rays are the bits a call with that
    model alone gives: every step is row by row or one matrix product per
    model.
    """
    first = models[0]
    inputs = _rows(inputs, _WIDTHS[_fields(mapper_of(first))[0]])
    if any(type(model) is not type(first) for model in models):
        raise TypeError("models must all be of one mapper")
    if isinstance(first, Model3Dto3D):
        origin = np.stack([model.center for model in models])
        rotations = np.stack([model.rotation for model in models])
        directions = inputs @ np.swapaxes(rotations, 1, 2)
        directions = normalize_rows(directions.reshape(-1, 3)).reshape(
            directions.shape)
    else:
        resolutions = np.stack([model.eye_resolution for model in models])
        out = (_feature_matrix(inputs, resolutions[:, None])
               @ np.stack([model.weights for model in models]))
        if isinstance(first, Model2Dto2D):     # scene pixels
            origin = scene_cam.translation[None]
            directions = back_project_batch(
                scene_cam, out.reshape(-1, 2)).reshape(out.shape[:-1] + (3,))
        else:                                  # polar angles
            origin = np.stack([model.center for model in models])
            directions = polar_to_direction(out)
    origins = np.broadcast_to(np.asarray(origin, dtype=float)[:, None],
                              directions.shape)
    return origins, directions
