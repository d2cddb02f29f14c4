"""Angular-error metrics and the multi-depth experiment protocols.

Errors are visual angles in degrees.  Every estimate is reduced to a ray
in the scene frame (2D estimates are back-projected through the scene
camera), the ray is intersected with the target's fronto-parallel plane
to give the estimated fixation t', and the error is the angle subtended
at a reference point between t' and the true target.  The reference is
the ground-truth eyeball center for simulated data and the scene-camera
origin for real recordings (where the two coincide by assumption; for a
ray through the scene origin this equals the plain angle between the
back-projected direction and the target direction).

evaluate scores a whole test set, a list of records or a SampleColumns
group, with array operations: one predict_ray_arrays call for its rays,
then the batched plane intersection and angle.  angular_error is the
same metric for one estimate, kept as the scalar reference the batched
path is tested against.

Experiments: depth_combination_sweep fits every mapper on every subset
of k calibration depths (pooling their samples) and evaluates on all
test depths; offset_analysis regroups the single-depth records by signed
calibration-to-test depth offset.  Per mapper, the sweep takes each
depth's usable calibration and test rows from the bundle's SampleColumns
with a mask (column_arrays), fits all subsets from concatenations of
those arrays with one fit_arrays call (one lockstep LM solve, see
gaze3d.optimizer), and scores every ok fit at every test depth in one
pass: one prediction of all (fit, target) rays, one plane intersection,
one angle call, and the mean and std of each (fit, depth) block along an
axis.  Only if that pass meets a target some fit cannot project does it
score each (fit, depth) alone, so that just those records fail.  The
records carry the bits evaluate gives for the same fit and depth, unless
that depth has one usable test record: numpy computes a one-row matrix
product another way, which can differ in the last bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .eye_simulator import DatasetBundle, SampleColumns
from .geometry import (
    GeometryError,
    PinholeCamera,
    angle_between,
    angle_between_batch,
    back_project,
    intersect_ray_depth_plane,
    intersect_ray_depth_plane_batch,
)
from .mappers import (
    FIT_ERRORS,  # noqa: F401 - re-exported
    MAPPER_IDS,
    GazeEstimate,
    MappingConfig,
    _sample_arrays,
    column_arrays,
    fit_arrays,
    fit_mapper,  # noqa: F401 - re-exported; perfbench traces it here
    predict_ray_arrays,
    predict_sample,  # noqa: F401 - re-exported; perfbench traces it here
)


def angular_error(estimate: GazeEstimate, target, reference,
                  scene_cam: PinholeCamera) -> float:
    """Angular error of one gaze estimate in degrees (see module docs)."""
    target = np.asarray(target, dtype=float)
    ray = (back_project(scene_cam, estimate.point) if estimate.point is not None
           else estimate.ray)
    t_prime = intersect_ray_depth_plane(ray, target[2])
    return angle_between(t_prime - reference, target - reference)


@dataclass(frozen=True)
class ErrorRecord:
    """Per-target angular errors of one fitted mapper on one test depth."""

    mapper: str
    calib_subset: tuple
    test_depth: float
    errors: np.ndarray = None
    mean: float = None
    std: float = None
    status: str = "ok"

    @property
    def k(self):
        return len(self.calib_subset)

    @property
    def n_targets(self):
        return 0 if self.errors is None else len(self.errors)


def evaluate(mapper_id, model, samples, reference,
             scene_cam: PinholeCamera, calib_subset=(),
             test_depth=None) -> ErrorRecord:
    """Evaluate a fitted model on a test set, a list of records holding
    its input field (record_arrays; a record without it raises
    ValueError) or the usable rows of a SampleColumns group
    (column_arrays); mean and population std.

    Scores every target at once: one predict_ray_arrays call, then each
    predicted ray meets its own target's plane z = target[2], and the
    error is the angle at `reference`, as in angular_error.  Raises the
    GeometryError of the first target that cannot be projected.
    """
    inputs, targets = _sample_arrays(mapper_id, samples, fitting=False)
    if not len(inputs):
        raise ValueError("empty test set")
    [scores] = _row_scores(_target_errors(
        predict_ray_arrays([model], inputs, scene_cam), targets, reference))
    return ErrorRecord(mapper=mapper_id, calib_subset=tuple(calib_subset),
                       test_depth=test_depth, **scores)


def _target_errors(rays, targets, reference):
    """The angular errors of (..., N, 3) arrays of ray origins and
    directions against an (N, 3) array of targets, as an (..., N) array,
    computed row by row."""
    origins, directions = rays
    shape = directions.shape[:-1]
    targets = np.broadcast_to(targets, directions.shape).reshape(-1, 3)
    hits = intersect_ray_depth_plane_batch(origins.reshape(-1, 3),
                                           directions.reshape(-1, 3),
                                           targets[:, 2])
    return angle_between_batch(hits - reference,
                               targets - reference).reshape(shape)


def _row_scores(errors):
    """ErrorRecord fields of each row of an (M, N) error array: the row,
    its mean and its population std (divide by N), taken along the rows
    (the bits of the 1-D calls)."""
    means, stds = errors.mean(axis=1).tolist(), errors.std(axis=1).tolist()
    return [{"errors": row, "mean": mean, "std": std}
            for row, mean, std in zip(errors, means, stds)]


def _score_fits(mapper_id, subsets, models, tests, reference,
                scene_cam) -> list:
    """ErrorRecords of every fit of one mapper (a model, or the exception
    its fit raised) at each depth of `tests` (depth -> scoring arrays of
    column_arrays), in subset then depth order.

    All ok fits are scored at every depth with test samples in one pass:
    one prediction, one plane intersection and one angle call, then the
    mean and std of each (fit, depth) block along its rows.  Only if that
    pass meets a target some fit cannot project is each (fit, depth)
    scored alone, so that just those records fail.
    """
    ok = [i for i, model in enumerate(models)
          if not isinstance(model, Exception)]
    scored = [d for d, (inputs, _) in tests.items() if len(inputs)]
    scores = {}         # (fit index, depth) -> ErrorRecord fields
    if ok and scored:
        try:
            errors = _target_errors(
                predict_ray_arrays([models[i] for i in ok],
                                   np.concatenate([tests[d][0]
                                                   for d in scored]),
                                   scene_cam),
                np.concatenate([tests[d][1] for d in scored]), reference)
        except GeometryError:   # a target some fit cannot project
            for i, d in itertools.product(ok, scored):
                inputs, targets = tests[d]
                try:
                    [scores[i, d]] = _row_scores(_target_errors(
                        predict_ray_arrays([models[i]], inputs, scene_cam),
                        targets, reference))
                except GeometryError:
                    pass
        else:
            stops = np.cumsum([len(tests[d][0]) for d in scored])[:-1]
            for d, block in zip(scored, np.split(errors, stops, axis=1)):
                scores.update(zip([(i, d) for i in ok], _row_scores(block)))
    return [ErrorRecord(mapper=mapper_id, calib_subset=subset,
                        test_depth=d, **scores[i, d]) if (i, d) in scores
            else ErrorRecord(mapper=mapper_id, calib_subset=subset,
                             test_depth=d, status="failed")
            for i, subset in enumerate(subsets) for d in tests]


@dataclass(frozen=True)
class SweepResult:
    """All ErrorRecords of a depth-combination sweep."""

    records: tuple

    def select(self, mapper=None, k=None, status=None):
        out = self.records
        if mapper is not None:
            out = [r for r in out if r.mapper == mapper]
        if k is not None:
            out = [r for r in out if r.k == k]
        if status is not None:
            out = [r for r in out if r.status == status]
        return list(out)

    def mean_by_k(self, mapper):
        """Mean error over all ok subsets and test depths, per k; a k with
        no ok record is left out."""
        ok = self.select(mapper, status="ok")
        return {k: float(np.mean([r.mean for r in ok if r.k == k]))
                for k in sorted({r.k for r in ok})}


def depth_combination_sweep(bundle: DatasetBundle, mappers=MAPPER_IDS,
                            k_range=None, config: MappingConfig = None) -> SweepResult:
    """Fit every mapper on every k-subset of calibration depths.

    Evaluates each fit against the test sets of every depth, referencing
    errors to the rig's ground-truth eyeball center.  Failed fits yield
    explicit `status="failed"` records for every test depth, and a test
    depth the fitted model cannot project (its ray misses a target plane)
    or with no usable test records yields one for that depth alone, so
    aggregate statistics are never silently biased and one bad
    prediction never aborts the sweep.
    """
    depths = bundle.depths()
    if k_range is None:
        k_range = range(1, len(depths) + 1)
    if config is None:
        config = MappingConfig(
            eye_resolution=tuple(bundle.rig.eye_camera.resolution))
    reference = bundle.rig.e_gt
    scene_cam = bundle.rig.scene_camera

    calibration, test = bundle.calibration.columns, bundle.test.columns
    no_tests = SampleColumns.from_records(())
    records = []
    for mapper in mappers:
        # each depth's usable rows, as arrays: samples a mapper cannot
        # use are dropped, as the CLI does; a depth left with no test
        # samples fails
        fits = {d: column_arrays(mapper, calibration[d]) for d in depths}
        tests = {d: column_arrays(mapper, test.get(d, no_tests),
                                  fitting=False)
                 for d in depths}
        subsets = [subset for k in k_range
                   for subset in itertools.combinations(depths, k)]
        models = fit_arrays(mapper, [
            tuple(map(np.concatenate, zip(*(fits[d] for d in subset))))
            for subset in subsets], config)
        records += _score_fits(mapper, subsets, models, tests, reference,
                               scene_cam)
    return SweepResult(records=tuple(records))


@dataclass(frozen=True)
class OffsetBucket:
    """Aggregated error at one signed (test - calibration) depth offset."""

    offset_m: float
    mean_error_deg: float
    std_error_deg: float
    n_records: int


def offset_analysis(sweep: SweepResult, mapper=None) -> list:
    """Group k=1 records by signed test-minus-calibration depth offset.

    Negative offsets are test depths closer than the calibration depth.
    Means average the per-record means; std is the population std of the
    pooled per-target errors.  Pools every mapper unless one is named.
    """
    singles = sweep.select(mapper, k=1, status="ok")
    if not singles:
        raise ValueError("sweep contains no successful k=1 records")
    buckets = {}
    for rec in singles:
        offset = round(rec.test_depth - rec.calib_subset[0], 9)
        buckets.setdefault(offset, []).append(rec)
    out = []
    for offset in sorted(buckets):
        recs = buckets[offset]
        pooled = np.concatenate([r.errors for r in recs])
        out.append(OffsetBucket(offset_m=offset,
                                mean_error_deg=float(np.mean([r.mean for r in recs])),
                                std_error_deg=float(pooled.std()),
                                n_records=len(recs)))
    return out


def parallax_curves(sweep: SweepResult, mapper: str) -> dict:
    """Per-calibration-depth error curves from the k=1 records:
    {calibration depth: [(test depth, mean error), ...]}."""
    curves = {}
    for rec in sweep.select(mapper, k=1, status="ok"):
        curves.setdefault(rec.calib_subset[0], []).append(
            (rec.test_depth, rec.mean))
    return {dc: sorted(points) for dc, points in sorted(curves.items())}
