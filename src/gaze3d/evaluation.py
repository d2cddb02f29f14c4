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

evaluate scores a whole test set with array operations (predict_rays,
then the batched plane intersection and angle); angular_error is the
same metric for one estimate, kept as the scalar reference the batched
path is tested against.

Experiments: depth_combination_sweep fits every mapper on every subset
of k calibration depths (pooling their samples) and evaluates on all
test depths; offset_analysis regroups the single-depth records by signed
calibration-to-test depth offset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .eye_simulator import DatasetBundle
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
    MAPPER_IDS,
    DegenerateGeometry,
    GazeEstimate,
    MappingConfig,
    RankDeficient,
    fit_mapper,
    predict_rays,
    predict_sample,  # noqa: F401 - re-exported; perfbench traces it here
    select_records,
)
from .optimizer import NonFiniteResidual, SingularNormalEquations

FIT_ERRORS = (RankDeficient, DegenerateGeometry, SingularNormalEquations,
              NonFiniteResidual)


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
    """Evaluate a fitted model on a test set; mean and population std.

    Scores every target at once: each predicted ray meets its own
    target's plane z = target[2], and the error is the angle at
    `reference`, as in angular_error.  Raises the GeometryError of the
    first target that cannot be projected.
    """
    if not samples:
        raise ValueError("empty test set")
    origins, directions = predict_rays(model, samples, scene_cam)
    targets = np.array([s.target for s in samples], dtype=float)
    hits = intersect_ray_depth_plane_batch(origins, directions, targets[:, 2])
    errors = angle_between_batch(hits - reference, targets - reference)
    return ErrorRecord(mapper=mapper_id, calib_subset=tuple(calib_subset),
                       test_depth=test_depth, errors=errors,
                       mean=float(errors.mean()),
                       std=float(errors.std()))   # population (divide by N)


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
        """Mean error over all subsets and test depths, per k."""
        ks = sorted({r.k for r in self.records if r.mapper == mapper})
        return {k: float(np.mean([r.mean for r in self.select(mapper, k, "ok")]))
                for k in ks}


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

    records = []
    for mapper in mappers:
        # records a mapper cannot use are dropped, as the CLI does; a
        # depth left with no test records fails
        calibration = {d: select_records(mapper, bundle.calibration[d])
                       for d in depths}
        tests = {d: select_records(mapper, bundle.test.get(d, ()),
                                   fitting=False)
                 for d in depths}
        for k in k_range:
            for subset in itertools.combinations(depths, k):
                samples = [s for d in subset for s in calibration[d]]
                try:
                    if not samples:
                        raise DegenerateGeometry(
                            f"no usable calibration samples for {mapper}")
                    model = fit_mapper(mapper, samples, config)
                except FIT_ERRORS:
                    model = None
                for depth in depths:
                    record = ErrorRecord(mapper=mapper, calib_subset=subset,
                                         test_depth=depth, status="failed")
                    if model is not None and tests[depth]:
                        try:
                            record = evaluate(
                                mapper, model, tests[depth], reference,
                                scene_cam, calib_subset=subset,
                                test_depth=depth)
                        except GeometryError:
                            pass   # a target this model cannot project
                    records.append(record)
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
