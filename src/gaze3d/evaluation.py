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

Scoring has one owner, _scores: one pass over the rows of several test
sets for several models of one mapper.  evaluate is that pass for one
model, whose mapper labels the record; angular_error is the same metric
for one estimate, the scalar oracle the batched path is tested against.

Experiments: depth_combination_sweep fits every mapper on every subset
of k calibration depths (pooling their samples) and evaluates on all
test depths; offset_analysis regroups the single-depth records by signed
calibration-to-test depth offset.  Per mapper, the sweep takes each
depth's usable calibration and test rows from the bundle's SampleColumns
with a mask (column_arrays), fits all subsets from concatenations of
those arrays with one fit_arrays call (one lockstep LM solve, see
gaze3d.optimizer), and scores every ok fit at every test depth with one
_scores pass.  Only if that pass meets a target some fit cannot project
does it score each (fit, depth) alone, so that just those records fail.
The records carry the bits evaluate gives for the same fit and depth,
unless that depth has one usable test record: numpy computes a one-row
matrix product another way, which can differ in the last bit.
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
    MAPPER_IDS,
    GazeEstimate,
    MappingConfig,
    column_arrays,
    fit_arrays,
    fit_mapper,  # noqa: F401 - re-exported; perfbench traces it here
    mapper_of,
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


def evaluate(model, samples: SampleColumns, reference,
             scene_cam: PinholeCamera, test_depth=None) -> ErrorRecord:
    """Score a fitted model on the usable rows (column_arrays) of a
    SampleColumns test group, which must hold at least one: the per-target
    errors, their mean and population std (see _scores), in a record
    labelled with the model's mapper.  Raises the GeometryError of the
    first target that cannot be projected."""
    mapper_id = mapper_of(model)
    inputs, targets = column_arrays(mapper_id, samples, fitting=False)
    if not len(inputs):
        raise ValueError("empty test set")
    [scores] = _scores([model], [(inputs, targets)], reference, scene_cam)
    return ErrorRecord(mapper=mapper_id, calib_subset=(),
                       test_depth=test_depth, **scores)


def _scores(models, tests, reference, scene_cam) -> list:
    """ErrorRecord fields (errors, mean, population std) of each of
    `models`, all of one mapper, on each of `tests`, (inputs, targets)
    arrays, in model then set order.  One predict_ray_arrays, plane
    intersection and angle call cover all rows: each ray meets its own
    target's plane z = target[2], and the error is the angle at
    `reference`.  Raises the GeometryError of the first target some model
    cannot project."""
    inputs, targets = (np.concatenate(arrays) for arrays in zip(*tests))
    origins, directions = predict_ray_arrays(models, inputs, scene_cam)
    targets = np.broadcast_to(targets, directions.shape).reshape(-1, 3)
    hits = intersect_ray_depth_plane_batch(origins.reshape(-1, 3),
                                           directions.reshape(-1, 3),
                                           targets[:, 2])
    errors = angle_between_batch(hits - reference, targets - reference)
    stops = np.cumsum([len(t) for _, t in tests])[:-1]
    blocks = np.split(errors.reshape(directions.shape[:-1]), stops, axis=1)
    stats = [(block.mean(axis=1).tolist(), block.std(axis=1).tolist())
             for block in blocks]
    return [{"errors": block[i], "mean": means[i], "std": stds[i]}
            for i in range(len(models))
            for block, (means, stds) in zip(blocks, stats)]


def _score_fits(mapper_id, subsets, models, depths, tests, reference,
                scene_cam) -> list:
    """ErrorRecords of every fit of one mapper (a model, or the exception
    its fit raised) at each of `depths`, in subset then depth order;
    `tests` maps each depth holding a test group to its scoring arrays
    (column_arrays), and a depth without usable test samples fails.  Only
    if the one _scores pass fails is each (fit, depth) scored alone, so
    that just the records with a target their fit cannot project fail.
    """
    ok = [i for i, model in enumerate(models)
          if not isinstance(model, Exception)]
    scored = [d for d, (inputs, _) in tests.items() if len(inputs)]
    scores = {}         # (fit index, depth) -> ErrorRecord fields
    if ok and scored:
        try:
            scores.update(zip(itertools.product(ok, scored), _scores(
                [models[i] for i in ok], [tests[d] for d in scored],
                reference, scene_cam)))
        except GeometryError:   # a target some fit cannot project
            for i, d in itertools.product(ok, scored):
                try:
                    [scores[i, d]] = _scores([models[i]], [tests[d]],
                                             reference, scene_cam)
                except GeometryError:
                    pass
    return [ErrorRecord(mapper=mapper_id, calib_subset=subset, test_depth=d,
                        **scores.get((i, d), {"status": "failed"}))
            for i, subset in enumerate(subsets) for d in depths]


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

    calibration, test = bundle.calibration, bundle.test
    records = []
    for mapper in mappers:
        # each depth's usable rows, as arrays: samples a mapper cannot
        # use are dropped, as the CLI does; a depth left with no test
        # samples fails
        fits = {d: column_arrays(mapper, calibration[d]) for d in depths}
        tests = {d: column_arrays(mapper, test[d], fitting=False)
                 for d in depths if d in test}
        subsets = [subset for k in k_range
                   for subset in itertools.combinations(depths, k)]
        models = fit_arrays(mapper, [
            tuple(map(np.concatenate, zip(*(fits[d] for d in subset))))
            for subset in subsets], config)
        records += _score_fits(mapper, subsets, models, depths, tests,
                               reference, scene_cam)
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
