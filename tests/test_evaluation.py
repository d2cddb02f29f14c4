"""Metric semantics and experiment-protocol bookkeeping."""

import inspect
import itertools
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaze3d.dataset_io import load_dataset, save_dataset
from gaze3d.eye_simulator import (
    GRID_PRESETS,
    DatasetBundle,
    PupilNotVisible,
    SampleColumns,
    SimRig,
    TargetNotVisible,
    TwoSphereEye,
    default_bundle,
    synthesize_dataset,
)
from gaze3d.geometry import (
    BehindOrigin,
    GeometryError,
    ParallelToPlane,
    PinholeCamera,
    Ray,
    normalize,
    project,
    rotation_from_angles,
)
from gaze3d import _kernels, evaluation, optimizer
from gaze3d.evaluation import (
    ErrorRecord,
    angular_error,
    depth_combination_sweep,
    evaluate,
    offset_analysis,
    parallax_curves,
)
from gaze3d.mappers import (
    FIT_ERRORS,
    MAPPER_IDS,
    GazeEstimate,
    MappingConfig,
    Model2Dto3D,
    Model3Dto3D,
    column_arrays,
    fit_arrays,
    fit_mapper,
    predict_sample,
    usable_rows,
)
from helpers import pooled, rows, take, without


SCENE_CAM = SimRig().scene_camera


# ── angular_error ────────────────────────────────────────────────────────

def test_zero_error_when_ray_hits_target():
    target = np.array([0.3, -0.2, 1.7])
    origin = np.array([0.01, 0.02, -0.03])
    est = GazeEstimate(ray=Ray(origin, normalize(target - origin)))
    for reference in (np.zeros(3), np.array([0.015, 0.035, -0.025])):
        assert angular_error(est, target, reference, SCENE_CAM) < 1e-9


def test_one_degree_construction():
    # ray to t' = (2 tan 1deg, 0, 2) vs target (0,0,2) seen from the origin
    target = np.array([0.0, 0.0, 2.0])
    t_prime = np.array([2.0 * np.tan(np.radians(1.0)), 0.0, 2.0])
    est = GazeEstimate(ray=Ray(np.zeros(3), normalize(t_prime)))
    err = angular_error(est, target, np.zeros(3), SCENE_CAM)
    assert abs(err - 1.0) < 1e-9


def test_2d_estimate_of_true_projection_is_exact():
    target = np.array([0.25, 0.1, 1.5])
    est = GazeEstimate(point=project(SCENE_CAM, target))
    assert angular_error(est, target, np.zeros(3), SCENE_CAM) < 1e-9


def test_error_invariant_to_ray_origin_when_referenced_at_origin():
    # any ray hitting the same point on the target plane scores the same
    target = np.array([0.1, 0.0, 2.0])
    hit = np.array([0.15, 0.02, 2.0])
    errors = []
    for origin in ((0, 0, 0), (0.02, 0.03, -0.02), (-0.05, 0.01, 0.5)):
        origin = np.asarray(origin, dtype=float)
        est = GazeEstimate(ray=Ray(origin, normalize(hit - origin)))
        errors.append(angular_error(est, target, np.zeros(3), SCENE_CAM))
    assert np.ptp(errors) < 1e-9


def test_error_measures_direction_not_distance():
    # scaling the offset of t' along the same direction from the
    # reference leaves the angle unchanged -> compare two target depths
    reference = np.zeros(3)
    for scale in (1.0, 2.0):
        target = np.array([0.0, 0.0, 1.0]) * scale
        t_prime = np.array([0.05, 0.0, 1.0]) * scale
        est = GazeEstimate(ray=Ray(reference, normalize(t_prime)))
        err = angular_error(est, target, reference, SCENE_CAM)
        assert np.isclose(err, np.degrees(np.arctan(0.05)))


# ── evaluate ─────────────────────────────────────────────────────────────

def pose_records(*angles_deg, target=(0.0, 0.0, 2.0)):
    # pupil poses tilted by angles_deg from the target direction
    a = np.radians(angles_deg)
    n = len(a)
    return SampleColumns(
        pupil_px=np.zeros((n, 2)),
        pupil_pose=np.stack((np.sin(a), np.zeros(n), np.cos(a)), axis=1),
        target=np.tile(np.asarray(target, dtype=float), (n, 1)),
        target_px=np.full((n, 2), np.nan), depth_label=np.full(n, target[2]),
        has_pose=np.ones(n, dtype=bool), has_target_px=np.zeros(n, dtype=bool))


def identity_model():
    return Model3Dto3D(angles=(0.0, 0.0, 0.0), center=(0.0, 0.0, 0.0))


def test_evaluate_known_errors():
    rec = evaluate(identity_model(), pose_records(1.0, 3.0),
                   reference=np.zeros(3), scene_cam=SCENE_CAM,
                   test_depth=2.0)
    assert np.allclose(rec.errors, [1.0, 3.0], atol=1e-9)
    assert np.isclose(rec.mean, 2.0)
    assert np.isclose(rec.std, 1.0)          # population std
    assert rec.n_targets == 2 and rec.status == "ok"
    assert (rec.mapper, rec.calib_subset, rec.test_depth) == ("3d3d", (), 2.0)


def test_evaluate_single_sample_std_zero():
    rec = evaluate(identity_model(), pose_records(2.0), np.zeros(3),
                   SCENE_CAM)
    assert rec.std == 0.0


def test_evaluate_order_invariant():
    samples = pose_records(0.5, 1.5, 2.5, 3.5)
    a = evaluate(identity_model(), samples, np.zeros(3), SCENE_CAM)
    reverse = take(samples, slice(None, None, -1))
    b = evaluate(identity_model(), reverse, np.zeros(3), SCENE_CAM)
    assert np.isclose(a.mean, b.mean) and np.isclose(a.std, b.std)


def test_evaluate_empty_set_rejected():
    with pytest.raises(ValueError):
        evaluate(identity_model(), pose_records(), np.zeros(3),
                 SCENE_CAM)


def test_evaluate_needs_poses_for_3d3d():
    """3d3d scores only the samples holding a pose, and a set with none
    is empty."""
    bundle = synthesize_dataset(SimRig(), TwoSphereEye(), depths=(1.0, 2.0))
    samples = pooled(bundle.calibration, (1.0, 2.0))
    model = fit_mapper("3d3d", samples)
    others = np.arange(len(samples)) != 2
    scored, alone = (evaluate(model, group, bundle.rig.e_gt,
                              bundle.rig.scene_camera)
                     for group in (without(samples, "pupil_pose", 2),
                                   take(samples, others)))
    assert scored.errors.tobytes() == alone.errors.tobytes()
    with pytest.raises(ValueError, match="empty test set"):
        evaluate(model, without(samples, "pupil_pose"),
                 bundle.rig.e_gt, bundle.rig.scene_camera)
    with pytest.raises(TypeError, match="must be a SampleColumns"):
        evaluate(model, rows(samples), bundle.rig.e_gt,
                 bundle.rig.scene_camera)
    with pytest.raises(TypeError, match="^not a mapper model: object$"):
        evaluate(object(), samples, bundle.rig.e_gt,
                 bundle.rig.scene_camera)


def test_perfect_model_scores_zero():
    bundle = default_bundle("display", depths=(1.5,))
    model = Model3Dto3D(
        angles=(0.0, np.pi, 0.0),
        center=bundle.rig.e_gt)   # the true rig parameters
    rec = evaluate(model, bundle.test[1.5], bundle.rig.e_gt, SCENE_CAM)
    assert rec.mean < 1e-9 and rec.std < 1e-9


@pytest.mark.parametrize("mapper", MAPPER_IDS)
def test_evaluate_labels_the_record_with_the_models_mapper(mapper):
    """evaluate takes the mapper from the model: a record cannot carry
    another mapper's label."""
    bundle = default_bundle("display", depths=(1.0, 2.0))
    model = fit_mapper(mapper, bundle.calibration[1.0])
    rec = evaluate(model, bundle.test[2.0], bundle.rig.e_gt,
                   bundle.rig.scene_camera, test_depth=2.0)
    assert rec.mapper == model.mapper_id == mapper


def test_evaluate_signature_has_no_mapper_id():
    assert list(inspect.signature(evaluate).parameters) == [
        "model", "samples", "reference", "scene_cam", "test_depth"]


# ── batched evaluate vs the scalar angular_error oracle ──────────────────

POSED_CAM = PinholeCamera(focal=(700.0, 690.0), principal=(640.0, 360.0),
                          resolution=(1280.0, 720.0),
                          rotation=rotation_from_angles((0.05, -0.1, 0.2)),
                          translation=(0.02, -0.01, 0.03))


def scalar_errors(model, samples, reference, scene_cam):
    return [angular_error(predict_sample(model, s), s.target, reference,
                          scene_cam) for s in rows(samples)]


@pytest.mark.parametrize("noise", [(0.0, 0.0, 0.0), (1.0, 0.5, 2.0)],
                         ids=["noiseless", "noisy"])
@pytest.mark.parametrize("mapper", MAPPER_IDS)
def test_evaluate_matches_scalar_oracle(mapper, noise):
    px, deg, mm = noise
    bundle = default_bundle("display", depths=(1.0, 2.0), seed=3,
                            noise_pupil_px=px, noise_pose_deg=deg,
                            noise_target_mm=mm)
    model = fit_mapper(mapper, bundle.calibration[1.0])
    cams = [bundle.rig.scene_camera] + ([POSED_CAM] if mapper == "2d2d"
                                        else [])
    for cam in cams:
        for depth, samples in bundle.test.items():
            rec = evaluate(model, samples, bundle.rig.e_gt, cam)
            oracle = scalar_errors(model, samples, bundle.rig.e_gt, cam)
            assert np.allclose(rec.errors, oracle, rtol=0, atol=1e-12)


@pytest.mark.parametrize("alpha, error", [((0.0, np.pi), BehindOrigin),
                                          ((np.pi / 2, 0.0), ParallelToPlane)],
                         ids=["away", "parallel"])
def test_unprojectable_rays_raise_on_both_paths(alpha, error):
    # constant polar angles: every ray points away from (or along) the
    # target planes in front of the eye
    weights = np.zeros((7, 2))
    weights[0] = alpha
    model = Model2Dto3D(weights=weights, center=np.zeros(3),
                        eye_resolution=np.array([640.0, 360.0]))
    samples = default_bundle("display", depths=(1.0,)).test[1.0]
    with pytest.raises(error):
        scalar_errors(model, samples, np.zeros(3), SCENE_CAM)
    with pytest.raises(error):
        evaluate(model, samples, np.zeros(3), SCENE_CAM)


# ── sweep ────────────────────────────────────────────────────────────────

def small_bundle(depths=(1.0, 1.5, 2.0), seed=0):
    return synthesize_dataset(SimRig(), TwoSphereEye(), depths=depths,
                              seed=seed)


def test_sweep_completeness():
    bundle = small_bundle()
    sweep = depth_combination_sweep(bundle, mappers=("2d2d",))
    n_depths = len(bundle.depths())
    expected = sum(len(list(itertools.combinations(bundle.depths(), k)))
                   for k in range(1, n_depths + 1)) * n_depths
    assert len(sweep.records) == expected      # sum_k C(3,k) * 3 = 21
    # every (k, subset, depth) combination appears exactly once
    keys = {(r.k, r.calib_subset, r.test_depth) for r in sweep.records}
    assert len(keys) == len(sweep.records)


def test_sweep_five_depth_record_count():
    sweep = depth_combination_sweep(default_bundle("display"),
                                    mappers=("2d2d",))
    assert len(sweep.records) == 155           # 31 subsets x 5 test depths


def test_sweep_k2_subset_count():
    bundle = default_bundle("display")
    sweep = depth_combination_sweep(bundle, mappers=("2d2d",), k_range=(2,))
    subsets = {r.calib_subset for r in sweep.records}
    assert len(subsets) == 10                  # C(5,2)
    assert all(len(s) == 2 for s in subsets)


def test_sweep_k5_pools_all_calibration_samples():
    bundle = default_bundle("display")
    sweep = depth_combination_sweep(bundle, mappers=("2d2d",), k_range=(5,))
    assert {r.calib_subset for r in sweep.records} == {bundle.depths()}
    # 5 depths x 25 grid points available for that single fit
    assert sum(len(v) for v in bundle.calibration.values()) == 125


def test_sweep_records_failed_fits():
    bundle = small_bundle()
    # strip the pose channel: 3d3d has nothing to fit, others unaffected
    stripped = {d: without(samples, "pupil_pose")
                for d, samples in bundle.calibration.items()}
    crippled = DatasetBundle(calibration=stripped, test=bundle.test,
                             rig=bundle.rig, eye=bundle.eye)
    sweep = depth_combination_sweep(crippled, mappers=("2d2d", "3d3d"))
    ok = [r for r in sweep.records if r.status == "ok"]
    failed = [r for r in sweep.records if r.status == "failed"]
    assert all(r.mapper == "2d2d" for r in ok) and len(ok) == 21
    assert all(r.mapper == "3d3d" for r in failed) and len(failed) == 21
    for r in failed:
        assert r.errors is None and r.mean is None and r.n_targets == 0
    # a k with no ok record has no mean
    assert sweep.mean_by_k("3d3d") == {}
    assert sorted(sweep.mean_by_k("2d2d")) == [1, 2, 3]


def test_sweep_records_unprojectable_test_depth():
    # heavy noise: a 2d3d fit whose rays point away from some test plane
    bundle = default_bundle("display", depths=(1.0, 1.5, 2.0), seed=0,
                            noise_pupil_px=60, noise_pose_deg=2,
                            noise_target_mm=5)
    sweep = depth_combination_sweep(bundle, mappers=("2d3d",))
    assert len(sweep.records) == 21            # 7 subsets x 3 test depths
    failed = sweep.select(status="failed")
    assert failed
    for r in failed:
        assert r.errors is None and r.mean is None
    keys = {(r.calib_subset, r.test_depth) for r in sweep.records}
    assert len(keys) == len(sweep.records)


def per_depth_oracle(bundle, sweep):
    """Each sweep record rescored with its own fit_mapper and one
    evaluate call per test depth: (status, ErrorRecord or None) by record
    key."""
    config = MappingConfig(
        eye_resolution=tuple(bundle.rig.eye_camera.resolution))
    out = {}
    for mapper, subset in dict.fromkeys((r.mapper, r.calib_subset)
                                        for r in sweep.records):
        try:
            model = fit_mapper(mapper, pooled(bundle.calibration, subset),
                               config)
        except FIT_ERRORS:
            model = None
        for depth in bundle.depths():
            tests = bundle.test[depth]
            out[mapper, subset, depth] = ("failed", None)
            try:
                if (model is not None
                        and usable_rows(mapper, tests, fitting=False).any()):
                    out[mapper, subset, depth] = ("ok", evaluate(
                        model, tests, bundle.rig.e_gt,
                        bundle.rig.scene_camera))
            except GeometryError:
                pass
    return out


def poseless_test_depth_bundle():
    """Three depths without some poses: no test record at 2.0 m has one,
    nor the first test record at 1.0 m and every third calibration
    record at 1.5 m."""
    bundle = default_bundle("display", depths=(1.0, 1.5, 2.0))
    test = dict(bundle.test)
    test[2.0] = without(test[2.0], "pupil_pose")
    test[1.0] = without(test[1.0], "pupil_pose", 0)
    calibration = dict(bundle.calibration)
    calibration[1.5] = without(calibration[1.5], "pupil_pose",
                               slice(None, None, 3))
    return replace(bundle, test=test, calibration=calibration)


# name -> (bundle factory, failed rows of its sweep)
SWEEP_BUNDLES = {
    "noiseless": (lambda: default_bundle("display", depths=(1.0, 1.5, 2.0)),
                  0),
    "noisy": (lambda: default_bundle("display", depths=(1.0, 1.5, 2.0),
                                     seed=4, noise_pupil_px=1.0,
                                     noise_pose_deg=0.5, noise_target_mm=2.0),
              0),
    # the 2d3d fit on 2.0 m alone cannot project one target at 1.5 m and
    # one at 2.0 m (see test_unprojectable_repro_fails_the_same_records)
    "unprojectable": (lambda: default_bundle(
        "display", depths=(1.0, 1.5, 2.0), seed=0, noise_pupil_px=60,
        noise_pose_deg=2, noise_target_mm=5), 2),
    "display": (lambda: default_bundle("display"), 0),
    # 3d3d has no test record at 2.0 m: one failed row per subset
    "poseless-test-depth": (poseless_test_depth_bundle, 7),
}


@pytest.mark.parametrize("bundle", SWEEP_BUNDLES)
def test_sweep_scores_match_per_depth_evaluate(bundle):
    """The sweep scores all fits of a mapper in one pass; each record has
    the bits of evaluate on its own fit and test depth."""
    make, n_failed = SWEEP_BUNDLES[bundle]
    bundle = make()
    sweep = depth_combination_sweep(bundle)
    oracle = per_depth_oracle(bundle, sweep)
    n = len(bundle.depths())
    assert len(oracle) == len(sweep.records) == 3 * (2 ** n - 1) * n
    assert len(sweep.select(status="failed")) == n_failed
    for r in sweep.records:
        status, record = oracle[r.mapper, r.calib_subset, r.test_depth]
        assert r.status == status
        if status == "ok":
            assert np.array_equal(r.errors, record.errors)
            assert r.mean == record.mean and r.std == record.std


@pytest.mark.parametrize("bundle", ["display", "noisy",
                                    "poseless-test-depth"])
def test_sweep_fits_equal_fit_mappers(bundle, monkeypatch):
    """The sweep fits each subset from per-depth arrays; its models are
    those of fit_arrays on the subset's pooled columns, bit for bit."""
    bundle = SWEEP_BUNDLES[bundle][0]()
    fits = {}

    def recording(mapper, array_sets, config):
        fits[mapper] = fit_arrays(mapper, array_sets, config)
        return fits[mapper]

    monkeypatch.setattr(evaluation, "fit_arrays", recording)
    depth_combination_sweep(bundle)
    config = MappingConfig(
        eye_resolution=tuple(bundle.rig.eye_camera.resolution))
    depths = bundle.depths()
    for mapper in MAPPER_IDS:
        oracles = fit_arrays(mapper, [
            column_arrays(mapper, pooled(bundle.calibration, subset))
            for k in range(1, len(depths) + 1)
            for subset in itertools.combinations(depths, k)], config)
        assert len(fits[mapper]) == len(oracles) == 2 ** len(depths) - 1
        for model, oracle in zip(fits[mapper], oracles):
            assert type(model) is type(oracle)
            for name in ("weights", "angles", "center", "eye_resolution"):
                if hasattr(oracle, name):
                    assert np.array_equal(getattr(model, name),
                                          getattr(oracle, name))
            if mapper != "2d2d":
                assert model.report.iterations == oracle.report.iterations
                assert model.report.termination == oracle.report.termination
                assert np.array_equal(model.report.params,
                                      oracle.report.params)
                assert np.array_equal(model.report.cost_history,
                                      oracle.report.cost_history)


@pytest.mark.parametrize("bundle", ["display", "noisy"])
def test_saved_and_loaded_bundles_sweep_alike(bundle, tmp_path):
    """A synthesized bundle and the same bundle saved and loaded, which
    holds no gaze directions, hold the same columns and sweep to the same
    records, bit for bit."""
    bundle = SWEEP_BUNDLES[bundle][0]()
    path = tmp_path / "data.jsonl"
    save_dataset(bundle, path)
    loaded = load_dataset(path).bundle
    for role in ("calibration", "test"):
        columns = getattr(bundle, role)
        assert list(columns) == list(getattr(loaded, role))
        for depth, group in getattr(loaded, role).items():
            assert group.gaze is None
            for f in fields(SampleColumns):
                if f.name != "gaze":
                    assert (getattr(group, f.name).tobytes()
                            == getattr(columns[depth], f.name).tobytes())
    sweeps = [depth_combination_sweep(b) for b in (bundle, loaded)]
    for a, b in zip(*(s.records for s in sweeps), strict=True):
        assert ((a.mapper, a.calib_subset, a.test_depth, a.status)
                == (b.mapper, b.calib_subset, b.test_depth, b.status))
        assert a.errors.tobytes() == b.errors.tobytes()
        assert (a.mean, a.std) == (b.mean, b.std)


def test_unprojectable_repro_fails_the_same_records():
    # the 2d3d fit on 2.0 m alone cannot project one target at 1.5 m and
    # one at 2.0 m; those two records fail and the fit's 1.0 m record and
    # every other record are scored
    bundle = default_bundle("display", depths=(1.0, 1.5, 2.0), seed=0,
                            noise_pupil_px=60, noise_pose_deg=2,
                            noise_target_mm=5)
    sweep = depth_combination_sweep(bundle, mappers=("2d3d",))
    assert {(r.calib_subset, r.test_depth)
            for r in sweep.select(status="failed")} == {((2.0,), 1.5),
                                                        ((2.0,), 2.0)}
    assert len(sweep.select(status="ok")) == 19


def test_sweep_transient_memory_is_bounded():
    # The sweep's lockstep fits evaluate each stack of equal-size fits at
    # its own row count.  Padding every fit to the largest calibration
    # set (five depths) would multiply the rows of the stacked Jacobians;
    # this bound catches that before the benchmark's peak RSS does.  The
    # stacks peak at about 1.4 MB, one fit at a time at about 0.4 MB.
    bundle = default_bundle("display")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        depth_combination_sweep(bundle)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


@pytest.mark.parametrize("mapper_id", ("2d3d", "3d3d"))
def test_sweep_makes_one_kernel_call_per_damping_round(mapper_id,
                                                       monkeypatch):
    """A noisy 3-depth sweep fits sets of 25, 50 and 75 samples in one
    solve; each damping round (one stacked normal-equation solve) calls
    the residual kernel and the Jacobian kernel at most once for all of
    them, plus one residual call to start."""
    calls, groups = {"residuals": 0, "jacobian": 0, "rounds": 0}, set()

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if key != "rounds":
                groups.add(tuple(sorted({x.shape[1] for x in args[1]})))
            return fn(*args, **kwargs)
        return wrapper

    for kind in ("residuals", "jacobian"):
        name = f"{kind}_{mapper_id}"
        monkeypatch.setattr(_kernels, name,
                            counted(getattr(_kernels, name), kind))
    monkeypatch.setattr(optimizer, "_solve_stacked",
                        counted(optimizer._solve_stacked, "rounds"))
    bundle = default_bundle("display", depths=(1.0, 1.5, 2.0), seed=0,
                            noise_pupil_px=1.0, noise_pose_deg=0.5,
                            noise_target_mm=2.0)
    sweep = depth_combination_sweep(bundle, (mapper_id,))
    assert all(r.status == "ok" for r in sweep.records)
    assert calls["rounds"] > 50
    assert calls["residuals"] <= calls["rounds"] + 1
    assert calls["jacobian"] <= calls["rounds"]
    assert (25, 50, 75) in groups      # the groups went in one call


def test_sweep_drops_poseless_test_records_for_3d3d():
    bundle = default_bundle("display", depths=(1.0, 2.0))
    test = {d: without(samples, "pupil_pose", 0)
            for d, samples in bundle.test.items()}
    sweep = depth_combination_sweep(replace(bundle, test=test),
                                    mappers=("3d3d",))
    assert len(sweep.records) == 6             # 3 subsets x 2 test depths
    for r in sweep.records:
        assert r.status == "ok"
        assert r.n_targets == len(bundle.test[r.test_depth]) - 1


def test_sweep_fails_depth_with_no_usable_test_records():
    bundle = small_bundle(depths=(1.0, 2.0))
    test = dict(bundle.test)
    test[2.0] = without(test[2.0], "pupil_pose")
    sweep = depth_combination_sweep(replace(bundle, test=test),
                                    mappers=("2d3d", "3d3d"))
    failed = {(r.mapper, r.test_depth) for r in sweep.select(status="failed")}
    assert failed == {("3d3d", 2.0)}
    assert len(sweep.select(status="failed")) == 3


FUZZ_DEPTHS = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
DEFAULT_EYE_CAMERA = SimRig().eye_camera
# up to about 3 degrees of eye-camera rotation and 3 mm of translation
# on top of the default rig
_POSE_CHANGES = st.tuples(
    st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3),
    st.lists(st.floats(-0.003, 0.003), min_size=3, max_size=3))


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(noise_px=st.floats(0.0, 80.0), noise_deg=st.floats(0.0, 5.0),
       noise_mm=st.floats(0.0, 10.0),
       depths=st.lists(st.sampled_from(FUZZ_DEPTHS), min_size=1, max_size=3,
                       unique=True),
       seed=st.integers(0, 2**16),
       poseless=st.sets(st.integers(0, 15), max_size=16),
       pose_change=_POSE_CHANGES)
def test_sweep_never_raises_under_noise(noise_px, noise_deg, noise_mm,
                                        depths, seed, poseless, pose_change):
    angles, shift = pose_change
    eye_camera = replace(
        DEFAULT_EYE_CAMERA,
        rotation=DEFAULT_EYE_CAMERA.rotation @ rotation_from_angles(angles),
        translation=DEFAULT_EYE_CAMERA.translation + shift)
    rig = SimRig(eye_camera=eye_camera, noise_pupil_px=noise_px,
                 noise_pose_deg=noise_deg, noise_target_mm=noise_mm)
    try:
        bundle = synthesize_dataset(rig, TwoSphereEye(), tuple(depths),
                                    GRID_PRESETS["display"], seed=seed)
    except (PupilNotVisible, TargetNotVisible):
        assume(False)
    test = {d: without(samples, "pupil_pose", sorted(poseless))
            for d, samples in bundle.test.items()}
    sweep = depth_combination_sweep(replace(bundle, test=test))
    k = len(depths)
    assert len(sweep.records) == len(MAPPER_IDS) * (2 ** k - 1) * k
    for r in sweep.records:
        if r.status == "ok":
            assert np.isfinite(r.mean) and r.n_targets > 0
        else:
            assert r.status == "failed" and r.errors is None


def test_sweep_fails_calibration_depth_without_test_records(tmp_path):
    bundle = small_bundle(depths=(1.0, 1.5))
    path = tmp_path / "data.jsonl"
    save_dataset(replace(bundle, test={1.0: bundle.test[1.0]}), path)
    sweep = depth_combination_sweep(load_dataset(path).bundle)
    assert len(sweep.records) == len(MAPPER_IDS) * 3 * 2
    failed = {(r.mapper, r.test_depth) for r in sweep.select(status="failed")}
    assert failed == {(m, 1.5) for m in MAPPER_IDS}
    assert len(sweep.select(status="failed")) == len(MAPPER_IDS) * 3


def test_sweep_honours_eye_resolution_from_rig():
    bundle = small_bundle()
    sweep = depth_combination_sweep(bundle, mappers=("2d2d",), k_range=(1,))
    assert all(r.status == "ok" for r in sweep.records)


# ── offset analysis and curves ───────────────────────────────────────────

def test_offset_buckets_signed_and_counted():
    bundle = small_bundle()
    sweep = depth_combination_sweep(bundle, mappers=("2d2d",), k_range=(1,))
    buckets = offset_analysis(sweep, mapper="2d2d")
    offsets = [b.offset_m for b in buckets]
    assert offsets == [-1.0, -0.5, 0.0, 0.5, 1.0]
    by_offset = {b.offset_m: b for b in buckets}
    assert by_offset[0.0].n_records == 3       # one per calibration depth
    assert by_offset[-1.0].n_records == 1      # calib 2.0 -> test 1.0
    assert by_offset[0.0].mean_error_deg < by_offset[1.0].mean_error_deg


def test_offset_mean_is_mean_of_record_means():
    bundle = small_bundle()
    sweep = depth_combination_sweep(bundle, mappers=("2d2d",), k_range=(1,))
    buckets = {b.offset_m: b for b in offset_analysis(sweep, mapper="2d2d")}
    recs = [r for r in sweep.records
            if r.test_depth - r.calib_subset[0] == 0.5]
    assert np.isclose(buckets[0.5].mean_error_deg,
                      np.mean([r.mean for r in recs]))
    pooled = np.concatenate([r.errors for r in recs])
    assert np.isclose(buckets[0.5].std_error_deg, pooled.std())


def test_offset_analysis_requires_k1_records():
    bundle = small_bundle()
    sweep = depth_combination_sweep(bundle, mappers=("2d2d",), k_range=(2,))
    with pytest.raises(ValueError):
        offset_analysis(sweep)


def test_parallax_curves_structure():
    bundle = small_bundle()
    sweep = depth_combination_sweep(bundle, mappers=("2d2d",), k_range=(1,))
    curves = parallax_curves(sweep, "2d2d")
    assert sorted(curves) == [1.0, 1.5, 2.0]
    for dc, points in curves.items():
        assert [d for d, _ in points] == [1.0, 1.5, 2.0]
        # each curve is minimal at its own calibration depth
        best = min(points, key=lambda p: p[1])[0]
        assert best == dc


def test_error_record_requires_consistent_fields():
    rec = ErrorRecord(mapper="2d2d", calib_subset=(1.0, 1.5), test_depth=2.0,
                      errors=np.array([1.0, 2.0, 3.0]), mean=2.0, std=0.8165,
                      status="ok")
    assert rec.k == 2
    assert rec.n_targets == 3
    assert np.isclose(np.mean(rec.errors), rec.mean)
