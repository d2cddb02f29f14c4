"""Mapper fits: feature map, polar parameterization, planted-parameter
recovery, degenerate-input rejection, and dispatch."""

import itertools

import numpy as np
import pytest

from gaze3d import _kernels, mappers
from gaze3d.eye_simulator import (
    SimRig,
    TwoSphereEye,
    default_bundle,
    synthesize_dataset,
)
from gaze3d.dataset_io import DataRecord
from gaze3d.geometry import (
    PinholeCamera,
    Ray,
    point_ray_distance,
    rotation_from_angles,
)
from gaze3d.mappers import (
    DEFAULT_CENTER_BOUND_M,
    DEFAULT_EYE_RESOLUTION,
    MAPPER_FIELDS,
    MAPPER_IDS,
    DegenerateGeometry,
    GazeEstimate,
    MappingConfig,
    Model2Dto2D,
    Model3Dto3D,
    RankDeficient,
    direction_to_polar,
    fit_2d_to_2d,
    fit_2d_to_3d,
    fit_3d_to_3d,
    fit_arrays,
    fit_mapper,
    polar_to_direction,
    poly_features,
    predict_2d_to_2d,
    predict_2d_to_3d,
    predict_3d_to_3d,
    predict_ray_arrays,
    predict_sample,
    record_arrays,
    select_records,
)
from gaze3d.optimizer import NonFiniteResidual, ResidualProblem, solve_lm


def normalized_features(pupils_px, resolution=DEFAULT_EYE_RESOLUTION):
    res = np.asarray(resolution, dtype=float)
    return np.array([poly_features((p - res / 2) / (res / 2))
                     for p in np.asarray(pupils_px, dtype=float)])


def two_depth_samples(seed=0):
    bundle = synthesize_dataset(SimRig(), TwoSphereEye(), depths=(1.0, 2.0),
                                seed=seed)
    return bundle, bundle.calibration[1.0] + bundle.calibration[2.0]


# ── features and polar angles ────────────────────────────────────────────

def test_poly_features_hand_case():
    assert np.array_equal(poly_features((1.0, 2.0)),
                          [1.0, 1.0, 2.0, 2.0, 1.0, 4.0, 4.0])


def test_poly_features_at_origin():
    assert np.array_equal(poly_features((0.0, 0.0)),
                          [1.0, 0, 0, 0, 0, 0, 0])


def test_polar_direction_conventions():
    assert np.allclose(polar_to_direction((0.0, 0.0)), (0, 0, 1))
    # theta tilts toward +x, phi toward +y
    assert polar_to_direction((0.1, 0.0))[0] > 0
    assert polar_to_direction((0.0, 0.1))[1] > 0


def test_polar_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        alpha = rng.uniform((-np.pi / 2 + 0.01, -np.pi), (np.pi / 2 - 0.01, np.pi))
        g = polar_to_direction(alpha)
        assert np.isclose(np.linalg.norm(g), 1.0)
        assert np.allclose(polar_to_direction(direction_to_polar(g)), g,
                           atol=1e-12)
    # (N, 3) arrays, unnormalized: each row gives the bits it gives alone
    rows = rng.normal(size=(50, 3))
    alphas = direction_to_polar(rows)
    assert alphas.shape == (50, 2)
    assert np.array_equal(alphas, [direction_to_polar(r) for r in rows])
    assert np.allclose(polar_to_direction(alphas),
                       rows / np.linalg.norm(rows, axis=1, keepdims=True),
                       atol=1e-12)


def test_gaze_estimate_is_point_xor_ray():
    with pytest.raises(ValueError):
        GazeEstimate()
    with pytest.raises(ValueError):
        GazeEstimate(point=(1, 2), ray=Ray((0, 0, 0), (0, 0, 1)))


# ── 2d-to-2d ─────────────────────────────────────────────────────────────

def test_2d2d_recovers_planted_weights():
    rng = np.random.default_rng(1)
    pupils = rng.uniform((0, 0), DEFAULT_EYE_RESOLUTION, size=(25, 2))
    w_true = rng.normal(size=(7, 2))
    scene = normalized_features(pupils) @ w_true
    model = fit_2d_to_2d(list(zip(pupils, scene)))
    assert np.abs(model.weights - w_true).max() < 1e-8


def test_2d2d_prediction_matches_planted_map():
    rng = np.random.default_rng(2)
    pupils = rng.uniform((0, 0), DEFAULT_EYE_RESOLUTION, size=(30, 2))
    w_true = rng.normal(size=(7, 2))
    model = fit_2d_to_2d(list(zip(pupils, normalized_features(pupils) @ w_true)))
    probe = np.array([101.5, 77.0])
    est = predict_2d_to_2d(model, probe)
    assert est.point is not None and est.ray is None
    assert np.allclose(est.point, normalized_features([probe])[0] @ w_true,
                       atol=1e-8)


def test_2d2d_needs_seven_samples():
    rng = np.random.default_rng(3)
    pupils = rng.uniform((0, 0), (640, 360), size=(6, 2))
    with pytest.raises(RankDeficient):
        fit_2d_to_2d([(p, (0.0, 0.0)) for p in pupils])


def test_2d2d_rejects_degenerate_features():
    # 25 copies of one pupil position: rank-1 feature matrix
    with pytest.raises(RankDeficient):
        fit_2d_to_2d([((320.0, 180.0), (640.0, 360.0))] * 25)


def test_2d2d_interpolates_simulated_calibration():
    bundle, _ = two_depth_samples()
    samples = bundle.calibration[1.0]
    model = fit_2d_to_2d([(s.pupil_px, s.target_px) for s in samples])
    worst = max(np.abs(predict_2d_to_2d(model, s.pupil_px).point
                       - s.target_px).max() for s in samples)
    # the 7-term polynomial approximates a projective map; ~1.4 px of
    # model bias remains on a 1280-px-wide image
    assert worst < 2.0


# ── 2d-to-3d ─────────────────────────────────────────────────────────────

def test_2d3d_fits_two_depth_data_and_recovers_center():
    bundle, samples = two_depth_samples()
    model = fit_2d_to_3d([(s.pupil_px, s.target) for s in samples])
    # two calibration depths make the lateral center components
    # observable; the along-gaze component stays soft (near-parallel
    # rays), so only x/y are pinned down tightly
    assert np.abs(model.center[:2] - bundle.rig.e_gt[:2]).max() < 1e-3
    assert abs(model.center[2] - bundle.rig.e_gt[2]) < 0.05
    worst = max(point_ray_distance(predict_2d_to_3d(model, s.pupil_px).ray,
                                   s.target) for s in samples)
    assert worst < 2e-3    # meters at 1-2 m range
    assert model.report.termination in ("gradient", "step", "cost_decrease")
    assert np.all(np.diff(model.report.cost_history) <= 0)


def test_2d3d_prediction_is_ray_from_center():
    _, samples = two_depth_samples(seed=4)
    model = fit_2d_to_3d([(s.pupil_px, s.target) for s in samples])
    est = predict_2d_to_3d(model, samples[0].pupil_px)
    assert est.ray is not None and est.point is None
    assert np.allclose(est.ray.origin, model.center)


def test_2d3d_needs_nine_samples():
    _, samples = two_depth_samples()
    with pytest.raises(RankDeficient):
        fit_2d_to_3d([(s.pupil_px, s.target) for s in samples[:8]])


def test_2d3d_rejects_collinear_targets():
    rng = np.random.default_rng(5)
    pupils = rng.uniform((0, 0), (640, 360), size=(12, 2))
    targets = [s * np.array([0.1, 0.05, 1.0]) for s in
               np.linspace(1.0, 2.0, 12)]
    with pytest.raises(DegenerateGeometry):
        fit_2d_to_3d(list(zip(pupils, targets)))


def test_2d3d_center_respects_bounds():
    _, samples = two_depth_samples()
    model = fit_2d_to_3d([(s.pupil_px, s.target) for s in samples],
                         center_bounds=0.01)
    assert np.all(np.abs(model.center) <= 0.01 + 1e-12)


# ── 3d-to-3d ─────────────────────────────────────────────────────────────

def test_3d3d_recovers_simulated_rig_exactly():
    bundle, samples = two_depth_samples()
    model = fit_3d_to_3d([(s.pupil_pose, s.target) for s in samples])
    assert np.linalg.norm(model.center - bundle.rig.e_gt) < 1e-5
    # fitted rotation must match the eye camera's pose
    assert np.abs(model.rotation - bundle.rig.eye_camera.rotation).max() < 1e-5


def test_3d3d_accepts_unnormalized_poses():
    _, samples = two_depth_samples()
    scaled = [(np.asarray(s.pupil_pose) * 7.0, s.target) for s in samples]
    unit = [(s.pupil_pose, s.target) for s in samples]
    a = fit_3d_to_3d(scaled)
    b = fit_3d_to_3d(unit)
    assert np.allclose(a.angles, b.angles, atol=1e-9)
    assert np.allclose(a.center, b.center, atol=1e-9)


def test_3d3d_needs_three_samples():
    _, samples = two_depth_samples()
    with pytest.raises(DegenerateGeometry):
        fit_3d_to_3d([(s.pupil_pose, s.target) for s in samples[:2]])


def test_3d3d_rejects_collinear_targets():
    poses = [[0.0, 0.0, 1.0], [0.1, 0.0, 0.995], [0.2, 0.0, 0.98]]
    targets = [s * np.array([0.0, 0.1, 1.0]) for s in (1.0, 1.5, 2.0)]
    with pytest.raises(DegenerateGeometry):
        fit_3d_to_3d(list(zip(poses, targets)))


def test_3d3d_prediction_direction():
    angles = (0.0, np.pi, 0.0)
    model = Model3Dto3D(angles=angles, center=(0.0, 0.0, 0.0))
    est = predict_3d_to_3d(model, (0.0, 0.0, -1.0))
    # half turn about y maps -z back to +z
    assert np.allclose(est.ray.direction, (0, 0, 1), atol=1e-12)
    assert np.allclose(model.rotation, rotation_from_angles(angles))


# ── dispatch ─────────────────────────────────────────────────────────────

def test_fit_mapper_dispatch_and_prediction():
    bundle, samples = two_depth_samples()
    config = MappingConfig()
    for mapper_id in ("2d2d", "2d3d", "3d3d"):
        model = fit_mapper(mapper_id, samples, config)
        assert model.mapper_id == mapper_id
        est = predict_sample(model, samples[0])
        assert (est.point is None) != (est.ray is None)


def test_fit_mapper_unknown_id():
    _, samples = two_depth_samples()
    with pytest.raises(ValueError):
        fit_mapper("4d4d", samples)


def test_predict_sample_rejects_foreign_model():
    _, samples = two_depth_samples()
    with pytest.raises(TypeError):
        predict_sample(object(), samples[0])


def test_bad_pair_shapes_rejected():
    with pytest.raises(ValueError):
        fit_2d_to_2d([((1.0, 2.0, 3.0), (0.0, 0.0))] * 10)
    with pytest.raises(ValueError):
        fit_3d_to_3d([((0.0, 0.0, 1.0), (0.0, 0.0))] * 5)
    # the array path checks the arrays it is handed
    with pytest.raises(ValueError, match="vectors of 2 entries"):
        fit_arrays("2d3d", [(np.zeros((10, 3)), np.ones((10, 3)))])
    with pytest.raises(ValueError, match="10 inputs but 9 targets"):
        fit_arrays("3d3d", [(np.ones((10, 3)), np.ones((9, 3)))])


@pytest.mark.parametrize("mapper_id", MAPPER_IDS)
def test_predict_ray_arrays_rows_are_one_model_calls(mapper_id):
    """Rays of many models at once have the bits of a call with each
    model alone, also through a posed scene camera."""
    bundle = default_bundle("display", depths=(1.0, 1.5, 2.0), seed=1,
                            noise_pupil_px=1.0, noise_pose_deg=0.5,
                            noise_target_mm=2.0)
    models = [fit_mapper(mapper_id, select_records(
        mapper_id, bundle.calibration[d])) for d in bundle.depths()]
    samples = [s for d in bundle.depths() for s in bundle.test[d]]
    inputs, _ = record_arrays(mapper_id, samples, fitting=False)
    posed = PinholeCamera(focal=(700.0, 690.0), principal=(640.0, 360.0),
                          resolution=(1280.0, 720.0),
                          rotation=rotation_from_angles((0.02, -0.03, 0.01)),
                          translation=(0.01, -0.02, 0.0))
    for cam in (bundle.rig.scene_camera, posed):
        origins, directions = predict_ray_arrays(models, inputs, cam)
        assert directions.shape == origins.shape == (3, len(samples), 3)
        for model, o, d in zip(models, origins, directions):
            [one_o], [one_d] = predict_ray_arrays([model], inputs, cam)
            assert np.array_equal(o, one_o) and np.array_equal(d, one_d)


def test_predict_ray_arrays_needs_models_of_one_mapper():
    models = [Model3Dto3D(angles=(0.0, np.pi, 0.0), center=np.zeros(3)),
              Model2Dto2D(weights=np.zeros((7, 2)),
                          eye_resolution=np.array([640.0, 360.0]))]
    with pytest.raises(TypeError, match="one mapper"):
        predict_ray_arrays(models, np.zeros((2, 3)), SimRig().scene_camera)


@pytest.mark.parametrize("mapper_id", ("2d3d", "3d3d"))
def test_target_at_initial_eyeball_center_is_degenerate(mapper_id):
    """A calibration target at e0 = 0 is rejected by name before any
    division by its distance (which used to warn, then raise ZeroVector
    or NonFiniteResidual)."""
    _, samples = two_depth_samples()
    pairs = [(s.pupil_px if mapper_id == "2d3d" else s.pupil_pose, s.target)
             for s in samples]
    pairs[5] = (pairs[5][0], np.zeros(3))
    fit = fit_2d_to_3d if mapper_id == "2d3d" else fit_3d_to_3d
    with pytest.raises(DegenerateGeometry,
                       match=r"target 5 at \[0.0, 0.0, 0.0\] coincides"):
        fit(pairs)
    records = [DataRecord(pupil_px=s.pupil_px, pupil_pose=s.pupil_pose,
                          target=np.zeros(3) if i == 5 else s.target,
                          target_px=s.target_px, depth_label=s.depth_label,
                          role=s.role) for i, s in enumerate(samples)]
    bad, good = fit_arrays(mapper_id, [record_arrays(mapper_id, records),
                                       record_arrays(mapper_id, samples)])
    assert isinstance(bad, DegenerateGeometry)
    assert_same_model(good, fit_mapper(mapper_id, samples))


def test_record_fits_need_both_fields():
    _, samples = two_depth_samples()
    s = samples[2]
    poseless = DataRecord(pupil_px=s.pupil_px, pupil_pose=None,
                          target=s.target, target_px=s.target_px,
                          depth_label=s.depth_label, role=s.role)
    records = samples[:2] + [poseless] + samples[3:]
    with pytest.raises(ValueError, match="record 2 has no pupil_pose, "
                       "which 3d3d fitting needs"):
        fit_mapper("3d3d", records)
    assert_same_model(fit_mapper("2d3d", records),
                      fit_mapper("2d3d", samples))


# ── many sample sets at once ─────────────────────────────────────────────

def subset_sample_sets(bundle, mapper_id):
    """The pooled calibration records of every subset of the bundle's
    depths, as the sweep fits them."""
    depths = bundle.depths()
    return [select_records(mapper_id, [s for d in subset
                                       for s in bundle.calibration[d]])
            for k in range(1, len(depths) + 1)
            for subset in itertools.combinations(depths, k)]


def assert_same_model(model, solo):
    """Equal parameters (to 1e-9) and, for LM fits, the same iterations,
    termination and cost-history length."""
    assert type(model) is type(solo)
    for name in ("weights", "angles", "center"):
        if hasattr(solo, name):
            assert np.allclose(getattr(model, name), getattr(solo, name),
                               rtol=0, atol=1e-9)
    if solo.mapper_id != "2d2d":
        assert model.report.iterations == solo.report.iterations
        assert model.report.termination == solo.report.termination
        assert (len(model.report.cost_history)
                == len(solo.report.cost_history))


@pytest.mark.parametrize("bundle", [
    default_bundle("display"),
    default_bundle("display", depths=(1.0, 1.5, 2.0), seed=0,
                   noise_pupil_px=1.0, noise_pose_deg=0.5,
                   noise_target_mm=2.0),
], ids=["display-5-depths", "noisy-3-depths"])
@pytest.mark.parametrize("mapper_id", MAPPER_IDS)
def test_fit_mappers_matches_one_fit_at_a_time(bundle, mapper_id):
    """fit_arrays on many record sets gives each set's fit_mapper model."""
    config = MappingConfig(
        eye_resolution=tuple(bundle.rig.eye_camera.resolution))
    sets = subset_sample_sets(bundle, mapper_id)
    models = fit_arrays(mapper_id, [record_arrays(mapper_id, samples)
                                    for samples in sets], config)
    assert len(models) == len(sets) == 2 ** len(bundle.depths()) - 1
    for samples, model in zip(sets, models):
        assert_same_model(model, fit_mapper(mapper_id, samples, config))


@pytest.mark.parametrize("mapper_id", MAPPER_IDS)
def test_fit_mappers_returns_each_fit_error(mapper_id):
    _, samples = two_depth_samples()
    samples = select_records(mapper_id, samples)
    # twelve copies of one record with targets along one ray from the
    # origin: collinear targets (and one pupil position, for 2d2d)
    s = samples[0]
    collinear = [DataRecord(pupil_px=s.pupil_px, pupil_pose=s.pupil_pose,
                            target=s.target * (1.0 + 0.1 * i),
                            target_px=s.target_px, depth_label=1.0,
                            role="calibration")
                 for i in range(12)]
    sets = [samples, samples[:2], [], collinear, samples[:40]]
    results = fit_arrays(mapper_id, [record_arrays(mapper_id, samples)
                                     for samples in sets])
    for i in (1, 2, 3):
        assert isinstance(results[i], (RankDeficient, DegenerateGeometry))
    for i in (0, 4):
        assert_same_model(results[i], fit_mapper(mapper_id, sets[i]))


def assert_same_bits(model, solo):
    """The same parameters, cost-history bytes, iterations and
    termination."""
    for name in ("weights", "angles", "center"):
        if hasattr(solo, name):
            assert getattr(model, name).tobytes() == getattr(solo,
                                                             name).tobytes()
    assert model.report.iterations == solo.report.iterations
    assert model.report.termination == solo.report.termination
    assert (model.report.cost_history.tobytes()
            == solo.report.cost_history.tobytes())


@pytest.mark.parametrize("mapper_id", ("2d3d", "3d3d"))
def test_fit_arrays_fits_each_set_as_alone(mapper_id):
    """Sets of four sample counts in one lockstep solve (one ragged kernel
    call per round) give each set's solo fit bit for bit; a set with a NaN
    input fails alone."""
    bundle = default_bundle("display", depths=(1.0, 1.5, 2.0), seed=0,
                            noise_pupil_px=1.0, noise_pose_deg=0.5,
                            noise_target_mm=2.0)
    depth = {d: record_arrays(mapper_id, select_records(
        mapper_id, bundle.calibration[d])) for d in bundle.depths()}

    def pooled(*depths, n=None):
        return tuple(np.concatenate(a)[:n]
                     for a in zip(*(depth[d] for d in depths)))

    nan_set = tuple(a.copy() for a in pooled(1.5, 2.0))
    nan_set[0][7, 1] = np.nan
    sets = [pooled(1.0), pooled(1.0, 1.5), pooled(1.5, 2.0, n=40),
            pooled(1.0, 1.5, 2.0), pooled(2.0), pooled(1.0, 2.0, n=40)]
    if mapper_id == "3d3d":     # a 2d3d set with a NaN fails its set-up
        sets.insert(2, nan_set)
    assert len({len(inputs) for inputs, _ in sets}) == 4
    models = fit_arrays(mapper_id, sets)
    for arrays, model in zip(sets, models):
        if arrays is nan_set:
            assert isinstance(model, NonFiniteResidual)
            continue
        assert_same_bits(model, fit_arrays(mapper_id, [arrays])[0])


@pytest.mark.parametrize("side", (0, 1), ids=("input", "target"))
@pytest.mark.parametrize("mapper_id", MAPPER_IDS)
def test_a_set_holding_nan_fails_alone(mapper_id, side, capfd):
    """A NaN in one set's inputs or targets fails that set with an error
    naming the field, before a least-squares solve or the LM solver sees
    it (LAPACK would print to stderr and abort every set); the set beside
    it fits as it does alone."""
    bundle = default_bundle("display", depths=(1.0, 1.5), seed=0,
                            noise_pupil_px=1.0, noise_pose_deg=0.5,
                            noise_target_mm=2.0)
    clean, nan_set = (record_arrays(mapper_id, select_records(
        mapper_id, bundle.calibration[d])) for d in (1.0, 1.5))
    nan_set[side][7, 1] = np.nan
    failed, model = fit_arrays(mapper_id, [nan_set, clean])
    assert isinstance(failed, NonFiniteResidual)
    field = MAPPER_FIELDS[mapper_id][side]
    assert str(failed).startswith(f"{field} of sample 7 is not finite: [")
    solo = fit_arrays(mapper_id, [clean])[0]
    if mapper_id == "2d2d":
        assert model.weights.tobytes() == solo.weights.tobytes()
    else:
        assert_same_bits(model, solo)
    assert capfd.readouterr() == ("", "")


# ── the one fit path against solve_lm ────────────────────────────────────

@pytest.mark.parametrize("depths", ((1.5,), (1.0, 2.0)))
@pytest.mark.parametrize("mapper_id", ("2d3d", "3d3d"))
def test_one_set_fits_match_solve_lm(mapper_id, depths):
    """fit_2d_to_3d/fit_3d_to_3d and fit_mapper take the steps of
    solve_lm on a ResidualProblem of the same kernels, start and box."""
    bundle = default_bundle("display", depths=depths, seed=0,
                            noise_pupil_px=1.0, noise_pose_deg=0.5,
                            noise_target_mm=2.0)
    samples = select_records(mapper_id, [s for d in depths
                                         for s in bundle.calibration[d]])
    targets = np.array([s.target for s in samples])
    if mapper_id == "2d3d":
        inputs = normalized_features([s.pupil_px for s in samples])
        w0 = np.linalg.lstsq(inputs, direction_to_polar(targets),
                             rcond=None)[0]
        x0 = np.concatenate((w0.ravel(), np.zeros(3)))
        residual, jacobian = _kernels.residuals_2d3d, _kernels.jacobian_2d3d
        wrap = None
        model = fit_2d_to_3d([(s.pupil_px, s.target) for s in samples])
    else:
        inputs = np.array([s.pupil_pose for s in samples])
        inputs /= np.linalg.norm(inputs, axis=1, keepdims=True)
        x0 = np.array([0.0, np.pi, 0.0, 0.0, 0.0, 0.0])
        residual, jacobian = _kernels.residuals_3d3d, _kernels.jacobian_3d3d
        wrap = [True, True, True, False, False, False]
        model = fit_3d_to_3d([(s.pupil_pose, s.target) for s in samples])
    bound = np.concatenate((np.full(x0.size - 3, np.inf),
                            np.full(3, DEFAULT_CENTER_BOUND_M)))
    one_fit = ([inputs[None]], [targets[None]])     # a group of one
    oracle = solve_lm(ResidualProblem(
        dim=x0.size, residual=lambda x: residual(x[None], *one_fit),
        jacobian=lambda x: jacobian(x[None], *one_fit)[1],
        lower=-bound, upper=bound, wrap_mask=wrap), x0)
    assert oracle.iterations > 1
    for fit in (model, fit_mapper(mapper_id, samples)):
        params = np.concatenate((fit.weights.ravel() if mapper_id == "2d3d"
                                 else fit.angles, fit.center))
        assert fit.report.iterations == oracle.iterations
        assert fit.report.termination == oracle.termination
        assert len(fit.report.cost_history) == len(oracle.cost_history)
        assert np.allclose(params, oracle.params, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mapper_id", ("2d3d", "3d3d"))
def test_lm_batch_products_are_each_fits_own(mapper_id):
    """A mapper batch's cost and normal equations, for fits taken from
    groups of three sample counts, are r . r, J^T J and J^T r of each
    fit's own kernel call, bit for bit; a fit whose residual is not
    finite costs NaN, and one whose finite residual overflows r . r costs
    +inf."""
    rng = np.random.default_rng(5)
    dim, width = (17, 7) if mapper_id == "2d3d" else (6, 3)
    groups = [(rng.normal(size=(k, n, width)),
               rng.uniform((-0.5, -0.3, 0.8), (0.5, 0.3, 2.2), (k, n, 3)))
              for k, n in ((3, 25), (1, 9), (2, 40))]
    fits = [(x[j], t[j]) for x, t in groups for j in range(len(x))]
    params = np.concatenate((rng.normal(0, 0.3, (len(fits), dim - 3)),
                             rng.uniform(-0.04, 0.04, (len(fits), 3))),
                            axis=1)
    residual, jacobian, _, _ = mappers._lm_layout(mapper_id)
    batch = mappers._lm_batch(mapper_id, groups, True, 0.05)
    rows = np.array([0, 2, 3, 5])       # part of two groups, all of one
    jtj, jtr, finite = batch.normal_equations(rows, params[rows])
    trials = np.stack((params[rows], params[rows] + 1e-3))
    costs = batch.cost(rows, trials)
    assert finite.all() and costs.shape == (2, len(rows))
    for k, i in enumerate(rows):
        one_fit = ([fits[i][0][None]], [fits[i][1][None]])
        r, jac = jacobian(params[i][None], *one_fit, True)
        assert jtj[k].tobytes() == (jac.T @ jac).tobytes()
        assert jtr[k].tobytes() == (jac.T @ r).tobytes()
        for trial, cost in zip(trials[:, k], costs[:, k]):
            r = residual(trial[None], *one_fit, True)
            assert cost == r @ r

    groups[0][1][1, 4, 2] = np.nan      # fit 1: a NaN target
    groups[0][1][2] *= 1e200            # fit 2: finite, r . r overflows
    batch = mappers._lm_batch(mapper_id, groups, False, None)
    with np.errstate(over="ignore", invalid="ignore"):
        costs = batch.cost(np.arange(len(fits)), params)
        finite = batch.normal_equations(np.arange(len(fits)), params)[2]
    assert np.isnan(costs[1]) and costs[2] == np.inf
    assert np.isfinite(np.delete(costs, (1, 2))).all()
    assert finite.tolist() == [True, False] + [True] * 4
