"""Mapper fits: feature map, polar parameterization, planted-parameter
recovery, degenerate-input rejection, and dispatch."""

import inspect
import itertools
from dataclasses import replace

import numpy as np
import pytest

from gaze3d import _kernels, mappers
from gaze3d.eye_simulator import (
    SimRig,
    TwoSphereEye,
    default_bundle,
    synthesize_dataset,
)
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
    column_arrays,
    predict_ray_arrays,
    predict_sample,
    usable_rows,
)
from gaze3d.optimizer import (
    LMSettings,
    NonFiniteResidual,
    ResidualProblem,
    solve_lm,
)
from helpers import pooled, rows, take, without


def normalized_features(pupils_px, resolution=DEFAULT_EYE_RESOLUTION):
    res = np.asarray(resolution, dtype=float)
    return np.array([poly_features((p - res / 2) / (res / 2))
                     for p in np.asarray(pupils_px, dtype=float)])


def two_depth_samples(seed=0):
    bundle = synthesize_dataset(SimRig(), TwoSphereEye(), depths=(1.0, 2.0),
                                seed=seed)
    return bundle, pooled(bundle.calibration, (1.0, 2.0))


def pairs(samples, source, target="target"):
    """(input, target) pairs of two fields of a SampleColumns group."""
    return list(zip(getattr(samples, source), getattr(samples, target)))


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
    assert isinstance(est, np.ndarray) and est.shape == (2,)
    assert np.allclose(est, normalized_features([probe])[0] @ w_true,
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
    model = fit_2d_to_2d(pairs(samples, "pupil_px", "target_px"))
    worst = max(np.abs(predict_2d_to_2d(model, p) - s).max()
                for p, s in pairs(samples, "pupil_px", "target_px"))
    # the 7-term polynomial approximates a projective map; ~1.4 px of
    # model bias remains on a 1280-px-wide image
    assert worst < 2.0


# ── 2d-to-3d ─────────────────────────────────────────────────────────────

def test_2d3d_fits_two_depth_data_and_recovers_center():
    bundle, samples = two_depth_samples()
    model = fit_2d_to_3d(pairs(samples, "pupil_px"))
    # two calibration depths make the lateral center components
    # observable; the along-gaze component stays soft (near-parallel
    # rays), so only x/y are pinned down tightly
    assert np.abs(model.center[:2] - bundle.rig.e_gt[:2]).max() < 1e-3
    assert abs(model.center[2] - bundle.rig.e_gt[2]) < 0.05
    worst = max(point_ray_distance(predict_2d_to_3d(model, p), t)
                for p, t in pairs(samples, "pupil_px"))
    assert worst < 2e-3    # meters at 1-2 m range
    assert model.report.termination in ("gradient", "step", "cost_decrease")
    assert np.all(np.diff(model.report.cost_history) <= 0)


def test_2d3d_prediction_is_ray_from_center():
    _, samples = two_depth_samples(seed=4)
    model = fit_2d_to_3d(pairs(samples, "pupil_px"))
    est = predict_2d_to_3d(model, samples.pupil_px[0])
    assert isinstance(est, Ray)
    assert np.allclose(est.origin, model.center)


def test_2d3d_needs_nine_samples():
    _, samples = two_depth_samples()
    with pytest.raises(RankDeficient):
        fit_2d_to_3d(pairs(samples, "pupil_px")[:8])


def test_2d3d_rejects_collinear_targets():
    rng = np.random.default_rng(5)
    pupils = rng.uniform((0, 0), (640, 360), size=(12, 2))
    targets = [s * np.array([0.1, 0.05, 1.0]) for s in
               np.linspace(1.0, 2.0, 12)]
    with pytest.raises(DegenerateGeometry):
        fit_2d_to_3d(list(zip(pupils, targets)))


def test_2d3d_center_respects_bounds():
    _, samples = two_depth_samples()
    model = fit_2d_to_3d(pairs(samples, "pupil_px"),
                         config=MappingConfig(center_bounds_m=0.01))
    assert np.all(np.abs(model.center) <= 0.01 + 1e-12)


# ── 3d-to-3d ─────────────────────────────────────────────────────────────

def test_3d3d_recovers_simulated_rig_exactly():
    bundle, samples = two_depth_samples()
    model = fit_3d_to_3d(pairs(samples, "pupil_pose"))
    assert np.linalg.norm(model.center - bundle.rig.e_gt) < 1e-5
    # fitted rotation must match the eye camera's pose
    assert np.abs(model.rotation - bundle.rig.eye_camera.rotation).max() < 1e-5


def test_3d3d_accepts_unnormalized_poses():
    _, samples = two_depth_samples()
    scaled = [(n * 7.0, t) for n, t in pairs(samples, "pupil_pose")]
    unit = pairs(samples, "pupil_pose")
    a = fit_3d_to_3d(scaled)
    b = fit_3d_to_3d(unit)
    assert np.allclose(a.angles, b.angles, atol=1e-9)
    assert np.allclose(a.center, b.center, atol=1e-9)


def test_3d3d_needs_three_samples():
    _, samples = two_depth_samples()
    with pytest.raises(DegenerateGeometry):
        fit_3d_to_3d(pairs(samples, "pupil_pose")[:2])


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
    assert np.allclose(est.direction, (0, 0, 1), atol=1e-12)
    assert np.allclose(model.rotation, rotation_from_angles(angles))


# ── settings ─────────────────────────────────────────────────────────────

@pytest.mark.parametrize("kwargs, error, message", [
    ({"center_bounds_m": -0.05}, ValueError, "center_bounds_m must be a "
     "finite number >= 0 or null (unbounded), got -0.05"),
    ({"center_bounds_m": float("nan")}, ValueError,
     "center_bounds_m must be a finite number >= 0 or null (unbounded), "
     "got nan"),
    ({"center_bounds_m": "x"}, ValueError, "center_bounds_m must be a "
     "finite number >= 0 or null (unbounded), got 'x'"),
    ({"eye_resolution": (640,)}, ValueError,
     "eye_resolution must be 2 finite numbers > 0, got [640]"),
    ({"eye_resolution": (0, 0)}, ValueError,
     "eye_resolution must be 2 finite numbers > 0, got [0, 0]"),
    ({"eye_resolution": (float("nan"), 360)}, ValueError,
     "eye_resolution must be 2 finite numbers > 0, got [nan, 360]"),
    ({"normalize_residuals": "no"}, ValueError,
     "normalize_residuals must be true or false, got 'no'"),
    ({"normalize_residuals": 0}, ValueError,
     "normalize_residuals must be true or false, got 0"),
    ({"lm": {"damping": 1.0}}, TypeError, "lm must be an LMSettings, got dict"),
    ({"center_bounds_m": 10**400}, ValueError, f"center_bounds_m must be a "
     f"finite number >= 0 or null (unbounded), got {10**400}"),
    ({"eye_resolution": (10**400, 360)}, ValueError, f"eye_resolution must "
     f"be 2 finite numbers > 0, got [{10**400}, 360]"),
])
def test_mapping_config_rejects_bad_settings(kwargs, error, message):
    # each used to construct: a negative or NaN bound then aborted the
    # sweep, (640,) silently changed the 2d2d fits, (0, 0) let LAPACK's
    # LinAlgError escape, "no" fitted normalized, and a dict failed inside
    # the solver; an integer beyond float range raised OverflowError
    with pytest.raises(error) as err:
        MappingConfig(**kwargs)
    assert str(err.value) == message


def test_zero_center_bound_pins_the_center():
    _, samples = two_depth_samples()
    config = MappingConfig(center_bounds_m=0)
    for fit, source in ((fit_2d_to_3d, "pupil_px"),
                        (fit_3d_to_3d, "pupil_pose")):
        assert np.array_equal(fit(pairs(samples, source), config).center,
                              np.zeros(3))


@pytest.mark.parametrize("mapper_id, fit", [
    ("2d2d", fit_2d_to_2d), ("2d3d", fit_2d_to_3d), ("3d3d", fit_3d_to_3d)])
def test_pair_fits_are_fit_arrays_on_one_set(mapper_id, fit):
    """A pair fit takes (calib, config) and gives the bits fit_arrays
    gives on the same arrays, with the default config and another."""
    assert list(inspect.signature(fit).parameters) == ["calib", "config"]
    bundle = default_bundle("display", depths=(1.0, 2.0), seed=2,
                            noise_pupil_px=1.0, noise_pose_deg=0.5,
                            noise_target_mm=2.0)
    arrays = column_arrays(mapper_id, pooled(bundle.calibration, (1.0, 2.0)))
    calib = list(zip(*arrays))
    other = MappingConfig(eye_resolution=(700.0, 400.0),
                          normalize_residuals=False, center_bounds_m=0.02,
                          lm=LMSettings(max_iterations=50))
    for config in (MappingConfig(), other):
        [expected] = fit_arrays(mapper_id, [arrays], config)
        model = fit(calib, config)
        for name in ("weights", "angles", "center", "eye_resolution"):
            if hasattr(expected, name):
                assert (getattr(model, name).tobytes()
                        == getattr(expected, name).tobytes())
        if mapper_id != "2d2d":
            assert_same_bits(model, expected)


# ── dispatch ─────────────────────────────────────────────────────────────

def test_fit_mapper_dispatch_and_prediction():
    bundle, samples = two_depth_samples()
    config = MappingConfig()
    for mapper_id in ("2d2d", "2d3d", "3d3d"):
        model = fit_mapper(mapper_id, samples, config)
        assert model.mapper_id == mapper_id
        est = predict_sample(model, rows(samples)[0])
        assert isinstance(est, Ray) == (mapper_id != "2d2d")


def test_fit_mapper_unknown_id():
    _, samples = two_depth_samples()
    with pytest.raises(ValueError):
        fit_mapper("4d4d", samples)
    # a list of per-sample objects is not a group of columns
    with pytest.raises(TypeError, match="must be a SampleColumns, got list"):
        fit_mapper("2d3d", rows(samples))


def test_predict_sample_rejects_foreign_model():
    _, samples = two_depth_samples()
    with pytest.raises(TypeError):
        predict_sample(object(), rows(samples)[0])


@pytest.mark.parametrize("mapper_id, side, value, message", [
    ("2d2d", 0, ["12.5", "40.1"],
     "pupil_px of pair 3 must be 2 finite numbers, got ['12.5', '40.1']"),
    ("2d2d", 1, [True, 12.5],
     "target_px of pair 3 must be 2 finite numbers, got [True, 12.5]"),
    ("2d3d", 0, [300.0, "180"],
     "pupil_px of pair 3 must be 2 finite numbers, got [300.0, '180']"),
    ("3d3d", 1, [0.1, False, 1.5],
     "target of pair 3 must be 3 finite numbers, got [0.1, False, 1.5]"),
    ("3d3d", 0, [0.0, float("nan"), 1.0],
     "pupil_pose of pair 3 must be 3 finite numbers, got [0.0, nan, 1.0]"),
], ids=["2d2d-string", "2d2d-bool", "2d3d-string", "3d3d-bool", "3d3d-nan"])
def test_pair_fits_hold_pairs_to_the_number_rule(mapper_id, side, value,
                                                  message):
    """A pair's entries are checked as every outside array is
    (number_array): np.asarray(dtype=float) used to read numeric strings
    and booleans as numbers, and fit_2d_to_2d fitted a 7x2 model from
    pairs like (["12.5", "40.1"], [True, 12.5]).  A NaN raised
    NonFiniteResidual from inside the fit."""
    _, samples = two_depth_samples()
    fields = MAPPER_FIELDS[mapper_id]
    calib = [list(pair) for pair in pairs(samples, *fields)]
    calib[3][side] = value
    fit = {"2d2d": fit_2d_to_2d, "2d3d": fit_2d_to_3d,
           "3d3d": fit_3d_to_3d}[mapper_id]
    with pytest.raises(ValueError) as err:
        fit(calib)
    assert type(err.value) is ValueError
    assert str(err.value) == message


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
    models = [fit_mapper(mapper_id, bundle.calibration[d])
              for d in bundle.depths()]
    samples = pooled(bundle.test, bundle.depths())
    inputs, _ = column_arrays(mapper_id, samples, fitting=False)
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
    calib = pairs(samples, MAPPER_FIELDS[mapper_id][0])
    calib[5] = (calib[5][0], np.zeros(3))
    fit = fit_2d_to_3d if mapper_id == "2d3d" else fit_3d_to_3d
    with pytest.raises(DegenerateGeometry,
                       match=r"target 5 at \[0.0, 0.0, 0.0\] coincides"):
        fit(calib)
    targets = samples.target.copy()
    targets[5] = 0.0
    bad, good = fit_arrays(mapper_id, [
        column_arrays(mapper_id, replace(samples, target=targets)),
        column_arrays(mapper_id, samples)])
    assert isinstance(bad, DegenerateGeometry)
    assert_same_model(good, fit_mapper(mapper_id, samples))


def test_record_fits_need_both_fields():
    """A sample without a pose is left out of a 3d3d fit, and a 2d3d fit,
    which reads no pose, keeps it."""
    _, samples = two_depth_samples()
    poseless = without(samples, "pupil_pose", 2)
    others = np.arange(len(samples)) != 2
    assert_same_model(fit_mapper("3d3d", poseless),
                      fit_mapper("3d3d", take(samples, others)))
    assert_same_model(fit_mapper("2d3d", poseless),
                      fit_mapper("2d3d", samples))


def test_usable_rows_and_column_arrays():
    """One group holding poseless rows and rows without target_px: each
    mapper fits from the rows holding both its fields and scores the rows
    holding its input field, and the arrays are copies of those rows."""
    _, samples = two_depth_samples()
    group = without(without(samples, "pupil_pose", [1, 4, 7]),
                    "target_px", [4, 9])
    every = np.ones(len(group), dtype=bool)
    posed = np.isin(np.arange(len(group)), [1, 4, 7], invert=True)
    pixelled = np.isin(np.arange(len(group)), [4, 9], invert=True)
    fitted = {"2d2d": pixelled, "2d3d": every, "3d3d": posed}
    scored = {"2d2d": every, "2d3d": every, "3d3d": posed}
    for mapper_id in MAPPER_IDS:
        for fitting, expected in ((True, fitted), (False, scored)):
            mask = usable_rows(mapper_id, group, fitting)
            assert mask.tolist() == expected[mapper_id].tolist()
            arrays = column_arrays(mapper_id, group, fitting)
            source, target = MAPPER_FIELDS[mapper_id]
            names = (source, target if fitting else "target")
            for name, array in zip(names, arrays, strict=True):
                column = getattr(group, name)
                assert array.tobytes() == column[mask].tobytes()
                assert not np.shares_memory(array, column)


# ── many sample sets at once ─────────────────────────────────────────────

def subset_sample_sets(bundle):
    """The pooled calibration columns of every subset of the bundle's
    depths, as the sweep fits them."""
    depths = bundle.depths()
    return [pooled(bundle.calibration, subset)
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
def test_fit_arrays_matches_one_fit_at_a_time(bundle, mapper_id):
    """fit_arrays on many sample sets gives each set's fit_mapper model."""
    config = MappingConfig(
        eye_resolution=tuple(bundle.rig.eye_camera.resolution))
    sets = subset_sample_sets(bundle)
    models = fit_arrays(mapper_id, [column_arrays(mapper_id, samples)
                                    for samples in sets], config)
    assert len(models) == len(sets) == 2 ** len(bundle.depths()) - 1
    for samples, model in zip(sets, models):
        assert_same_model(model, fit_mapper(mapper_id, samples, config))


@pytest.mark.parametrize("mapper_id", MAPPER_IDS)
def test_fit_arrays_returns_each_fit_error(mapper_id):
    _, samples = two_depth_samples()
    # twelve copies of one sample with targets along one ray from the
    # origin: collinear targets (and one pupil position, for 2d2d)
    copies = take(samples, np.zeros(12, dtype=int))
    collinear = replace(copies, target=copies.target
                        * (1.0 + 0.1 * np.arange(12))[:, None])
    sets = [samples, take(samples, slice(2)), take(samples, slice(0)),
            collinear, take(samples, slice(40))]
    results = fit_arrays(mapper_id, [column_arrays(mapper_id, samples)
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
    depth = {d: column_arrays(mapper_id, bundle.calibration[d])
             for d in bundle.depths()}

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
    clean, nan_set = (column_arrays(mapper_id, bundle.calibration[d])
                      for d in (1.0, 1.5))
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
    samples = pooled(bundle.calibration, depths)
    targets = samples.target
    if mapper_id == "2d3d":
        inputs = normalized_features(samples.pupil_px)
        w0 = np.linalg.lstsq(inputs, direction_to_polar(targets),
                             rcond=None)[0]
        x0 = np.concatenate((w0.ravel(), np.zeros(3)))
        residual, jacobian = _kernels.residuals_2d3d, _kernels.jacobian_2d3d
        wrap = None
        model = fit_2d_to_3d(pairs(samples, "pupil_px"))
    else:
        inputs = samples.pupil_pose.copy()
        inputs /= np.linalg.norm(inputs, axis=1, keepdims=True)
        x0 = np.array([0.0, np.pi, 0.0, 0.0, 0.0, 0.0])
        residual, jacobian = _kernels.residuals_3d3d, _kernels.jacobian_3d3d
        wrap = [True, True, True, False, False, False]
        model = fit_3d_to_3d(pairs(samples, "pupil_pose"))
    bound = np.concatenate((np.full(x0.size - 3, np.inf),
                            np.full(3, DEFAULT_CENTER_BOUND_M)))
    one_fit = (_kernels.Rows([inputs[None]], [targets[None]]),)  # one fit
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
        one_fit = (_kernels.Rows([fits[i][0][None]], [fits[i][1][None]]),)
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
