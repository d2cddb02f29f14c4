"""Mapper fits: feature map, polar parameterization, planted-parameter
recovery, degenerate-input rejection, and dispatch."""

import numpy as np
import pytest

from gaze3d.eye_simulator import SimRig, TwoSphereEye, synthesize_dataset
from gaze3d.dataset_io import DataRecord
from gaze3d.geometry import Ray, point_ray_distance, rotation_from_angles
from gaze3d.mappers import (
    DEFAULT_EYE_RESOLUTION,
    DegenerateGeometry,
    GazeEstimate,
    MappingConfig,
    Model3Dto3D,
    RankDeficient,
    direction_to_polar,
    fit_2d_to_2d,
    fit_2d_to_3d,
    fit_3d_to_3d,
    fit_mapper,
    polar_to_direction,
    poly_features,
    predict_2d_to_2d,
    predict_2d_to_3d,
    predict_3d_to_3d,
    predict_rays,
    predict_sample,
)


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


def test_predict_rays_needs_poses_for_3d3d():
    bundle, samples = two_depth_samples()
    model = fit_mapper("3d3d", samples)
    s = samples[2]
    poseless = DataRecord(pupil_px=s.pupil_px, pupil_pose=None,
                          target=s.target, target_px=s.target_px,
                          depth_label=s.depth_label, role=s.role)
    with pytest.raises(ValueError, match="record 2"):
        predict_rays(model, samples[:2] + [poseless], bundle.rig.scene_camera)
    with pytest.raises(TypeError):
        predict_rays(object(), samples, bundle.rig.scene_camera)
