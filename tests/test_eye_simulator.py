"""Simulator checks: pupil geometry, target grids, sample synthesis,
noise semantics, and dataset determinism."""

import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import gaze3d
from gaze3d.eye_simulator import (
    DEFAULT_DEPTHS,
    GRID_PRESETS,
    DatasetBundle,
    DegenerateTarget,
    GridSpec,
    NoIntersection,
    PupilNotVisible,
    SampleColumns,
    SimRig,
    TargetNotVisible,
    TwoSphereEye,
    _deflect,
    _deflect_rows,
    default_bundle,
    derive_pupil_geometry,
    gaze_toward,
    synthesize_dataset,
    synthesize_points,
    synthesize_sample,
)
from gaze3d.geometry import (
    PinholeCamera,
    angle_between,
    dot_norms,
    normalize_rows,
    project,
    rotation_from_angles,
)
from helpers import rows, stack


# ── two-sphere eye ───────────────────────────────────────────────────────

def test_pupil_geometry_formula():
    eye = TwoSphereEye()   # R=11.5, r=7.8, d=4.7
    offset, radius = derive_pupil_geometry(eye)
    assert np.isclose(offset, (4.7**2 + 11.5**2 - 7.8**2) / (2 * 4.7))
    assert np.isclose(radius, math.sqrt(11.5**2 - offset**2))
    # the intersection circle must lie on both spheres
    assert np.isclose(offset**2 + radius**2, 11.5**2)
    assert np.isclose((offset - 4.7)**2 + radius**2, 7.8**2)


def test_non_intersecting_spheres_rejected():
    with pytest.raises(NoIntersection):
        TwoSphereEye(eyeball_radius_mm=10, corneal_radius_mm=2,
                     center_separation_mm=20)   # too far apart
    with pytest.raises(NoIntersection):
        TwoSphereEye(eyeball_radius_mm=10, corneal_radius_mm=9,
                     center_separation_mm=0.5)  # one inside the other


@pytest.mark.parametrize("name, value", [
    ("eyeball_radius_mm", math.nan), ("eyeball_radius_mm", math.inf),
    ("corneal_radius_mm", -7.8), ("center_separation_mm", 0.0),
    ("center_separation_mm", "4.7"), ("corneal_radius_mm", True),
])
def test_eye_lengths_must_be_finite_positive_numbers(name, value):
    # NaN used to read as spheres that do not intersect, and a string
    # raised a TypeError from the intersection test
    with pytest.raises(ValueError,
                       match=f"^{name} must be a finite number > 0, got ") \
            as err:
        TwoSphereEye(**{name: value})
    assert not isinstance(err.value, NoIntersection)


# ── target grids ─────────────────────────────────────────────────────────

def test_grid_shape_and_ordering():
    pts = GridSpec(calib_rows=3, calib_cols=4, width=1.2,
                   height=0.6).points(1.5)
    assert pts.shape == (12, 3)
    assert np.allclose(pts[:, 2], 1.5)
    assert np.allclose(pts[0], (-0.6, -0.3, 1.5))    # row-major from corner
    assert np.allclose(pts[3], (0.6, -0.3, 1.5))     # end of first row
    assert np.allclose(pts[-1], (0.6, 0.3, 1.5))
    xs = np.unique(pts[:, 0])
    assert np.allclose(np.diff(xs), xs[1] - xs[0])   # even spacing


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(calib_rows=1)
    with pytest.raises(ValueError, match=r"^grid depth must be a finite "
                                         r"number > 0, got 0\.0$"):
        GridSpec().points(0.0)


@pytest.mark.parametrize("depth", (math.nan, math.inf, -math.inf, True))
def test_non_finite_grid_depth_fails_by_name(depth, recwarn):
    """A NaN, infinite or bool depth is rejected by name before any
    synthesis (it used to print numpy warnings and fail inside it)."""
    message = rf"^grid depth must be a finite number > 0, got {depth!r}$"
    with pytest.raises(ValueError, match=message):
        GridSpec().points(depth)
    with pytest.raises(ValueError) as err:
        synthesize_dataset(SimRig(), TwoSphereEye(), depths=(1.0, depth))
    assert str(err.value) == (f"depths must be a nonempty list of finite "
                              f"positive meters, got (1.0, {depth!r})")
    assert not recwarn.list


def test_a_repeated_depth_is_rejected_by_name():
    # the repeated group was overwritten, and the groups after it drew
    # other noise than those of the same depths listed once
    rig = SimRig(noise_pupil_px=1.0)
    with pytest.raises(ValueError) as err:
        synthesize_dataset(rig, TwoSphereEye(), depths=(1.0, 1.0, 2.0))
    assert str(err.value) == "depths contains duplicates"
    bundle = synthesize_dataset(rig, TwoSphereEye(), depths=(2.0, 1.0))
    assert bundle.depths() == (1.0, 2.0)


def grid_size(points):
    """The width and height a grid's points span."""
    return np.ptp(points[:, 0]), np.ptp(points[:, 1])


def test_test_grid_strictly_inside_calibration_hull():
    for spec in (GridSpec(), GRID_PRESETS["fov"]):
        for depth in DEFAULT_DEPTHS:
            calib = spec.points(depth)
            test = spec.points(depth, test=True)
            (test_w, test_h), (calib_w, calib_h) = map(grid_size,
                                                       (test, calib))
            assert test_w < calib_w
            assert test_h < calib_h
            assert np.all(test[:, 2] == depth) and np.all(calib[:, 2] == depth)


def test_fov_grid_scales_linearly_with_depth():
    spec = GRID_PRESETS["fov"]
    (w1, h1), (w2, h2) = (grid_size(spec.points(d)) for d in (1.0, 2.0))
    assert np.isclose(w2, 2 * w1)
    assert np.isclose(h2, 2 * h1)
    # constant visual angle across depth
    assert np.isclose(math.atan2(w1 / 2, 1.0), math.atan2(w2 / 2, 2.0))


def test_display_grid_constant_across_depth():
    spec = GridSpec()
    assert grid_size(spec.points(1.0))[0] == grid_size(spec.points(2.0))[0]


# ── sample synthesis ─────────────────────────────────────────────────────

def test_gaze_ray_passes_through_target():
    rig = SimRig()
    target = np.array([0.2, -0.1, 1.5])
    ray = gaze_toward(rig, target)
    assert np.allclose(ray.origin, rig.e_gt)
    lam = np.linalg.norm(target - rig.e_gt)
    assert np.allclose(ray.at(lam), target, atol=1e-12)


def test_gaze_toward_degenerate_target():
    rig = SimRig()
    with pytest.raises(DegenerateTarget):
        gaze_toward(rig, rig.e_gt)


def test_noiseless_sample_channels_are_exact():
    rig = SimRig()
    eye = TwoSphereEye()
    target = np.array([0.1, 0.05, 1.25])
    s = synthesize_sample(rig, eye, target, rng=0)

    assert np.array_equal(s.target, target)
    assert np.allclose(s.target_px, project(rig.scene_camera, target))

    g = (target - rig.e_gt) / np.linalg.norm(target - rig.e_gt)
    pupil_center = rig.e_gt + derive_pupil_geometry(eye)[0] * 1e-3 * g
    assert np.allclose(s.pupil_px, project(rig.eye_camera, pupil_center))
    # pose is the gaze direction expressed in the eye-camera frame
    assert np.isclose(np.linalg.norm(s.pupil_pose), 1.0)
    assert np.allclose(rig.eye_camera.rotation @ s.pupil_pose, g, atol=1e-12)


def test_target_noise_keeps_ray_through_stored_target():
    # the stored target is the (noisy) point actually fixated, so the
    # ground-truth ray must still pass through it exactly
    rig = SimRig(noise_target_mm=5.0)
    s = synthesize_sample(rig, TwoSphereEye(), (0.0, 0.0, 1.5), rng=1)
    assert not np.allclose(s.target, (0, 0, 1.5))
    gaze = gaze_toward(rig, s.target)
    lam = np.linalg.norm(s.target - gaze.origin)
    assert np.allclose(gaze.at(lam), s.target, atol=1e-12)
    # and the eye fixated it: the noiseless pose is that ray's direction
    assert np.allclose(rig.eye_camera.rotation @ s.pupil_pose,
                       gaze.direction, atol=1e-12)


def test_pose_noise_deflects_by_sigma_scale():
    rig = SimRig(noise_pose_deg=0.5)
    clean = SimRig()
    eye = TwoSphereEye()
    angles = []
    for i in range(200):
        noisy = synthesize_sample(rig, eye, (0.05, 0.0, 1.5), rng=i)
        ref = synthesize_sample(clean, eye, (0.05, 0.0, 1.5), rng=i)
        assert np.isclose(np.linalg.norm(noisy.pupil_pose), 1.0, atol=1e-12)
        angles.append(angle_between(noisy.pupil_pose, ref.pupil_pose))
    # |N(0, 0.5deg)| has mean sigma*sqrt(2/pi) ~ 0.4deg
    assert 0.25 < np.mean(angles) < 0.55


class ScriptedRng:
    """Stands in for a numpy Generator: normal() hands out `draws` in
    order, scaled as Generator.normal would."""

    def __init__(self, draws):
        self.draws = [np.asarray(d, dtype=float) for d in draws]

    def normal(self, loc=0.0, scale=1.0, size=None):
        draw = self.draws.pop(0)
        return loc + scale * (draw if size is not None else float(draw))


def test_batched_deflection_matches_per_sample_with_a_redraw():
    # the second row's first seed axis is parallel to its direction, so
    # both forms must redraw it from that row's own generator
    directions = normalize_rows(np.array([[0.1, -0.2, -1.0],
                                          [0.0, 0.0, -1.0],
                                          [0.3, 0.1, -0.9]]))
    scripts = [[0.3, (0.5, -1.0, 0.2)],
               [-0.7, (0.0, 0.0, 2.0), (1.0, 0.5, -0.3)],
               [1.1, (-0.4, 0.9, 0.1)]]
    sigma = np.radians(0.5)
    rngs = [ScriptedRng(script) for script in scripts]
    batched = _deflect_rows(directions, sigma, rngs)
    assert not any(rng.draws for rng in rngs)
    for row, direction, script in zip(batched, directions, scripts):
        assert np.array_equal(row, _deflect(direction, sigma,
                                            ScriptedRng(script)))


def test_pixel_noise_only_touches_pupil_channel():
    rig = SimRig(noise_pupil_px=2.0)
    clean = synthesize_sample(SimRig(), TwoSphereEye(), (0.0, 0.0, 1.0), rng=7)
    noisy = synthesize_sample(rig, TwoSphereEye(), (0.0, 0.0, 1.0), rng=7)
    assert not np.allclose(noisy.pupil_px, clean.pupil_px)
    assert np.array_equal(noisy.target_px, clean.target_px)
    assert np.array_equal(noisy.pupil_pose, clean.pupil_pose)


def test_sample_determinism():
    rig = SimRig(noise_pupil_px=1.0, noise_pose_deg=0.3, noise_target_mm=2.0)
    a = synthesize_sample(rig, TwoSphereEye(), (0.1, 0.0, 1.5), rng=42)
    b = synthesize_sample(rig, TwoSphereEye(), (0.1, 0.0, 1.5), rng=42)
    assert np.array_equal(a.pupil_px, b.pupil_px)
    assert np.array_equal(a.pupil_pose, b.pupil_pose)
    assert np.array_equal(a.target, b.target)


def test_target_not_visible():
    rig = SimRig()
    with pytest.raises(TargetNotVisible):
        synthesize_sample(rig, TwoSphereEye(), (10.0, 0.0, 1.0))   # off image
    with pytest.raises(TargetNotVisible):
        synthesize_sample(rig, TwoSphereEye(), (0.0, 0.0, -1.0))   # behind


def test_pupil_not_visible():
    narrow_eye_cam = PinholeCamera(
        focal=(620.0, 620.0), principal=(2.0, 2.0), resolution=(4.0, 4.0),
        rotation=SimRig().eye_camera.rotation,
        translation=SimRig().eye_camera.translation)
    rig = SimRig(eye_camera=narrow_eye_cam)
    with pytest.raises(PupilNotVisible):
        synthesize_sample(rig, TwoSphereEye(), (0.3, 0.0, 1.0))


def test_rig_rejects_eye_camera_facing_away():
    bad_cam = PinholeCamera(focal=(620.0, 620.0), principal=(320.0, 180.0),
                            resolution=(640.0, 360.0))   # identity pose
    with pytest.raises(ValueError):
        SimRig(eye_camera=bad_cam)   # eyeball sits behind it


@pytest.mark.parametrize("kwargs, message", [
    ({"e_gt": (np.nan, 0.035, -0.025)},
     "e_gt must be 3 finite numbers, got [nan, 0.035, -0.025]"),
    ({"e_gt": (0.0, np.inf, 0.0)},
     "e_gt must be 3 finite numbers, got [0.0, inf, 0.0]"),
    ({"e_gt": (0.0, 0.0)}, "e_gt must be 3 finite numbers, got [0.0, 0.0]"),
    ({"noise_pupil_px": math.nan},
     "noise_pupil_px must be a finite number >= 0, got nan"),
    ({"noise_pupil_px": -1.0},
     "noise_pupil_px must be a finite number >= 0, got -1.0"),
    ({"noise_pose_deg": math.inf},
     "noise_pose_deg must be a finite number >= 0, got inf"),
    ({"noise_target_mm": -0.5},
     "noise_target_mm must be a finite number >= 0, got -0.5"),
    ({"noise_target_mm": "2"},
     "noise_target_mm must be a finite number >= 0, got '2'"),
])
def test_rig_rejects_non_finite_or_negative_values(kwargs, message):
    # a NaN or negative sigma made `noisy` False, so the data came out
    # noiseless without a word
    with pytest.raises(ValueError) as err:
        SimRig(**kwargs)
    assert str(err.value) == message


# ── datasets ─────────────────────────────────────────────────────────────

def test_dataset_counts_and_labels():
    bundle = default_bundle("display")
    assert bundle.depths() == DEFAULT_DEPTHS
    for depth in DEFAULT_DEPTHS:
        assert len(bundle.calibration[depth]) == 25
        assert len(bundle.test[depth]) == 16
        for group in (bundle.calibration[depth], bundle.test[depth]):
            assert np.all(group.target[:, 2] == depth)


def test_bundle_groups_must_be_columns():
    bundle = default_bundle("display", depths=(1.0, 2.0))
    for role in ("calibration", "test"):
        groups = {**getattr(bundle, role), 2.0: rows(bundle.test[2.0])}
        with pytest.raises(TypeError, match=f"^{role} group at depth 2.0 is "
                           "not a SampleColumns: list$"):
            DatasetBundle(**{"calibration": bundle.calibration,
                             "test": bundle.test, role: groups},
                          rig=bundle.rig, eye=bundle.eye)


@pytest.mark.parametrize("name, shape, expected", [
    ("pupil_px", (25, 3), (25, 2)), ("pupil_pose", (20, 3), (25, 3)),
    ("target", (20, 3), (25, 3)), ("target_px", (50,), (25, 2)),
    ("target_px", (25, 2, 1), (25, 2))],
    ids=["wide-pupil-px", "short-pose", "short-target", "flat-target-px",
         "3d-target-px"])
def test_columns_check_each_field_against_the_table(name, shape, expected):
    # a (25, 3) pupil_px used to save a file that failed to load at line
    # 2, and a 20-row target made the 2d3d fit raise numpy's broadcast
    # error, which names no field
    group = default_bundle("display", depths=(1.0,)).calibration[1.0]
    with pytest.raises(ValueError) as err:
        replace(group, **{name: np.zeros(shape)})
    assert str(err.value) == (f"field {name!r} must have shape {expected}, "
                              f"got {shape}")


def test_bundle_groups_are_read_only():
    # a group set after construction skipped the depth and type checks:
    # a NaN key saved a file that failed to load, and a str group made
    # save_dataset raise AttributeError
    bundle = default_bundle("display", depths=(1.0,))
    group = bundle.calibration[1.0]
    with pytest.raises(TypeError):
        bundle.calibration[math.nan] = group
    with pytest.raises(TypeError):
        bundle.test[2.0] = "x"
    assert list(bundle.calibration) == list(bundle.test) == [1.0]
    changed = replace(bundle, test={2.0: group})
    assert list(changed.test) == [2.0]
    assert changed.calibration == bundle.calibration


def test_dataset_depths_sorted_regardless_of_input_order():
    bundle = synthesize_dataset(SimRig(), TwoSphereEye(),
                                depths=(2.0, 1.0, 1.5))
    assert bundle.depths() == (1.0, 1.5, 2.0)


def test_dataset_determinism_with_noise():
    rig = SimRig(noise_pupil_px=0.5, noise_pose_deg=0.2)
    a = synthesize_dataset(rig, TwoSphereEye(), depths=(1.0, 1.5), seed=9)
    b = synthesize_dataset(rig, TwoSphereEye(), depths=(1.0, 1.5), seed=9)
    c = synthesize_dataset(rig, TwoSphereEye(), depths=(1.0, 1.5), seed=10)
    for depth in (1.0, 1.5):
        assert np.array_equal(a.calibration[depth].pupil_px,
                              b.calibration[depth].pupil_px)
        assert np.array_equal(a.calibration[depth].pupil_pose,
                              b.calibration[depth].pupil_pose)
    assert not np.array_equal(a.calibration[1.0].pupil_px[0],
                              c.calibration[1.0].pupil_px[0])


def test_default_bundle_presets_differ():
    disp = default_bundle("display", depths=(2.0,))
    fov = default_bundle("fov", depths=(2.0,))
    # fov targets at 2 m span twice the display width of 0.40 m
    spread = lambda b: np.ptp(b.calibration[2.0].target[:, 0])
    assert np.isclose(spread(disp), 0.40)
    assert np.isclose(spread(fov), 1.0)
    with pytest.raises(ValueError):
        default_bundle("widescreen")


def test_empty_depths_rejected():
    with pytest.raises(ValueError):
        synthesize_dataset(SimRig(), TwoSphereEye(), depths=())


# ── batched synthesis against the per-sample oracle ──────────────────────

def per_sample_dataset(rig, eye, depths, grids, seed):
    """synthesize_dataset's contract, one synthesize_sample per point with
    the generator of its own spawned seed; raises at the first bad point."""
    root = np.random.SeedSequence(seed)
    groups = {"calibration": {}, "test": {}}
    for depth in sorted(depths):
        for role, test in (("calibration", False), ("test", True)):
            points = grids.points(depth, test)
            groups[role][depth] = [
                synthesize_sample(rig, eye, pt, np.random.default_rng(s))
                for pt, s in zip(points, root.spawn(len(points)))]
    return groups


def rotated_eye_camera(e_gt=SimRig().e_gt):
    return PinholeCamera(focal=(600.0, 610.0), principal=(320.0, 180.0),
                         resolution=(640.0, 360.0),
                         rotation=rotation_from_angles((0.1, 3.0, -0.05)),
                         translation=np.asarray(e_gt) + (0.005, -0.004, 0.035))


NOISE = dict(noise_pupil_px=1.0, noise_pose_deg=0.5, noise_target_mm=2.0)
ORACLE_CASES = {
    "noiseless-display": (SimRig(), GRID_PRESETS["display"]),
    "noisy-display": (SimRig(**NOISE), GRID_PRESETS["display"]),
    "fov": (SimRig(), GRID_PRESETS["fov"]),
    "rotated-eye-camera": (SimRig(eye_camera=rotated_eye_camera(), **NOISE),
                           GRID_PRESETS["display"]),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_dataset_matches_per_sample_oracle(case):
    rig, grids = ORACLE_CASES[case]
    eye, depths = TwoSphereEye(), (1.0, 1.5, 2.0)
    bundle = synthesize_dataset(rig, eye, depths, grids, seed=5)
    oracle = per_sample_dataset(rig, eye, depths, grids, seed=5)
    for role in ("calibration", "test"):
        got = getattr(bundle, role)
        assert list(got) == list(oracle[role])
        for depth, samples in oracle[role].items():
            want = stack(samples)
            for f in fields(SampleColumns):
                assert (getattr(got[depth], f.name).tobytes()
                        == getattr(want, f.name).tobytes())
            # the ground-truth gaze of each row is unit(target - e_gt)
            offsets = got[depth].target - rig.e_gt
            directions = offsets / dot_norms(offsets)[:, None]
            gazes = [gaze_toward(rig, b.target) for b in samples]
            assert (np.array([g.direction for g in gazes]).tobytes()
                    == directions.tobytes())
            for g in gazes:
                assert np.array_equal(g.origin, rig.e_gt)


BAD_POINT_CASES = {
    # the scene camera sits 0.3 m left, so only the last column of each
    # 2 m wide grid row falls off its image (first bad point: index 4)
    "target-off-scene-image": (
        SimRig(scene_camera=PinholeCamera(
            focal=(720.0, 720.0), principal=(640.0, 360.0),
            resolution=(1280.0, 720.0), translation=(-0.3, 0.0, 0.0)),
            **NOISE),
        GridSpec(width=2.0), TargetNotVisible),
    "pupil-off-eye-image": (
        SimRig(eye_camera=PinholeCamera(
            focal=(2000.0, 2000.0), principal=(320.0, 180.0),
            resolution=(640.0, 360.0),
            rotation=rotation_from_angles((0.0, np.pi, 0.0)),
            translation=SimRig().e_gt + (0.0, 0.0, 0.035))),
        GridSpec(width=1.2), PupilNotVisible),
    # the eyeball centre is the middle point of the 5 x 5 grid at 1 m
    # (no target noise, which would move the point off it)
    "target-on-e_gt": (SimRig(e_gt=(0.0, 0.0, 1.0), noise_pupil_px=1.0,
                              noise_pose_deg=0.5),
                       GridSpec(), DegenerateTarget),
}


@pytest.mark.parametrize("case", BAD_POINT_CASES)
def test_dataset_raises_what_the_oracle_raises(case):
    rig, grids, exc = BAD_POINT_CASES[case]
    eye, depths = TwoSphereEye(), (1.0, 1.5)
    with pytest.raises(exc) as scalar:
        per_sample_dataset(rig, eye, depths, grids, seed=2)
    with pytest.raises(exc) as batched:
        synthesize_dataset(rig, eye, depths, grids, seed=2)
    assert type(batched.value) is type(scalar.value)
    assert str(batched.value) == str(scalar.value)


def per_sample_points(rig, eye, points, seed):
    """synthesize_points' contract: synthesize_sample on the i-th point
    with a generator seeded from SeedSequence(seed).spawn(N)[i]."""
    children = np.random.SeedSequence(seed).spawn(len(points))
    return [synthesize_sample(rig, eye, pt, np.random.default_rng(s))
            for pt, s in zip(points, children)]


# 30 targets off any grid, at mixed depths in [1, 2] m
MIXED_POINTS = np.random.default_rng(21).uniform(
    (-0.15, -0.08, 1.0), (0.15, 0.08, 2.0), (30, 3))


@pytest.mark.parametrize("rig", [SimRig(), SimRig(**NOISE)],
                         ids=["noiseless", "noisy"])
@pytest.mark.parametrize("seed", [0, 7, "sequence"])
def test_points_match_per_sample_oracle(rig, seed):
    eye = TwoSphereEye()
    oracle = stack(per_sample_points(
        rig, eye, MIXED_POINTS, 11 if seed == "sequence" else seed))
    got = synthesize_points(rig, eye, MIXED_POINTS.tolist(),
                            np.random.SeedSequence(11) if seed == "sequence"
                            else seed)
    for f in fields(SampleColumns):
        assert (getattr(got, f.name).tobytes()
                == getattr(oracle, f.name).tobytes())


@pytest.mark.parametrize("case", BAD_POINT_CASES)
def test_points_raise_what_the_oracle_raises(case):
    rig, grids, exc = BAD_POINT_CASES[case]
    eye = TwoSphereEye()
    points = np.concatenate([grids.points(1.0), grids.points(1.5, True)])
    with pytest.raises(exc) as scalar:
        per_sample_points(rig, eye, points, seed=2)
    with pytest.raises(exc) as batched:
        synthesize_points(rig, eye, points, seed=2)
    assert type(batched.value) is type(scalar.value)
    assert str(batched.value) == str(scalar.value)


SIMULATORS = {
    "points": lambda rig, seed: synthesize_points(
        rig, TwoSphereEye(), GridSpec().points(1.0), seed),
    "dataset": lambda rig, seed: synthesize_dataset(
        rig, TwoSphereEye(), (1.0, 2.0), seed=seed),
    "default-bundle": lambda rig, seed: default_bundle(
        depths=(1.0, 2.0), seed=seed, noise_pupil_px=rig.noise_pupil_px,
        noise_pose_deg=rig.noise_pose_deg,
        noise_target_mm=rig.noise_target_mm),
}


@pytest.mark.parametrize("rig", [SimRig(), SimRig(**NOISE)],
                         ids=["noiseless", "noisy"])
@pytest.mark.parametrize("simulator", SIMULATORS)
@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_a_bad_seed_fails_by_name_on_every_rig(rig, simulator, seed):
    # a noiseless rig ignored its seed, and SeedSequence took True
    with pytest.raises(ValueError) as err:
        SIMULATORS[simulator](rig, seed)
    assert str(err.value) == f"seed must be an integer >= 0, got {seed!r}"


@pytest.mark.parametrize("points, message", [
    ([[0.0, 0.0, 1.0], [0.1, math.nan, 1.5]], "[0.1, nan, 1.5] in row 1"),
    (np.ones((4, 2)), "an array of shape (4, 2) and dtype float64"),
    (np.empty((0, 3)), "an array of shape (0, 3) and dtype float64"),
    ([["0.1", "0", "1"]], "an array of shape (1, 3) and dtype <U3"),
    ([[0.0, 0.0, 1.0], [0.0, 1.0]], "an array of shape (2,) and dtype object"),
], ids=["nan-row", "two-columns", "empty", "strings", "ragged"])
def test_bad_points_fail_by_name(points, message):
    with pytest.raises(ValueError) as err:
        synthesize_points(SimRig(), TwoSphereEye(), points)
    assert str(err.value) == ("points must be a nonempty (N, 3) array of "
                              f"finite numbers, got {message}")


def _run_without_numpy_random(*lines):
    """Run `lines` in a fresh interpreter and check that numpy.random is
    not loaded after them; skipped where importing numpy alone loads it
    (numpy 1.x)."""
    probe = subprocess.run([sys.executable, "-c", "import sys, numpy; "
                            "print('numpy.random' in sys.modules)"],
                           capture_output=True, text=True, timeout=60)
    if probe.stdout.strip() != "False":
        pytest.skip("importing numpy alone loads numpy.random (numpy 1.x)")
    script = "\n".join(("import sys", "import gaze3d", *lines,
                        "assert 'numpy.random' not in sys.modules"))
    env = {**os.environ,
           "PYTHONPATH": str(Path(gaze3d.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_a_noiseless_sweep_never_imports_numpy_random():
    # numpy.random costs about 5 MB and 11-15 ms to import, and a
    # noiseless rig draws nothing
    _run_without_numpy_random(
        "gaze3d.depth_combination_sweep(",
        "    gaze3d.default_bundle('display', depths=(1.0, 2.0)))")


@pytest.mark.parametrize("rng", ["None", "7"])
def test_a_noiseless_sample_never_imports_numpy_random(rng):
    # the README quick start's call; with rng=None it used to draw OS
    # entropy it never used
    _run_without_numpy_random(
        "gaze3d.synthesize_sample(gaze3d.SimRig(), gaze3d.TwoSphereEye(),",
        f"                        [0.1, 0.05, 1.5], rng={rng})")
