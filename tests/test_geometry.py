"""Hand-computed cases and seeded property loops for the geometry core.

Frame convention under test: x right, y down, z forward, so Rx(pi/2)
must take +y to +z, and a pixel right of the principal point must
back-project to a ray with positive x.
"""

import numpy as np
import pytest

from gaze3d.geometry import (
    AngleOutOfRange,
    BehindOrigin,
    NonPositiveDepth,
    ParallelToPlane,
    PinholeCamera,
    Ray,
    ZeroVector,
    angle_between,
    angle_between_batch,
    angles_from_rotation,
    back_project,
    back_project_batch,
    intersect_ray_depth_plane,
    intersect_ray_depth_plane_batch,
    is_number,
    normalize,
    normalize_rows,
    point_ray_distance,
    project,
    rotation_from_angles,
    wrap_angle,
)


def default_cam(**kwargs):
    return PinholeCamera(focal=(720.0, 720.0), principal=(640.0, 360.0),
                         resolution=(1280.0, 720.0), **kwargs)


@pytest.mark.parametrize("value, expected", [
    (1, True), (-0.5, True), (np.float64(2.0), True), (10**300, True),
    (10**400, False), (-(10**400), False), (True, False), ("1", False),
    (float("nan"), False), (float("inf"), False), (None, False),
])
def test_is_number(value, expected):
    # an integer beyond float range used to raise OverflowError
    assert is_number(value) is expected


# ── rotations ────────────────────────────────────────────────────────────

def test_rotation_identity_at_zero_angles():
    assert np.allclose(rotation_from_angles((0, 0, 0)), np.eye(3))


def test_rotation_axis_actions():
    # Rx(pi/2): y -> z; Ry(pi/2): z -> x; Rz(pi/2): x -> y
    assert np.allclose(rotation_from_angles((np.pi / 2, 0, 0)) @ [0, 1, 0],
                       [0, 0, 1], atol=1e-12)
    assert np.allclose(rotation_from_angles((0, np.pi / 2, 0)) @ [0, 0, 1],
                       [1, 0, 0], atol=1e-12)
    assert np.allclose(rotation_from_angles((0, 0, np.pi / 2)) @ [1, 0, 0],
                       [0, 1, 0], atol=1e-12)


def test_rotation_composition_order_is_x_then_y_then_z():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, c = rng.uniform(-np.pi, np.pi, 3)
        expected = (rotation_from_angles((a, 0, 0))
                    @ rotation_from_angles((0, b, 0))
                    @ rotation_from_angles((0, 0, c)))
        assert np.allclose(rotation_from_angles((a, b, c)), expected,
                           atol=1e-12)


def test_rotation_half_turn_about_vertical_flips_forward():
    R = rotation_from_angles((0, np.pi, 0))
    assert np.allclose(R @ [0, 0, 1], [0, 0, -1], atol=1e-12)


def test_rotation_is_orthonormal():
    rng = np.random.default_rng(1)
    for _ in range(50):
        R = rotation_from_angles(rng.uniform(-np.pi, np.pi, 3))
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.isclose(np.linalg.det(R), 1.0)


def test_rotation_angle_range_validated():
    with pytest.raises(AngleOutOfRange):
        rotation_from_angles((3.2, 0, 0))
    with pytest.raises(AngleOutOfRange):
        rotation_from_angles((0, 0, -3.5))
    # exactly pi is allowed
    rotation_from_angles((np.pi, -np.pi, np.pi))


def test_angles_roundtrip_preserves_action():
    rng = np.random.default_rng(2)
    for _ in range(200):
        R = rotation_from_angles(rng.uniform(-np.pi, np.pi, 3))
        R2 = rotation_from_angles(angles_from_rotation(R))
        assert np.abs(R - R2).max() < 1e-9


def test_angles_roundtrip_at_gimbal_lock():
    for b in (np.pi / 2, -np.pi / 2):
        for a, c in ((0.3, -0.7), (1.2, 0.4)):
            R = rotation_from_angles((a, b, c))
            back = angles_from_rotation(R)
            assert back[2] == 0.0          # convention: c folded into a
            assert np.allclose(rotation_from_angles(back), R, atol=1e-9)


def test_half_turn_roundtrip():
    # (0, pi, 0) comes back as a different but action-equal triple
    R = rotation_from_angles((0, np.pi, 0))
    assert np.allclose(rotation_from_angles(angles_from_rotation(R)), R,
                       atol=1e-12)


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(np.pi) == -np.pi          # half-open [-pi, pi)
    assert np.isclose(wrap_angle(3 * np.pi / 2), -np.pi / 2)
    assert np.isclose(wrap_angle(-9 * np.pi / 4), -np.pi / 4)


# ── rays and vectors ─────────────────────────────────────────────────────

def test_ray_requires_unit_direction():
    Ray((0, 0, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        Ray((0, 0, 0), (0, 0, 2))
    with pytest.raises(ValueError):
        Ray((0, 0, 0), (0, 0, 0))


def test_ray_at():
    ray = Ray((1.0, 2.0, 3.0), (0.0, 0.0, 1.0))
    assert np.allclose(ray.at(2.5), (1, 2, 5.5))


def test_normalize_zero_vector():
    with pytest.raises(ZeroVector):
        normalize((0, 0, 0))


def test_point_ray_distance_hand_case():
    ray = Ray((0, 0, 0), (0, 0, 1))
    assert np.isclose(point_ray_distance(ray, (3, 4, 7)), 5.0)
    assert point_ray_distance(ray, (0, 0, 123.0)) < 1e-15


def test_point_ray_distance_invariant_to_origin_slide():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = normalize(rng.normal(size=3))
        o = rng.normal(size=3)
        p = rng.normal(size=3)
        base = point_ray_distance(Ray(o, d), p)
        slid = point_ray_distance(Ray(o + 2.7 * d, d), p)
        assert np.isclose(base, slid, atol=1e-10)


def test_angle_between_hand_cases():
    assert np.isclose(angle_between((1, 0, 0), (0, 1, 0)), 90.0)
    assert angle_between((1, 1, 0), (2, 2, 0)) == 0.0   # exact, same direction
    assert np.isclose(angle_between((1, 0, 0), (-1, 0, 0)), 180.0)
    with pytest.raises(ZeroVector):
        angle_between((0, 0, 0), (1, 0, 0))


def test_angle_between_near_parallel_stable():
    # must stay finite and tiny where arccos of a rounded dot product
    # would wash out
    v = np.array([0.8, 0.6, 0.0])
    assert 0.0 <= angle_between(v, v * (1 + 1e-16)) < 1e-6


# ── pinhole camera ───────────────────────────────────────────────────────

def test_project_hand_case():
    cam = default_cam()
    px = project(cam, (0.1, 0.05, 1.0))
    assert np.allclose(px, (640 + 72, 360 + 36))


def test_project_rejects_non_positive_depth():
    cam = default_cam()
    for z in (0.0, -1.0, 1e-13):
        with pytest.raises(NonPositiveDepth):
            project(cam, (0.0, 0.0, z))


def test_camera_validation():
    with pytest.raises(ValueError):
        PinholeCamera(focal=(0.0, 720), principal=(640, 360),
                      resolution=(1280, 720))
    with pytest.raises(ValueError):
        PinholeCamera(focal=(720, 720), principal=(2000, 360),
                      resolution=(1280, 720))


@pytest.mark.parametrize("field, value", [
    ("focal", (np.nan, 720.0)),
    ("principal", (640.0, np.nan)),
    ("resolution", (np.inf, 720.0)),
    ("rotation", np.diag([1.0, np.nan, 1.0])),
    ("translation", (0.0, np.nan, 0.0)),
])
def test_camera_rejects_non_finite_values(field, value):
    # a NaN focal length or principal point passed the range checks
    # (nan <= 0 is False)
    kwargs = dict(focal=(720.0, 720.0), principal=(640.0, 360.0),
                  resolution=(1280.0, 720.0))
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
        PinholeCamera(**kwargs)


def test_back_project_returns_unit_ray_from_camera_origin():
    cam = default_cam()
    ray = back_project(cam, (800.0, 200.0))
    assert np.isclose(np.linalg.norm(ray.direction), 1.0)
    assert np.allclose(ray.origin, cam.translation)
    assert ray.direction[0] > 0 and ray.direction[1] < 0   # right and up


def test_project_back_project_roundtrip():
    cam = default_cam()
    rng = np.random.default_rng(4)
    for _ in range(100):
        pt = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3),
                       rng.uniform(0.5, 3.0)])
        ray = back_project(cam, project(cam, pt))
        assert point_ray_distance(ray, pt) < 1e-9


def test_posed_camera_roundtrip():
    # camera looking backwards from an offset, like the eye camera
    cam = PinholeCamera(focal=(620.0, 620.0), principal=(320.0, 180.0),
                        resolution=(640.0, 360.0),
                        rotation=rotation_from_angles((0, np.pi, 0)),
                        translation=(0.015, 0.035, 0.01))
    rng = np.random.default_rng(5)
    for _ in range(50):
        # points in front of this camera sit at negative scene z
        pt = np.array([rng.uniform(-0.01, 0.04), rng.uniform(0.0, 0.07),
                       rng.uniform(-0.1, -0.02)])
        ray = back_project(cam, project(cam, pt))
        assert point_ray_distance(ray, pt) < 1e-9


def test_world_camera_transforms_are_inverse():
    cam = PinholeCamera(focal=(620.0, 620.0), principal=(320.0, 180.0),
                        resolution=(640.0, 360.0),
                        rotation=rotation_from_angles((0.1, 2.0, -0.3)),
                        translation=(0.2, -0.1, 0.4))
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = rng.normal(size=3)
        pc = cam.world_to_camera(p)
        back = cam.rotation @ pc + cam.translation
        assert np.allclose(back, p, atol=1e-12)


# ── depth-plane intersection ─────────────────────────────────────────────

def test_intersect_ray_depth_plane_hand_case():
    ray = Ray((0.0, 0.0, 0.0), normalize((1.0, 0.0, 1.0)))
    assert np.allclose(intersect_ray_depth_plane(ray, 2.0), (2, 0, 2))


def test_intersect_with_offset_origin():
    ray = Ray((0.1, -0.2, 0.5), (0.0, 0.0, 1.0))
    assert np.allclose(intersect_ray_depth_plane(ray, 2.0), (0.1, -0.2, 2.0))


def test_intersect_parallel_ray_rejected():
    ray = Ray((0, 0, 1), (1.0, 0.0, 0.0))
    with pytest.raises(ParallelToPlane):
        intersect_ray_depth_plane(ray, 2.0)


def test_intersect_plane_behind_origin_rejected():
    ray = Ray((0, 0, 1.0), (0.0, 0.0, 1.0))
    with pytest.raises(BehindOrigin):
        intersect_ray_depth_plane(ray, 0.5)
    with pytest.raises(BehindOrigin):
        intersect_ray_depth_plane(ray, 1.0)    # lambda == 0 is degenerate too


# ── batched forms ────────────────────────────────────────────────────────

def test_batched_forms_match_scalar_row_by_row():
    cam = PinholeCamera(focal=(700.0, 690.0), principal=(640.0, 360.0),
                        resolution=(1280.0, 720.0),
                        rotation=rotation_from_angles((0.05, -0.1, 0.2)),
                        translation=(0.02, -0.01, 0.03))
    rng = np.random.default_rng(8)
    pixels = rng.uniform((0, 0), (1280, 720), size=(20, 2))
    dirs = back_project_batch(cam, pixels)
    rays = [back_project(cam, p) for p in pixels]
    assert np.allclose(dirs, [r.direction for r in rays], rtol=0, atol=1e-15)
    depths = rng.uniform(0.5, 3.0, 20)
    origins = np.broadcast_to(cam.translation, (20, 3))
    hits = intersect_ray_depth_plane_batch(origins, dirs, depths)
    assert np.allclose(hits, [intersect_ray_depth_plane(r, z)
                              for r, z in zip(rays, depths)],
                       rtol=0, atol=1e-14)
    v1, v2 = rng.normal(size=(20, 3)), rng.normal(size=(20, 3))
    v2[0] = 3.0 * v1[0]                                  # exactly 0 degrees
    angles = angle_between_batch(v1, v2)
    assert angles[0] == 0.0
    assert np.allclose(angles, [angle_between(a, b) for a, b in zip(v1, v2)],
                       rtol=0, atol=1e-12)


def test_batched_errors_name_first_bad_row():
    origins = np.zeros((4, 3))
    dirs = np.tile((0.0, 0.0, 1.0), (4, 1))
    depths = np.full(4, 2.0)
    # row 1 points away from its plane, row 2 is parallel to it: the
    # first bad row decides the error, as in a row-by-row scalar loop
    dirs[1], dirs[2] = (0.0, 0.0, -1.0), (1.0, 0.0, 0.0)
    with pytest.raises(BehindOrigin, match="row 1"):
        intersect_ray_depth_plane_batch(origins, dirs, depths)
    dirs[1] = (0.0, 0.0, 1.0)
    with pytest.raises(ParallelToPlane, match="row 2"):
        intersect_ray_depth_plane_batch(origins, dirs, depths)
    with pytest.raises(BehindOrigin, match="row 0"):     # lambda == 0
        intersect_ray_depth_plane_batch(origins, np.tile((0, 0, 1.0), (4, 1)),
                                        np.zeros(4))
    vecs = np.ones((3, 3))
    vecs[2] = 0.0
    with pytest.raises(ZeroVector, match="row 2"):
        normalize_rows(vecs)
    with pytest.raises(ZeroVector, match="row 2"):
        angle_between_batch(np.ones((3, 3)), vecs)
    with pytest.raises(ValueError):
        back_project_batch(default_cam(), np.zeros((3, 3)))
