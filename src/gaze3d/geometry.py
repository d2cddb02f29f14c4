"""3D vector, rotation and pinhole-camera primitives shared by all modules,
and the number rule (is_number, check_numbers) of their settings.

Conventions: x right, y down, z forward (optical axis) in every camera
frame, so positive depth means visible.  World quantities are in meters,
image quantities in pixels.  Angles are radians unless a function says
degrees.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


class GeometryError(ValueError):
    """Base class for geometric precondition violations."""


class NonPositiveDepth(GeometryError):
    """Point is behind (or in the plane of) the camera."""


class AngleOutOfRange(GeometryError):
    """Euler angle component outside [-pi, pi]."""


class ZeroVector(GeometryError):
    """Operation undefined for a zero-length vector."""


class ParallelToPlane(GeometryError):
    """Ray direction has no z component; never meets a depth plane."""


class BehindOrigin(GeometryError):
    """Depth-plane intersection lies at lambda <= 0."""


def is_number(value) -> bool:
    """Whether `value` is a finite real number: a bool, a numeric string
    or an integer beyond float range is not one.  The one number rule of
    every setting, rig, camera and config value."""
    try:
        return (isinstance(value, numbers.Real)
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:       # an int too large for a float
        return False


def check_numbers(obj, names, relation=">"):
    """Raise a ValueError naming the first of the `names` attributes of
    `obj` that is not a finite number (see is_number) > 0, or >= 0 with
    relation=">="."""
    for name in names:
        value = getattr(obj, name)
        if not (is_number(value) and (value > 0 if relation == ">"
                                      else value >= 0)):
            raise ValueError(f"{name} must be a finite number {relation} 0, "
                             f"got {value!r}")


def _as_vec(x, n):
    v = np.asarray(x, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"expected shape ({n},), got {v.shape}")
    return v


def normalize(v):
    """Return v / |v|, raising ZeroVector on degenerate input."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm < 1e-15:
        raise ZeroVector("cannot normalize zero-length vector")
    return v / norm


@dataclass(frozen=True)
class Ray:
    """Half-line origin + lambda * direction, lambda >= 0, unit direction."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", _as_vec(self.origin, 3))
        object.__setattr__(self, "direction", _as_vec(self.direction, 3))
        if abs(np.linalg.norm(self.direction) - 1.0) > 1e-9:
            raise ValueError("ray direction must be unit length")

    def at(self, lam):
        return self.origin + lam * self.direction


def rotation_from_angles(angles):
    """Rotation matrix for intrinsic X-then-Y-then-Z Euler angles.

    R = Rx(a) @ Ry(b) @ Rz(c).  With this convention (0, pi, 0) is a half
    turn about the vertical axis: it maps (0,0,1) to (0,0,-1), i.e. the
    scene-camera forward axis onto an opposing eye-camera forward axis.
    """
    a, b, c = _as_vec(angles, 3)
    if np.any(np.abs([a, b, c]) > np.pi + 1e-12):
        raise AngleOutOfRange(f"angles {angles} outside [-pi, pi]")
    sa, ca = np.sin(a), np.cos(a)
    sb, cb = np.sin(b), np.cos(b)
    sc, cc = np.sin(c), np.cos(c)
    rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rz = np.array([[cc, -sc, 0], [sc, cc, 0], [0, 0, 1]])
    return rx @ ry @ rz


def angles_from_rotation(rot):
    """Invert rotation_from_angles; angles returned in [-pi, pi].

    At the gimbal-locked pitch |b| = pi/2 the (a, c) split is not unique;
    c is set to 0 there.  The returned triple always reproduces the
    rotation action even when the individual angles differ from the ones
    that built it.
    """
    rot = np.asarray(rot, dtype=float)
    # R[0,2] = sin(b); R[1,2] = -sin(a)cos(b); R[0,1] = -cos(b)sin(c)
    b = np.arcsin(np.clip(rot[0, 2], -1.0, 1.0))
    if abs(rot[0, 2]) < 1.0 - 1e-12:
        a = np.arctan2(-rot[1, 2], rot[2, 2])
        c = np.arctan2(-rot[0, 1], rot[0, 0])
    else:
        a = np.arctan2(rot[2, 1], rot[1, 1])
        c = 0.0
    return np.array([a, b, c])


def wrap_angle(theta):
    """Wrap angle(s) into [-pi, pi)."""
    return np.mod(np.asarray(theta) + np.pi, 2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class PinholeCamera:
    """Pinhole intrinsics plus an optional rigid pose in the scene frame.

    `rotation` holds the camera axes as columns (camera-to-world);
    `translation` is the camera origin in the scene frame.  The scene
    camera itself uses the identity pose.  A field whose entries are not
    finite numbers (see is_number), a focal length or resolution <= 0 or
    a principal point outside the image raises ValueError naming it.
    """

    focal: np.ndarray          # (fx, fy) pixels
    principal: np.ndarray      # (cx, cy) pixels
    resolution: np.ndarray     # (width, height) pixels
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name, size in (("focal", 2), ("principal", 2), ("resolution", 2),
                           ("rotation", None), ("translation", 3)):
            value = getattr(self, name)
            try:
                array = (np.asarray(value, dtype=float) if size is None
                         else _as_vec(value, size))
            except OverflowError:   # an int beyond float range, which
                array = None        # the entries check below rejects
            if array is not None and not np.isfinite(array).all():
                raise ValueError(f"{name} must be finite, "
                                 f"got {array.tolist()}")
            # the entries as given: float() takes a bool or a numeric string
            entries = np.asarray(value, dtype=object)
            if not all(map(is_number, entries.ravel())):
                raise ValueError(f"{name} entries must be numbers, "
                                 f"got {entries.tolist()}")
            object.__setattr__(self, name, array)
        if np.any(self.focal <= 0):
            raise ValueError("focal lengths must be positive")
        if np.any(self.resolution <= 0):
            raise ValueError(f"resolution must be positive, got "
                             f"{self.resolution.tolist()}")
        if np.any(self.principal < 0) or np.any(self.principal > self.resolution):
            raise ValueError("principal point must lie inside image bounds")

    def world_to_camera(self, point):
        return self.rotation.T @ (np.asarray(point, dtype=float) - self.translation)

    def camera_to_world_dir(self, direction):
        return self.rotation @ np.asarray(direction, dtype=float)


def project(cam: PinholeCamera, point) -> np.ndarray:
    """Project a scene-frame point to pixel coordinates.

    Raises NonPositiveDepth when the point is not strictly in front of
    the camera (z <= 1e-12 in the camera frame).
    """
    pc = cam.world_to_camera(_as_vec(point, 3))
    if pc[2] <= 1e-12:
        raise NonPositiveDepth(f"point has non-positive depth {pc[2]:.3g}")
    return cam.principal + cam.focal * pc[:2] / pc[2]


def back_project(cam: PinholeCamera, pixel) -> Ray:
    """Ray from the camera origin through a pixel, in the scene frame."""
    px = _as_vec(pixel, 2)
    d_cam = np.array([(px[0] - cam.principal[0]) / cam.focal[0],
                      (px[1] - cam.principal[1]) / cam.focal[1],
                      1.0])
    d = cam.camera_to_world_dir(d_cam)
    return Ray(cam.translation, d / np.linalg.norm(d))


def point_ray_distance(ray: Ray, point) -> float:
    """Distance from a point to the infinite line carrying the ray.

    Equals |direction x (point - origin)|; with unit direction no
    denominator is needed.
    """
    return float(np.linalg.norm(np.cross(ray.direction,
                                         _as_vec(point, 3) - ray.origin)))


def angle_between(v1, v2) -> float:
    """Angle between two nonzero vectors, degrees in [0, 180].

    Uses 2*atan2(|u1-u2|, |u1+u2|), which stays accurate where the
    arccos form loses digits (near 0 and 180 degrees); identical
    directions give exactly 0.
    """
    u1, u2 = normalize(v1), normalize(v2)
    return float(np.degrees(2.0 * np.arctan2(np.linalg.norm(u1 - u2),
                                             np.linalg.norm(u1 + u2))))


def intersect_ray_depth_plane(ray: Ray, depth: float) -> np.ndarray:
    """Point where the ray meets the fronto-parallel plane z = depth."""
    if abs(ray.direction[2]) < 1e-9:
        raise ParallelToPlane("ray direction has no z component")
    lam = (depth - ray.origin[2]) / ray.direction[2]
    if lam <= 0:
        raise BehindOrigin(f"plane z={depth} is behind the ray origin")
    return ray.at(lam)


# -- batched forms ---------------------------------------------------------
# Row-wise versions of normalize, back_project, intersect_ray_depth_plane
# and angle_between over (N, 3) arrays, for scoring a whole test set at
# once.  Each raises the scalar form's GeometryError subclass when any row
# is invalid, naming the first such row; the scalar functions stay the
# reference they are tested against.

def _rows(x, n):
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"expected shape (N, {n}), got {a.shape}")
    return a


def _row_norms(a):
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def dot_norms(a):
    """Norms of the rows of an (..., n) array, each the bits np.linalg.norm
    gives for that row alone: both take the square root of one dot
    product (einsum sums in another order and can differ in the last
    bit)."""
    a = np.asarray(a, dtype=float)
    return np.sqrt(a[..., None, :] @ a[..., :, None])[..., 0, 0]


def normalize_rows(v):
    """Each row of an (N, 3) array divided by its norm (batched normalize)."""
    v = _rows(v, 3)
    norms = _row_norms(v)
    zero = norms < 1e-15
    if zero.any():
        raise ZeroVector("cannot normalize zero-length vector "
                         f"(row {int(np.argmax(zero))})")
    return v / norms[:, None]


def back_project_batch(cam: PinholeCamera, pixels) -> np.ndarray:
    """Unit scene-frame directions of the rays from the camera origin
    (`cam.translation`) through each row of an (N, 2) pixel array."""
    px = _rows(pixels, 2)
    d_cam = np.empty((len(px), 3))
    d_cam[:, :2] = (px - cam.principal) / cam.focal
    d_cam[:, 2] = 1.0
    return normalize_rows(d_cam @ cam.rotation.T)


def intersect_ray_depth_plane_batch(origins, directions, depths) -> np.ndarray:
    """Points where rays origins[i] + lambda * directions[i] meet their own
    planes z = depths[i]; (N, 3) arrays of origins and unit directions."""
    origins, directions = _rows(origins, 3), _rows(directions, 3)
    depths = np.asarray(depths, dtype=float)
    dz = directions[:, 2]
    parallel = np.abs(dz) < 1e-9
    if parallel.any():
        dz = np.where(parallel, 1.0, dz)   # those rows raise below
    lam = (depths - origins[:, 2]) / dz
    bad = parallel | (lam <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        if parallel[i]:
            raise ParallelToPlane(f"ray direction has no z component (row {i})")
        raise BehindOrigin(f"plane z={depths[i]} is behind the ray origin "
                           f"(row {i})")
    return origins + lam[:, None] * directions


def angle_between_batch(v1, v2) -> np.ndarray:
    """Angles between the rows of two (N, 3) arrays, degrees in [0, 180]
    (batched angle_between, same formula)."""
    u1, u2 = normalize_rows(v1), normalize_rows(v2)
    return np.degrees(2.0 * np.arctan2(_row_norms(u1 - u2),
                                       _row_norms(u1 + u2)))
