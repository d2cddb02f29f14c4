"""3D vector, rotation and pinhole-camera primitives shared by all modules,
and the number rules of every value read from outside: is_number (a
finite real; not a bool, a numeric string or an int beyond float range),
check_number for a scalar ("<name> must be a finite number > 0, got
<value>"), check_integer for a count ("<name> must be an integer from
<low> to <high>, got <value>", or ">= <low>") and number_array for an
array ("<name> must be 3x3 finite numbers, got <entries>").  A mapper-id
list, a depth list and a config section have one rule each too:
mappers.check_mappers, eye_simulator.check_depths and dataset_io._section.

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


def check_number(value, name, relation=">"):
    """`value`, if it is a finite number (see is_number) > 0, or >= 0
    with relation=">="; otherwise a ValueError naming `name`."""
    if not (is_number(value) and (value > 0 if relation == ">"
                                  else value >= 0)):
        raise ValueError(f"{name} must be a finite number {relation} 0, "
                         f"got {value!r}")


def check_integer(value, name, low, high=None):
    """`value`, if it is an integer (not a bool) from `low` to `high`, or
    >= `low` when high is None; otherwise a ValueError naming `name`.
    The one rule of every count read from outside."""
    if not (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and low <= value
            and (high is None or value <= high)):
        span = f">= {low}" if high is None else f"from {low} to {high}"
        raise ValueError(f"{name} must be an integer {span}, got {value!r}")


def check_numbers(obj, names, relation=">"):
    """check_number on each of the `names` attributes of `obj`."""
    for name in names:
        check_number(getattr(obj, name), name, relation)


# the largest |angle| rotation_from_angles takes, radians
ANGLE_LIMIT = math.pi + 1e-12

# number_array's relations: each entry's test and its wording
_RELATIONS = {None: (lambda a: True, ""),
              ">": (lambda a: a > 0, " > 0"),
              ">=": (lambda a: a >= 0, " >= 0"),
              "angle": (lambda a: abs(a) <= ANGLE_LIMIT, " in [-pi, pi]")}


def number_array(value, shape, name, relation=None):
    """`value` as a float array, if it has `shape` and each entry is a
    finite number (see is_number), and > 0 (or >= 0) with relation ">"
    (or ">="), or an angle rotation_from_angles takes with relation
    "angle"; otherwise a ValueError naming `name` and the entries as
    given.  The one rule of every array of numbers read from outside."""
    entries = np.asarray(value, dtype=object)
    holds, bound = _RELATIONS[relation]
    if entries.shape == shape and all(map(is_number, entries.flat)):
        array = entries.astype(float)
        if np.all(holds(array)):
            return array
    raise ValueError(f"{name} must be {'x'.join(map(str, shape))} finite "
                     f"numbers{bound}, got {entries.tolist()!r}")


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
    if np.any(np.abs([a, b, c]) > ANGLE_LIMIT):
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
    camera itself uses the identity pose.  Each field must be its shape
    of finite numbers (number_array: focal 2 and resolution 2, each > 0,
    principal 2, rotation 3x3, translation 3), the principal point must
    lie inside the image, and the rotation must be one (max |R^T R - I|
    <= 1e-9 and det R > 0, so no scaling or reflection), or ValueError
    names the field.
    """

    focal: np.ndarray          # (fx, fy) pixels
    principal: np.ndarray      # (cx, cy) pixels
    resolution: np.ndarray     # (width, height) pixels
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name, shape, relation in (
                ("focal", (2,), ">"), ("principal", (2,), None),
                ("resolution", (2,), ">"), ("rotation", (3, 3), None),
                ("translation", (3,), None)):
            object.__setattr__(self, name, number_array(
                getattr(self, name), shape, name, relation))
        if np.any(self.principal < 0) or np.any(self.principal > self.resolution):
            raise ValueError("principal point must lie inside image bounds")
        rot = self.rotation
        if (np.abs(rot.T @ rot - np.eye(3)).max() > 1e-9
                or np.linalg.det(rot) <= 0):
            raise ValueError(f"rotation must be orthonormal with determinant "
                             f"+1, got {rot.tolist()!r}")

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

def row_array(values, width):
    """`values` as an (N, width) float array (an empty sequence is N = 0),
    or ValueError: the row rule of the batched functions and mappers."""
    rows = np.asarray(values, dtype=float)
    if rows.shape == (0,):
        rows = rows.reshape(0, width)
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"expected vectors of {width} entries, "
                         f"got an array of shape {rows.shape}")
    return rows


def _row_norms(a):
    return np.sqrt(np.einsum("ij,ij->i", a, a))


def dot_norms(a):
    """Norms of the rows of an (..., n) array, each the bits np.linalg.norm
    gives for that row alone: both take the square root of one dot
    product (einsum sums in another order and can differ in the last
    bit)."""
    a = np.asarray(a, dtype=float)
    return np.sqrt(a[..., None, :] @ a[..., :, None])[..., 0, 0]


def cross(a, b):
    """a x b along the last axis of two broadcastable (..., 3) arrays,
    each row the bits np.cross gives for it: written out, as np.cross
    costs more in dispatch than in arithmetic at these sizes."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0 = a1 * b2 - a2 * b1
    out = np.empty(c0.shape + (3,))
    out[..., 0] = c0
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def normalize_rows(v):
    """Each row of an (N, 3) array divided by its norm (batched normalize)."""
    v = row_array(v, 3)
    norms = _row_norms(v)
    zero = norms < 1e-15
    if zero.any():
        raise ZeroVector("cannot normalize zero-length vector "
                         f"(row {int(np.argmax(zero))})")
    return v / norms[:, None]


def back_project_batch(cam: PinholeCamera, pixels) -> np.ndarray:
    """Unit scene-frame directions of the rays from the camera origin
    (`cam.translation`) through each row of an (N, 2) pixel array."""
    px = row_array(pixels, 2)
    d_cam = np.empty((len(px), 3))
    d_cam[:, :2] = (px - cam.principal) / cam.focal
    d_cam[:, 2] = 1.0
    return normalize_rows(d_cam @ cam.rotation.T)


def intersect_ray_depth_plane_batch(origins, directions, depths) -> np.ndarray:
    """Points where rays origins[i] + lambda * directions[i] meet their own
    planes z = depths[i]; (N, 3) arrays of origins and unit directions."""
    origins, directions = row_array(origins, 3), row_array(directions, 3)
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
