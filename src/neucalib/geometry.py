"""Rigid-body algebra, pinhole projection, and training-time augmentation.

Everything here is pure numpy on plain arrays; the differentiable pose
refinement keeps its own projection and its gradient in :mod:`neucalib.pnp`.

Conventions: a pose maps sensor-frame points into the camera frame,
q = R p + t. ``project`` and ``unproject`` state the pinhole model once, on
the camera frame, as inverses of each other: a caller applies any pose
first, and a NaN pixel coordinate marks a point the camera cannot see.
Augmentation translates first, then rotates (p' = R_r (p + t_r)), which is
the unique order under which the recomputed ground-truth pose
t_gt = t_raw - R_raw t_r, R_gt = R_raw R_r^-1 reproduces the original
projections exactly; ``augment`` returns both and the tests pin this identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, real_array

ORTHONORMALITY_TOL = 1e-9
MIN_DEPTH = 1e-6  # meters; at or below this a point projects to NaN
_EYE = np.eye(3)


@dataclass(frozen=True)
class RigidPose:
    """Rotation (SO(3)) and translation (meters)."""

    rotation: np.ndarray  # 3x3
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        r = real_array(self.rotation, "rotation", ParameterError)
        t = real_array(self.translation, "translation", ParameterError)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ParameterError(f"rotation must be 3 x 3 and translation 3: {r.shape}, {t.shape}")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        with np.errstate(all="ignore"):  # inf and huge entries fail the test, as NaN does
            off = np.abs(r.T @ r - _EYE).max()
        if not off <= ORTHONORMALITY_TOL:
            raise ParameterError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > ORTHONORMALITY_TOL:
            raise ParameterError("rotation determinant is not +1 within 1e-9")
        if not np.isfinite(t).all():
            raise ParameterError(f"translation must be finite: {t}")

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an N x 3 array of points into this pose's target frame."""
        pts = _points(points)
        with np.errstate(all="ignore"):  # non-finite points give NaN
            return pts @ self.rotation.T + self.translation


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters; the pixel grid they map onto is the scene's."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        k = real_array((self.fx, self.fy, self.cx, self.cy), "intrinsics", ParameterError)
        if not (k.shape == (4,) and np.isfinite(k).all() and (k[:2] > 0).all()):
            raise ParameterError(f"intrinsics must be finite, the focal lengths > 0: {k}")


def rotation_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit 3-vector axis by a finite angle."""
    axis, a = real_array(axis, "axis", ParameterError), real_array(angle, "angle", ParameterError)
    if not (axis.shape == (3,) and abs(np.linalg.norm(axis) - 1.0) <= ORTHONORMALITY_TOL
            and a.shape == () and np.isfinite(a)):
        raise ParameterError(f"axis must be a unit 3-vector and angle finite: {axis}, {angle!r}")
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def invert(a: RigidPose) -> RigidPose:
    rt = a.rotation.T
    return RigidPose(rt, -rt @ a.translation)


def project(points, k: CameraIntrinsics) -> np.ndarray:
    """Pinhole projection of N x 3 camera-frame points to N x 2 pixel
    coordinates (u along width, v along height). A row is NaN, not an error,
    where its point cannot be seen: the depth is not a finite number above
    MIN_DEPTH, or a coordinate is not finite (a non-finite or huge point)."""
    q = _points(points)
    depth = q[:, 2]
    with np.errstate(all="ignore"):  # non-finite, huge or zero-depth points give NaN or inf
        coords = q[:, :2] * (k.fx, k.fy) / depth[:, None] + (k.cx, k.cy)
    seen = (depth > MIN_DEPTH) & np.isfinite(depth) & np.isfinite(coords).all(axis=1)
    coords[~seen] = np.nan
    return coords


def unproject(coords, depth, k: CameraIntrinsics) -> np.ndarray:
    """Inverse of :func:`project`: N x 2 pixels at N depths to N x 3 camera-frame points."""
    coords = real_array(coords, "coords", ParameterError)
    depth = real_array(depth, "depth", ParameterError)
    if coords.ndim != 2 or coords.shape[1] != 2 or depth.shape != coords.shape[:1]:
        raise ParameterError(f"coords must be N x 2 and depth N, got {coords.shape}, {depth.shape}")
    with np.errstate(all="ignore"):  # non-finite input gives NaN
        x = (coords[:, 0] - k.cx) / k.fx * depth
        y = (coords[:, 1] - k.cy) / k.fy * depth
    return np.stack([x, y, depth], axis=1)


def sample_augmentation(rng: np.random.Generator, rot_range: float,
                        trans_range: float) -> tuple[np.ndarray, np.ndarray]:
    """Draw a random z-axis rotation and in-plane translation.

    The angle is uniform in [-rot_range, rot_range]; the translation is
    uniform in the x-y square of half-width trans_range with zero z.
    Draw order (angle, tx, ty) is fixed for reproducibility; a zero range
    draws too, and gives 0.0.
    """
    ranges = real_array((rot_range, trans_range), "augmentation ranges", ParameterError)
    if not (ranges.shape == (2,) and (0 <= ranges).all() and (ranges < np.inf).all()):
        raise ParameterError(f"augmentation ranges must be finite, >= 0: {rot_range, trans_range}")
    angle = rng.uniform(-rot_range, rot_range)
    tx = rng.uniform(-trans_range, trans_range)
    ty = rng.uniform(-trans_range, trans_range)
    return rotation_from_axis_angle([0.0, 0.0, 1.0], angle), np.array([tx, ty, 0.0])


def augment(points, raw: RigidPose, rot, trans) -> tuple[np.ndarray, RigidPose]:
    """Points p' = R_r (p + t_r), for a 3 x 3 rotation ``rot`` and 3-vector
    ``trans``, and the pose under which they project as ``points`` do under
    ``raw``: t_gt = t_raw - R_raw t_r and R_gt = R_raw R_r^-1, so that
    R_gt p' + t_gt = R_raw p + t_raw."""
    pts = _points(points)
    rot = real_array(rot, "augmentation rotation", ParameterError)
    trans = real_array(trans, "augmentation translation", ParameterError)
    if rot.shape != (3, 3) or trans.shape != (3,):
        raise ParameterError("augmentation rotation must be 3 x 3 and translation 3, "
                             f"got {rot.shape}, {trans.shape}")
    with np.errstate(all="ignore"):  # non-finite input gives NaN, which RigidPose refuses
        moved = (pts + trans) @ rot.T
        r_gt, t_gt = raw.rotation @ rot.T, raw.translation - raw.rotation @ trans
    return moved, RigidPose(r_gt, t_gt)


def _points(points) -> np.ndarray:
    """Real N x 3 ``points`` as float64 (not copied if they are), else a ParameterError."""
    pts = real_array(points, "points", ParameterError)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ParameterError(f"points must be N x 3, got shape {pts.shape}")
    return pts


def _matrix3(m, what: str) -> np.ndarray:
    """A finite real 3 x 3 ``m`` as float64, else a ParameterError."""
    m = real_array(m, what, ParameterError)
    if m.shape != (3, 3) or not np.isfinite(m).all():
        raise ParameterError(f"{what} must be a finite 3 x 3 matrix, got shape {m.shape}")
    return m


def geodesic_angle(r_a: np.ndarray, r_b: np.ndarray) -> float:
    """Rotation angle in [0, pi] of D = r_a^T r_b, in radians, as atan2 of its
    sine |axial(D - D^T)| / 2 and cosine (tr D - 1) / 2: small angles keep the
    digits that acos of the cosine alone rounds away (to 0 below about 1e-8)."""
    d = _matrix3(r_a, "r_a").T @ _matrix3(r_b, "r_b")
    sine = 0.5 * math.hypot(d[2, 1] - d[1, 2], d[0, 2] - d[2, 0], d[1, 0] - d[0, 1])
    return math.atan2(sine, 0.5 * (np.trace(d) - 1.0))


def project_to_so3(m: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (SVD projection)."""
    u, _, vt = np.linalg.svd(_matrix3(m, "matrix"))
    r = u @ vt
    if np.linalg.det(r) < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r
