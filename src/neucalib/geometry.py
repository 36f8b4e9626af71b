"""Rigid-body algebra and pinhole projection, in numpy on plain arrays; the
differentiable refinement keeps its own projection in :mod:`neucalib.pnp`.

The public surface is ``RigidPose`` (q = R p + t maps sensor-frame points
into the camera frame) and ``CameraIntrinsics``, which check their fields
where they are built, and ``sample_augmentation``. The private kernels serve
the library and check nothing: ``_project`` states the pinhole model once,
on N x 3 float64 camera-frame points, a NaN row marking one the camera
cannot see; ``_unproject`` inverts it for scene generation;
``_rotation_from_axis_angle`` takes a unit axis and a finite angle;
``_project_to_so3`` a finite 3 x 3 matrix.
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
        pts = real_array(points, "points", ParameterError)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ParameterError(f"points must be N x 3, got shape {pts.shape}")
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


def _rotation_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit 3-vector axis by a finite angle."""
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def _project(q: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    """Pinhole projection of N x 3 float64 camera-frame points to N x 2 pixel
    coordinates (u along width, v along height). A row is NaN, not an error,
    where its point cannot be seen: the depth is not a finite number above
    MIN_DEPTH, or a coordinate is not finite (a non-finite or huge point)."""
    depth = q[:, 2]
    with np.errstate(all="ignore"):  # non-finite, huge or zero-depth points give NaN or inf
        coords = q[:, :2] * (k.fx, k.fy) / depth[:, None] + (k.cx, k.cy)
    seen = (depth > MIN_DEPTH) & np.isfinite(depth) & np.isfinite(coords).all(axis=1)
    coords[~seen] = np.nan
    return coords


def _unproject(coords: np.ndarray, depth: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    """Inverse of :func:`_project`: finite N x 2 float64 pixels at N depths to
    N x 3 camera-frame points."""
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
    return _rotation_from_axis_angle([0.0, 0.0, 1.0], angle), np.array([tx, ty, 0.0])


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


def _project_to_so3(m: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix to a finite 3 x 3 ``m`` in the Frobenius sense
    (SVD projection)."""
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    if np.linalg.det(r) < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r
