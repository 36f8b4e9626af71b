"""Rigid-body algebra, in numpy on plain arrays. The pinhole model's values are
stated in ``scene._grid_projection``, its derivative in :mod:`neucalib.pnp`.

The public surface is ``RigidPose`` (q = R p + t maps sensor-frame points into
the camera frame) and ``CameraIntrinsics``, which check their fields where
they are built, and ``sample_augmentation``. A number that enters is bounded
there, before any arithmetic, so nothing after overflows: by ``MAX_MAGNITUDE``
(NaN fails too), a rotation entry by 1 + ``ORTHONORMALITY_TOL``. The private
kernels serve the library and check nothing: ``_rotation_from_axis_angle``
takes a unit axis and a finite angle, ``_project_to_so3`` a finite 3 x 3 matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_generator, real_array

ORTHONORMALITY_TOL = 1e-9
# bound on each |number| that enters, in m or px, and 1 / it on a focal length: past any generated
# point (about 7e4 m at the largest grid) and pixel (below 65536), far below EPnP's overflow
MAX_MAGNITUDE = 1e6
MIN_DEPTH = 1e-6  # meters; at or below this a point cannot be seen
_EYE, _ZERO = np.eye(3), np.zeros(3)


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
        if not ((abs(r) <= 1.0 + ORTHONORMALITY_TOL).all()
                and np.abs(r.T @ r - _EYE).max() <= ORTHONORMALITY_TOL):
            raise ParameterError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > ORTHONORMALITY_TOL:
            raise ParameterError("rotation determinant is not +1 within 1e-9")
        if not (abs(t) <= MAX_MAGNITUDE).all():
            raise ParameterError(f"translation must be within +-{MAX_MAGNITUDE:g}: {t}")

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an N x 3 array of points into this pose's target frame."""
        pts = real_array(points, "points", ParameterError)
        if not (pts.ndim == 2 and pts.shape[1] == 3 and (abs(pts) <= MAX_MAGNITUDE).all()):
            raise ParameterError(f"points must be N x 3 within +-{MAX_MAGNITUDE:g}: {pts.shape}")
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
        if not (k.shape == (4,) and (abs(k) <= MAX_MAGNITUDE).all()
                and (k[:2] >= 1.0 / MAX_MAGNITUDE).all()):
            raise ParameterError(f"intrinsics must be within +-{MAX_MAGNITUDE:g}, the focal "
                                 f"lengths >= {1.0 / MAX_MAGNITUDE:g}: {k}")


def _rotation_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit 3-vector axis by a finite angle."""
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def sample_augmentation(rng: np.random.Generator, rot_range: float,
                        trans_range: float) -> tuple[np.ndarray, np.ndarray]:
    """Draw a random z-axis rotation and in-plane translation.

    The angle is uniform in [-rot_range, rot_range]; the translation is
    uniform in the x-y square of half-width trans_range with zero z.
    Draw order (angle, tx, ty) is fixed for reproducibility; a zero range
    draws too, and gives 0.0.
    """
    check_generator(rng)
    ranges = real_array((rot_range, trans_range), "augmentation ranges", ParameterError)
    if not (ranges.shape == (2,) and ((0 <= ranges) & (ranges <= MAX_MAGNITUDE)).all()):
        raise ParameterError(f"augmentation ranges must lie in [0, {MAX_MAGNITUDE:g}]: {ranges}")
    angle = rng.uniform(-rot_range, rot_range)
    tx = rng.uniform(-trans_range, trans_range)
    ty = rng.uniform(-trans_range, trans_range)
    return _rotation_from_axis_angle([0.0, 0.0, 1.0], angle), np.array([tx, ty, 0.0])


def geodesic_angle(r_a: np.ndarray, r_b: np.ndarray) -> float:
    """Rotation angle in [0, pi] of D = r_a^T r_b for rotations that ``RigidPose``
    takes, in radians, as atan2 of its sine |axial(D - D^T)| / 2 and cosine
    (tr D - 1) / 2: small angles keep the digits that acos of the cosine alone
    rounds away (to 0 below about 1e-8)."""
    d = RigidPose(r_a, _ZERO).rotation.T @ RigidPose(r_b, _ZERO).rotation
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
