"""Rigid-body algebra, pinhole projection, and training-time augmentation.

Everything here is pure numpy on plain arrays; the differentiable pose
refinement keeps its own projection and its gradient in :mod:`neucalib.pnp`.

Conventions: a pose maps sensor-frame points into the camera frame,
q = R p + t. Augmentation translates first, then rotates (p' = R_r (p + t_r)),
which is the unique order under which the recomputed ground-truth pose
t_gt = t_raw - R_raw t_r, R_gt = R_raw R_r^-1 reproduces the original
projections exactly; ``recompute_gt_pose`` and the tests pin this identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

ORTHONORMALITY_TOL = 1e-9
MIN_DEPTH = 1e-6  # meters; at or below this a projection is flagged invalid


@dataclass(frozen=True)
class RigidPose:
    """Rotation (SO(3)) and translation (meters)."""

    rotation: np.ndarray  # 3x3
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if not np.allclose(r.T @ r, np.eye(3), atol=ORTHONORMALITY_TOL):
            raise ParameterError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > ORTHONORMALITY_TOL:
            raise ParameterError("rotation determinant is not +1 within 1e-9")
        if not np.isfinite(t).all():
            raise ParameterError(f"translation must be finite: {t}")

    @staticmethod
    def identity() -> "RigidPose":
        return RigidPose(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an N x 3 array of points into this pose's target frame."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        return pts @ self.rotation.T + self.translation


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters; the pixel grid they map onto is the scene's."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ParameterError(f"focal lengths must be finite and positive: {self.fx, self.fy}")
        if not np.isfinite([self.cx, self.cy]).all():
            raise ParameterError(f"principal point must be finite: {self.cx, self.cy}")


class Projection(NamedTuple):
    coords: np.ndarray  # N x 2 pixel coordinates, NaN where invalid
    valid: np.ndarray  # N booleans, False where depth <= MIN_DEPTH


def rotation_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    axis = np.asarray(axis, dtype=np.float64).reshape(3)
    if abs(np.linalg.norm(axis) - 1.0) > ORTHONORMALITY_TOL:
        raise ParameterError(f"axis must be unit length, |axis| = {np.linalg.norm(axis)}")
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def rotation_about_z(angle: float) -> np.ndarray:
    return rotation_from_axis_angle([0.0, 0.0, 1.0], angle)


def invert(a: RigidPose) -> RigidPose:
    rt = a.rotation.T
    return RigidPose(rt, -rt @ a.translation)


def project(points, pose: RigidPose, k: CameraIntrinsics) -> Projection:
    """Pinhole projection with perspective division.

    Returns pixel coordinates (u along width, v along height) and a
    validity mask; invalid entries get NaN coordinates rather than raising,
    since downstream overlap labeling consumes the mask.
    """
    q = pose.apply(points)
    depth = q[:, 2]
    valid = depth > MIN_DEPTH
    coords = np.full((q.shape[0], 2), np.nan)
    safe = np.where(valid, depth, 1.0)
    coords[:, 0] = np.where(valid, k.fx * q[:, 0] / safe + k.cx, np.nan)
    coords[:, 1] = np.where(valid, k.fy * q[:, 1] / safe + k.cy, np.nan)
    return Projection(coords, valid)


def unproject(coords, depth, k: CameraIntrinsics) -> np.ndarray:
    """Inverse of :func:`project` at known depth, in the camera frame."""
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
    depth = np.asarray(depth, dtype=np.float64).reshape(-1)
    x = (coords[:, 0] - k.cx) / k.fx * depth
    y = (coords[:, 1] - k.cy) / k.fy * depth
    return np.stack([x, y, depth], axis=1)


def sample_augmentation(rng: np.random.Generator, rot_range: float,
                        trans_range: float) -> tuple[np.ndarray, np.ndarray]:
    """Draw a random z-axis rotation and in-plane translation.

    The angle is uniform in [-rot_range, rot_range]; the translation is
    uniform in the x-y square of half-width trans_range with zero z.
    Draw order (angle, tx, ty) is fixed for reproducibility.
    """
    if not (0 <= rot_range < np.inf and 0 <= trans_range < np.inf):
        raise ParameterError(f"augmentation ranges must be finite, >= 0: {rot_range, trans_range}")
    angle = rng.uniform(-rot_range, rot_range) if rot_range > 0 else 0.0
    tx = rng.uniform(-trans_range, trans_range) if trans_range > 0 else 0.0
    ty = rng.uniform(-trans_range, trans_range) if trans_range > 0 else 0.0
    return rotation_about_z(angle), np.array([tx, ty, 0.0])


def apply_augmentation(points, rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """p' = R_r (p + t_r): translate, then rotate."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    return (pts + np.asarray(trans).reshape(3)) @ np.asarray(rot).T


def recompute_gt_pose(raw: RigidPose, rot: np.ndarray, trans: np.ndarray) -> RigidPose:
    """Ground-truth pose for augmented points: projections stay fixed.

    t_gt = t_raw - R_raw t_r and R_gt = R_raw R_r^-1, so that
    R_gt p' + t_gt = R_raw p + t_raw for p' = R_r (p + t_r).
    """
    rot = np.asarray(rot, dtype=np.float64).reshape(3, 3)
    trans = np.asarray(trans, dtype=np.float64).reshape(3)
    return RigidPose(raw.rotation @ rot.T,
                     raw.translation - raw.rotation @ trans)


def geodesic_angle(r_a: np.ndarray, r_b: np.ndarray) -> float:
    """Rotation angle of r_a^T r_b, in radians."""
    delta = np.asarray(r_a).T @ np.asarray(r_b)
    c = (np.trace(delta) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, c)))


def project_to_so3(m: np.ndarray) -> np.ndarray:
    """Nearest rotation matrix in the Frobenius sense (SVD projection)."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=np.float64).reshape(3, 3))
    r = u @ vt
    if np.linalg.det(r) < 0:
        u = u.copy()
        u[:, -1] = -u[:, -1]
        r = u @ vt
    return r
