"""Differentiable pose estimation from 2D-3D correspondences.

EPnP (single-beta case) provides a closed-form initialization from four
control points; k damped Gauss-Newton steps on a 6-D local SE(3)
parametrization then minimize the pixel reprojection error. The EPnP
init is treated as a gradient constant: differentiating through the
eigen-decomposition is ill-conditioned near eigenvalue crossings, while
the refinement carries exact gradients of the finite procedure to the
2-D targets (and through them to the matching weights).

The refinement runs in plain numpy and records a single tape node. Its
hand-derived backward replays the k steps in reverse (Cayley rotation
update, damped 6x6 solve, normal equations, Jacobian rows, projection), so
reverse mode sees the true derivative of each step rather than a
fixed-point approximation. The pose loss is one more node on that output,
so the whole pose stage is two nodes on the tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import SolveError
from .geometry import MIN_DEPTH, CameraIntrinsics, RigidPose, project_to_so3

MIN_CORRESPONDENCES = 6
GN_DAMPING = 1e-6
DEGENERATE_SPREAD = 1e-8  # relative floor on the smallest principal extent
HUBER_DELTA = 1.0  # pose-loss error at which the Huber penalty turns linear


@dataclass
class PnPProblem:
    """Known 3-D points, observed/predicted 2-D targets, and intrinsics.

    ``targets`` may be a tape tensor (the trainable path) or a plain array.
    """

    points: np.ndarray  # N x 3
    targets: Tensor | np.ndarray  # N x 2
    intrinsics: CameraIntrinsics

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not isinstance(self.targets, Tensor):
            self.targets = ad.constant(np.asarray(self.targets, dtype=np.float64))
        if self.targets.shape != (self.points.shape[0], 2):
            raise SolveError(
                f"targets shape {self.targets.shape} does not match {self.points.shape[0]} points")
        if not (np.all(np.isfinite(self.points)) and np.all(np.isfinite(self.targets.value))):
            raise SolveError("points and targets must be finite")
        if self.points.shape[0] < MIN_CORRESPONDENCES:
            raise SolveError(
                f"need at least {MIN_CORRESPONDENCES} correspondences, got {self.points.shape[0]}")

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class PoseEstimate:
    pose: RigidPose


@dataclass
class RefinedPose:
    """Pose after refinement, with both tape and numpy views.

    ``pose`` is the ``gauss_newton`` node itself, a 3 x 5 matrix
    [R | t | (rms, 0, 0)] tape-connected to the targets: the refined
    rotation and translation and the RMS reprojection error.
    """

    pose: Tensor  # 3 x 5 [R | t | (rms, 0, 0)]
    estimate: PoseEstimate  # detached summary with re-orthonormalized pose
    objectives: list[float]  # sum of squared residuals per iteration incl. final


# --- EPnP initialization --------------------------------------------------

def control_points(points: np.ndarray) -> np.ndarray:
    """Centroid plus the three principal directions scaled to the cloud extent."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    centroid = points.mean(axis=0)
    centered = points - centroid
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    spread = svals / np.sqrt(points.shape[0])
    if spread[2] < DEGENERATE_SPREAD * max(spread[0], 1e-300):
        raise SolveError("degenerate point spread: points are (near) coplanar or collinear")
    return np.vstack([centroid] + [centroid + spread[j] * vt[j] for j in range(3)])


def barycentric_coordinates(points: np.ndarray, ctrl: np.ndarray) -> np.ndarray:
    """Per-point weights alpha with sum 1 and sum_j alpha_ij ctrl_j = p_i."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    hom = np.vstack([ctrl.T, np.ones(4)])  # 4x4
    rhs = np.vstack([points.T, np.ones(points.shape[0])])
    return np.linalg.solve(hom, rhs).T


def epnp_init(problem: PnPProblem) -> RigidPose:
    """Closed-form pose from the smallest eigenvector of the EPnP system.

    Single-beta case: the camera-frame control points are the null-space
    direction scaled to preserve inter-control-point distances, with the
    sign fixed by requiring positive median depth.
    """
    k = problem.intrinsics
    targets = problem.targets.value
    ctrl_w = control_points(problem.points)
    alphas = barycentric_coordinates(problem.points, ctrl_w)

    xn = (targets[:, 0] - k.cx) / k.fx
    yn = (targets[:, 1] - k.cy) / k.fy
    n = problem.n
    m = np.zeros((2 * n, 12))
    for j in range(4):
        m[0::2, 3 * j] = alphas[:, j]
        m[0::2, 3 * j + 2] = -alphas[:, j] * xn
        m[1::2, 3 * j + 1] = alphas[:, j]
        m[1::2, 3 * j + 2] = -alphas[:, j] * yn

    _, eigvecs = np.linalg.eigh(m.T @ m)
    v = eigvecs[:, 0].reshape(4, 3)

    num = den = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            d_cam = np.linalg.norm(v[a] - v[b])
            d_world = np.linalg.norm(ctrl_w[a] - ctrl_w[b])
            num += d_cam * d_world
            den += d_cam * d_cam
    if den <= 0:
        raise SolveError("EPnP null vector collapsed to a point")
    ctrl_c = (num / den) * v
    cam = alphas @ ctrl_c
    if np.median(cam[:, 2]) < 0:
        cam = -cam
    rot, trans = _absolute_orientation(problem.points, cam)
    return RigidPose(rot, trans)


def _absolute_orientation(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form rigid fit dst ~= R src + t (Horn/Kabsch, no scale): R is
    the rotation nearest the cross-covariance sum (d - dc)(s - sc)^T."""
    sc, dc = src.mean(axis=0), dst.mean(axis=0)
    rot = project_to_so3((dst - dc).T @ (src - sc))
    return rot, dc - rot @ sc


# --- Gauss-Newton refinement -----------------------------------------------

def _residuals(rot: np.ndarray, trans: np.ndarray, points: np.ndarray,
               k: CameraIntrinsics, targets: np.ndarray):
    """Camera-frame points (3 x N) and the pixel residuals u - tu, v - tv."""
    q = rot @ points.T + trans
    x, y, z = q
    if np.any(z <= MIN_DEPTH):
        raise SolveError("point depth collapsed during refinement")
    return q, (x / z) * k.fx + k.cx - targets[:, 0], (y / z) * k.fy + k.cy - targets[:, 1]


def _residuals_grad(q: np.ndarray, k: CameraIntrinsics, gru: np.ndarray,
                    grv: np.ndarray) -> np.ndarray:
    """Pull residual gradients back to the camera-frame points (3 x N)."""
    x, y, z = q
    gx, gy = gru * k.fx / z, grv * k.fy / z
    return np.stack([gx, gy, -(gx * x + gy * y) / z])


def _jacobian(q: np.ndarray, k: CameraIntrinsics):
    """N x 6 rows of d(u, v) / d(omega, tau) for a left-composed increment:
    [(q x a)^T, a^T] with a = (fx / z, 0, -fx x / z^2) for u, likewise for v."""
    x, y, z = q
    a1, a3 = (1.0 / z) * k.fx, (x / (z * z)) * -k.fx
    b2, b3 = (1.0 / z) * k.fy, (y / (z * z)) * -k.fy
    zero = np.zeros_like(z)
    ju = np.stack([y * a3, z * a1 - x * a3, -(y * a1), a1, zero, a3], axis=1)
    jv = np.stack([y * b3 - z * b2, -(x * b3), x * b2, zero, b2, b3], axis=1)
    return ju, jv


def _jacobian_grad(q: np.ndarray, k: CameraIntrinsics, gu: np.ndarray,
                   gv: np.ndarray) -> np.ndarray:
    """Pull gradients of the Jacobian rows back to the camera-frame points."""
    x, y, z = q
    a1, a3 = (1.0 / z) * k.fx, (x / (z * z)) * -k.fx
    b2, b3 = (1.0 / z) * k.fy, (y / (z * z)) * -k.fy
    ga1 = gu[:, 1] * z - gu[:, 2] * y + gu[:, 3]
    ga3 = gu[:, 0] * y - gu[:, 1] * x + gu[:, 5]
    gb2 = gv[:, 2] * x - gv[:, 0] * z + gv[:, 4]
    gb3 = gv[:, 0] * y - gv[:, 1] * x + gv[:, 5]
    gx = gv[:, 2] * b2 - gu[:, 1] * a3 - gv[:, 1] * b3 - ga3 * k.fx / (z * z)
    gy = gu[:, 0] * a3 - gu[:, 2] * a1 + gv[:, 0] * b3 - gb3 * k.fy / (z * z)
    gz = (gu[:, 1] * a1 - gv[:, 0] * b2
          - (ga1 * a1 + gb2 * b2 + 2.0 * (ga3 * a3 + gb3 * b3)) / z)
    return np.stack([gx, gy, gz])


def _cayley(w: np.ndarray):
    """Cayley map (I - K/2)^-1 (I + K/2) = I + s K + (s/2) K^2 with K = [w]x
    and s = 1 / (1 + |w|^2 / 4), plus what its gradient needs. It is a
    rotation for every w and agrees with exp(K) to second order."""
    skew = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    s = 1.0 / (1.0 + 0.25 * float(w @ w))
    return np.eye(3) + s * skew + (0.5 * s) * (skew @ skew), (w, skew, s)


def _cayley_grad(g: np.ndarray, w: np.ndarray, skew: np.ndarray, s: float) -> np.ndarray:
    """Pull the gradient of the Cayley map back to w; ds/dw = -(s^2 / 2) w."""
    gk = s * g + (0.5 * s) * (g @ skew.T + skew.T @ g)
    g_s = (g * skew).sum() + 0.5 * (g * (skew @ skew)).sum()
    gw = np.array([gk[2, 1] - gk[1, 2], gk[0, 2] - gk[2, 0], gk[1, 0] - gk[0, 1]])
    return gw - (0.5 * s * s * g_s) * w


def gauss_newton_refine(problem: PnPProblem, init: RigidPose,
                        k_iters: int = 5) -> RefinedPose:
    """k damped Gauss-Newton steps minimizing the reprojection error.

    Each step solves for a rotation vector w and a translation increment,
    composed on the left. The rotation increment is the Cayley map of w. Its
    derivative at w = 0 is [w]x, as for exp([w]x), so each step solves the
    same system as an axis-angle update and has the same fixed point. The
    steps run in numpy; when the targets are on a tape, one ``gauss_newton``
    node records the refined rotation, translation and RMS residual as a
    3 x 5 matrix [R | t | (rms, 0, 0)], returned as ``RefinedPose.pose``.
    Its backward replays the k steps in reverse to give the exact target
    gradient of the finite procedure.
    """
    if not (isinstance(k_iters, (int, np.integer)) and k_iters >= 1):
        raise SolveError(f"k_iters must be an integer >= 1, got {k_iters!r}")
    k, n, points = problem.intrinsics, problem.n, problem.points
    targets = problem.targets.value
    rot, trans = init.rotation, init.translation.reshape(3, 1)
    objectives: list[float] = []
    steps = []

    for _ in range(k_iters):
        q, ru, rv = _residuals(rot, trans, points, k, targets)
        objectives.append(float((ru ** 2).sum() + (rv ** 2).sum()))
        ju, jv = _jacobian(q, k)
        h = ju.T @ ju + jv.T @ jv + GN_DAMPING * np.eye(6)
        try:
            delta = -np.linalg.solve(h, ju.T @ ru + jv.T @ rv)
        except np.linalg.LinAlgError as err:
            raise SolveError(f"singular linear system: {err}") from err
        if not np.all(np.isfinite(delta)):
            raise SolveError("non-finite Gauss-Newton update")
        rot_delta, cayley = _cayley(delta[:3])
        steps.append((rot, trans, q, ru, rv, ju, jv, h, delta, rot_delta, cayley))
        rot, trans = rot_delta @ rot, rot_delta @ trans + delta[3:, None]

    q_out, ru_out, rv_out = _residuals(rot, trans, points, k, targets)
    objectives.append(float((ru_out ** 2).sum() + (rv_out ** 2).sum()))
    rms = float(np.sqrt(((ru_out * ru_out).sum() + (rv_out * rv_out).sum()) * (1.0 / n)))
    value = np.hstack([rot, trans, [[rms], [0.0], [0.0]]])

    def backward(g):
        g_rot, g_trans = g[:, :3], g[:, 3:4]
        scale = g[0, 4] / (n * max(rms, 1e-300))
        gru, grv = scale * ru_out, scale * rv_out
        g_q = _residuals_grad(q_out, k, gru, grv)
        g_tu, g_tv = -gru, -grv
        for rot_i, trans_i, q, ru, rv, ju, jv, h, delta, rot_delta, cayley in reversed(steps):
            g_rot = g_rot + g_q @ points
            g_trans = g_trans + g_q.sum(axis=1, keepdims=True)
            g_w = _cayley_grad(g_rot @ rot_i.T + g_trans @ trans_i.T, *cayley)
            g_rhs = -np.linalg.solve(h.T, np.concatenate([g_w, g_trans[:, 0]]))
            g_h = np.outer(g_rhs, delta)
            g_h = g_h + g_h.T  # h = ju^T ju + jv^T jv
            g_rot, g_trans = rot_delta.T @ g_rot, rot_delta.T @ g_trans
            gru, grv = ju @ g_rhs, jv @ g_rhs
            g_ju = ju @ g_h + np.outer(ru, g_rhs)
            g_jv = jv @ g_h + np.outer(rv, g_rhs)
            g_q = _residuals_grad(q, k, gru, grv) + _jacobian_grad(q, k, g_ju, g_jv)
            g_tu, g_tv = g_tu - gru, g_tv - grv
        return (np.stack([g_tu, g_tv], axis=1),)

    node = ad.record("gauss_newton", (problem.targets,), backward, value)
    estimate = PoseEstimate(pose=RigidPose(project_to_so3(rot), trans[:, 0]))
    return RefinedPose(node, estimate, objectives)


def solve_pose(problem: PnPProblem, k_iters: int = 5) -> RefinedPose:
    """EPnP initialization (gradient-constant) plus Gauss-Newton refinement."""
    return gauss_newton_refine(problem, epnp_init(problem), k_iters)


def _huber_sum(err: np.ndarray) -> float:
    """Sum of 0.5 e^2 inside |e| <= delta and delta (|e| - 0.5 delta) outside,
    for delta = HUBER_DELTA."""
    delta = HUBER_DELTA
    abs_err = np.abs(err)
    vals = np.where(abs_err <= delta, 0.5 * err * err, delta * (abs_err - 0.5 * delta))
    return float(vals.sum())


def pose_loss(refined: RefinedPose, gt: RigidPose) -> Tensor:
    """Huber penalty on e_R = R_gt^T R - I plus Huber on e_t = t_gt - t.

    One ``pose_loss`` node on the 3 x 5 refined pose. With c = e clipped to
    +-HUBER_DELTA, its gradient is R_gt c_R in the R columns, -c_t in the t
    column and 0 at the RMS residual.
    """
    pose = refined.pose.value
    rot_err = gt.rotation.T @ pose[:, :3] - np.eye(3)
    trans_err = gt.translation.reshape(3, 1) - pose[:, 3:4]
    value = _huber_sum(rot_err) + _huber_sum(trans_err)

    def backward(g):
        grad = np.zeros((3, 5))
        grad[:, :3] = gt.rotation @ (g * np.clip(rot_err, -HUBER_DELTA, HUBER_DELTA))
        grad[:, 3:4] = -(g * np.clip(trans_err, -HUBER_DELTA, HUBER_DELTA))
        return (grad,)

    return ad.record("pose_loss", (refined.pose,), backward, np.array([[value]]))
