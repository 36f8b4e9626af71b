"""Differentiable pose estimation from 2D-3D correspondences.

EPnP (single-beta case) provides a closed-form initialization from four
control points on the principal axes of the cloud; k damped Gauss-Newton
steps on a 6-D local SE(3) parametrization then minimize the pixel
reprojection error. The EPnP init is treated as a gradient constant:
differentiating through the eigen-decomposition is ill-conditioned near
eigenvalue crossings, while the refinement carries exact gradients of the
finite procedure to the 2-D targets (and through them to the matching
weights).

The refinement runs in plain numpy and records a single tape node, the
3 x 4 pose [R | t]. The pinhole derivative is written once, in
``_project``: each step stacks the N u residuals and the N v residuals into
one vector and their gradients a at the camera-frame points into one
3 x 2N array, so the Jacobian is [q x a; a]. The hand-derived backward
replays the k steps in reverse (Cayley rotation update, damped 6x6 solve,
normal equations, Jacobian rows, projection), pulling everything back
through a, so reverse mode sees the true derivative of each step rather
than a fixed-point approximation. The pose loss is one more node on that
output, so the whole pose stage is two nodes on the tape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import SolveError, is_count, real_array
from .geometry import MIN_DEPTH, CameraIntrinsics, RigidPose, _project_to_so3

MIN_CORRESPONDENCES = 6
GN_DAMPING = 1e-6
DEGENERATE_SPREAD = 1e-8  # relative floor on the smallest principal extent
HUBER_DELTA = 1.0  # pose-loss error at which the Huber penalty turns linear
# bound on each |coordinate| of a problem's points (m) and targets (px): past any generated point
# (about 7e4 m at the largest grid) and pixel (below 65536), far below EPnP's overflow
MAX_MAGNITUDE = 1e6


@dataclass(frozen=True)
class PnPProblem:
    """Known 3-D points, observed/predicted 2-D targets, and intrinsics.

    ``targets`` may be a tape tensor (the trainable path) or a plain array,
    stored as a constant tensor. The problem is frozen, so its check holds.
    """

    points: np.ndarray  # N x 3
    targets: Tensor | np.ndarray  # N x 2
    intrinsics: CameraIntrinsics

    def __post_init__(self):
        points, targets = real_array(self.points, "points", SolveError), self.targets
        value = targets.value if isinstance(targets, Tensor) else real_array(
            targets, "targets", SolveError)
        if points.ndim != 2 or points.shape[1] != 3 or value.shape != (points.shape[0], 2):
            raise SolveError(f"points must be N x 3, targets N x 2: {points.shape}, {value.shape}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "targets", targets if isinstance(targets, Tensor)
                           else ad.constant(value))
        if not (np.all(abs(points) <= MAX_MAGNITUDE) and np.all(abs(value) <= MAX_MAGNITUDE)):
            raise SolveError(f"points and targets must be finite and within +-{MAX_MAGNITUDE:g}")
        if points.shape[0] < MIN_CORRESPONDENCES:
            raise SolveError(f"need at least {MIN_CORRESPONDENCES} points, got {len(points)}")

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class PoseEstimate:
    pose: RigidPose


@dataclass(frozen=True)
class RefinedPose:
    """Pose after refinement, with both tape and numpy views.

    ``pose`` is the ``gauss_newton`` node itself, the 3 x 4 matrix [R | t]
    of the refined rotation and translation, tape-connected to the targets.
    """

    pose: Tensor  # 3 x 4 [R | t]
    estimate: PoseEstimate  # detached summary with re-orthonormalized pose
    objectives: list[float]  # sum of squared residuals per iteration incl. final


# --- EPnP initialization --------------------------------------------------

def epnp_init(problem: PnPProblem) -> RigidPose:
    """Closed-form pose from the smallest eigenvector of the EPnP system.

    The control points are the centroid c and c + s_j v_j along the
    principal axes v_j, with s_j the RMS extent along each. A point's
    barycentric weights are then alpha_j = (p - c) . v_j / s_j and
    alpha_0 = 1 - sum_j alpha_j. Single-beta case: the camera-frame control
    points are the null-space direction scaled to preserve inter-control-point
    distances, with the sign fixed by requiring positive median depth.
    """
    k, n = problem.intrinsics, problem.n
    centroid = problem.points.mean(axis=0)
    centered = problem.points - centroid
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    spread = svals / np.sqrt(n)
    if spread[2] < DEGENERATE_SPREAD * max(spread[0], 1e-300):
        raise SolveError("degenerate point spread: points are (near) coplanar or collinear")
    alphas = (centered @ vt.T) / spread
    alphas = np.hstack([1.0 - alphas.sum(axis=1, keepdims=True), alphas])

    # each point gives the rows alpha_j (1, 0, -x) and alpha_j (0, 1, -y) in
    # the camera-frame control points, with (x, y) its normalized target
    obs = (problem.targets.value - [k.cx, k.cy]) / [k.fx, k.fy]
    rows = np.concatenate([np.broadcast_to(np.eye(2), (n, 2, 2)), -obs[:, :, None]], axis=2)
    m = (rows[:, :, None, :] * alphas[:, None, :, None]).reshape(2 * n, 12)
    _, eigvecs = np.linalg.eigh(m.T @ m)
    v = eigvecs[:, 0].reshape(4, 3)

    ctrl_w = np.vstack([np.zeros(3), spread[:, None] * vt])  # relative to the centroid
    d_cam = np.linalg.norm(v[:, None] - v, axis=2)
    d_world = np.linalg.norm(ctrl_w[:, None] - ctrl_w, axis=2)
    den = (d_cam * d_cam).sum()
    if den <= 0:
        raise SolveError("EPnP null vector collapsed to a point")
    cam = alphas @ (((d_cam * d_world).sum() / den) * v)
    if np.median(cam[:, 2]) < 0:
        cam = -cam
    # rigid fit cam ~= R p + t (Kabsch, no scale): R is the rotation nearest
    # the cross-covariance sum (cam - cam_c)(p - c)^T
    cam_c = cam.mean(axis=0)
    cov = (cam - cam_c).T @ centered
    if not np.isfinite(cov).all():  # huge points overflow; LAPACK's SVD may not return on inf
        raise SolveError("EPnP cross-covariance is not finite")
    rot = _project_to_so3(cov)
    return RigidPose(rot, cam_c - rot @ centroid)


# --- Gauss-Newton refinement -----------------------------------------------

def _cross(u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Column-wise cross products of two 3 x K arrays, into ``out`` if given
    (np.cross costs far more per call at these sizes)."""
    return np.stack([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]], out=out)


def _project(rot: np.ndarray, trans: np.ndarray, points_t: np.ndarray,
             k: CameraIntrinsics, target_uv: np.ndarray, a: np.ndarray):
    """Camera-frame points q = rot points_t + trans (3 x N) and the pixel
    residuals (u - tu, v - tv) stacked into one vector of length 2N, against
    ``target_uv``, the targets stacked the same way. Writes the gradients of
    u and v at q, in the same order, into the zeroed 3 x 2N ``a``:
    (fx / z, 0, -fx x / z^2) for u and (0, fy / z, -fy y / z^2) for v."""
    q = rot @ points_t + trans
    x, y, z = q
    if np.any(z <= MIN_DEPTH):
        raise SolveError("point depth collapsed during refinement")
    n = z.size
    inv_z, z2 = 1.0 / z, z * z
    a[0, :n], a[1, n:] = inv_z * k.fx, inv_z * k.fy
    a[2, :n], a[2, n:] = (x / z2) * -k.fx, (y / z2) * -k.fy
    r = np.concatenate([(x / z) * k.fx + k.cx, (y / z) * k.fy + k.cy]) - target_uv
    return q, r


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
    Jacobian of the 2N stacked residuals is the 6 x 2N array [q x a; a];
    ``_project`` writes a straight into its lower rows.
    With targets on a tape, the one ``gauss_newton`` node is
    ``RefinedPose.pose``, and its backward replays the k steps in reverse.
    """
    if not is_count(k_iters, 1):
        raise SolveError(f"k_iters must be an integer >= 1, got {k_iters!r}")
    k, n, points = problem.intrinsics, problem.n, problem.points
    points_t, target_uv = np.ascontiguousarray(points.T), problem.targets.value.T.ravel()
    damping = GN_DAMPING * np.eye(6)
    rot, trans = init.rotation, init.translation.reshape(3, 1)
    objectives: list[float] = []
    steps = []

    for i in range(k_iters + 1):
        jac = np.zeros((6, 2 * n))
        a = jac[3:]
        q, r = _project(rot, trans, points_t, k, target_uv, a)
        objectives.append(float(r @ r))
        if i == k_iters:
            break
        qq = np.hstack([q, q])
        _cross(qq, a, out=jac[:3])
        h = jac @ jac.T + damping
        try:
            delta = -np.linalg.solve(h, jac @ r)
        except np.linalg.LinAlgError as err:
            raise SolveError(f"singular linear system: {err}") from err
        if not np.all(np.isfinite(delta)):
            raise SolveError("non-finite Gauss-Newton update")
        rot_delta, cayley = _cayley(delta[:3])
        steps.append((rot, trans, qq, r, a, jac, h, delta, rot_delta, cayley))
        rot, trans = rot_delta @ rot, rot_delta @ trans + delta[3:, None]

    def backward(g):
        g_rot, g_trans, g_targets = g[:, :3], g[:, 3:], np.zeros(2 * n)
        for rot_i, trans_i, qq, r, a, jac, h, delta, rot_delta, cayley in reversed(steps):
            g_w = _cayley_grad(g_rot @ rot_i.T + g_trans @ trans_i.T, *cayley)
            g_rhs = -np.linalg.solve(h.T, np.concatenate([g_w, g_trans[:, 0]]))
            g_h = np.outer(g_rhs, delta)
            g_jac = (g_h + g_h.T) @ jac + np.outer(g_rhs, r)  # h = J J^T, rhs = J r
            g_r = g_rhs @ jac
            # pull back through r (gradient a) and J = [q x a; a] to q and a,
            # then through a's entries f / z and -f c / z^2, c = x or y
            g_a = g_jac[3:] + _cross(g_jac[:3], qq)
            g_qq = g_r * a + _cross(a, g_jac[:3])
            g_qq[:2] -= a[:2] * (g_a[2] / qq[2])
            g_qq[2] -= ((g_a * a).sum(axis=0) + g_a[2] * a[2]) / qq[2]
            g_q = g_qq[:, :n] + g_qq[:, n:]
            g_rot = rot_delta.T @ g_rot + g_q @ points
            g_trans = rot_delta.T @ g_trans + g_q.sum(axis=1, keepdims=True)
            g_targets -= g_r
        return (g_targets.reshape(2, n).T,)

    node = ad.record("gauss_newton", (problem.targets,), backward, np.hstack([rot, trans]))
    estimate = PoseEstimate(pose=RigidPose(_project_to_so3(rot), trans[:, 0]))
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

    One ``pose_loss`` node on the 3 x 4 refined pose. With c = e clipped to
    +-HUBER_DELTA, its gradient is R_gt c_R in the R columns and -c_t in the
    t column.
    """
    pose = refined.pose.value
    rot_err = gt.rotation.T @ pose[:, :3] - np.eye(3)
    trans_err = gt.translation.reshape(3, 1) - pose[:, 3:]
    value = _huber_sum(rot_err) + _huber_sum(trans_err)

    def backward(g):
        return (np.hstack([gt.rotation @ (g * np.clip(rot_err, -HUBER_DELTA, HUBER_DELTA)),
                           -(g * np.clip(trans_err, -HUBER_DELTA, HUBER_DELTA))]),)

    return ad.record("pose_loss", (refined.pose,), backward, np.array([[value]]))
