import gc
import math
import weakref
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from neucalib import autodiff as ad
from neucalib import geometry as geo
from neucalib import pnp
from neucalib import scene as sc
from neucalib.errors import SolveError
from tape_probe import finite_difference_check, weighted_sum
from test_geometry import pinhole

INTR = geo.CameraIntrinsics(fx=100.0, fy=100.0, cx=32.0, cy=32.0)
EYE = geo.RigidPose(np.eye(3), np.zeros(3))


def random_instance(seed, n=64, intr=INTR):
    """Construct-project oracle: a pose, points in front of it, exact targets."""
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    pose = geo.RigidPose(geo._rotation_from_axis_angle(axis, rng.uniform(-math.pi, math.pi)),
                         rng.uniform(-3, 3, 3))
    cam = np.stack([rng.uniform(-4, 4, n), rng.uniform(-4, 4, n),
                    rng.uniform(4.0, 20.0, n)], axis=1)
    points = cam @ pose.rotation + -pose.rotation.T @ pose.translation
    targets = pinhole(pose.apply(points), intr)
    return pose, points, targets


def about_z(angle):
    return geo._rotation_from_axis_angle([0.0, 0.0, 1.0], angle)


def compose(a: geo.RigidPose, b: geo.RigidPose) -> geo.RigidPose:
    """The pose that applies b, then a."""
    return geo.RigidPose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def pose_matrix(rot, trans):
    """The 3 x 4 layout of ``RefinedPose.pose``: [R | t]."""
    return np.hstack([rot, np.reshape(trans, (3, 1))])


def pose_errors(est: geo.RigidPose, gt: geo.RigidPose):
    return (np.linalg.norm(est.translation - gt.translation),
            geo.geodesic_angle(est.rotation, gt.rotation))


class TestEpnpInit:
    def test_noiseless_recovery_hundred_instances(self):
        worst_t = worst_r = 0.0
        for seed in range(100):
            pose, points, targets = random_instance(seed)
            est = pnp.epnp_init(pnp.PnPProblem(points, targets, INTR))
            dt, dr = pose_errors(est, pose)
            worst_t, worst_r = max(worst_t, dt), max(worst_r, dr)
        assert worst_t < 1e-6
        assert worst_r < 1e-6

    def test_identity_pose(self):
        rng = np.random.default_rng(1)
        points = np.stack([rng.uniform(-4, 4, 32), rng.uniform(-4, 4, 32),
                           rng.uniform(4, 20, 32)], axis=1)
        targets = pinhole(points, INTR)
        est = pnp.epnp_init(pnp.PnPProblem(points, targets, INTR))
        np.testing.assert_allclose(est.rotation, np.eye(3), atol=1e-6)
        np.testing.assert_allclose(est.translation, np.zeros(3), atol=1e-6)

    def test_noiseless_recovery_on_a_stretched_cloud(self):
        # principal extents far apart: the barycentric weights divide by each
        # extent, so the short axes must not lose the recovery
        rng = np.random.default_rng(2)
        pose = geo.RigidPose(geo._rotation_from_axis_angle([0.0, 0.6, 0.8], 0.7), [0.5, -1.0, 2.0])
        cam = rng.normal(size=(20, 3)) * [20.0, 1.0, 0.5] + [0.0, 0.0, 30.0]
        points = cam @ pose.rotation + -pose.rotation.T @ pose.translation
        targets = pinhole(pose.apply(points), INTR)
        dt, dr = pose_errors(pnp.epnp_init(pnp.PnPProblem(points, targets, INTR)), pose)
        assert dt < 1e-6 and dr < 1e-6

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_huge_points_refused_as_solve_error(self, scale):
        # the problem bounds its points, so the cross-covariance cannot overflow
        pose, points, targets = random_instance(4)
        with pytest.raises(SolveError, match="within"):
            pnp.epnp_init(pnp.PnPProblem(points * scale, targets, INTR))

    @pytest.mark.parametrize("point_scale, target_scale",
                             [(1.0, 1e300), (1e100, 1e300), (1e300, 1e300), (1e300, 1.0)])
    def test_huge_finite_input_refused(self, point_scale, target_scale):
        # on a generated 32-point 8 x 8 scene, EPnP's products overflowed on
        # these, and numpy's warning or LinAlgError escaped the error contract
        scene = sc.generate_scene(np.random.default_rng(0), sc.SceneConfig(32, (8, 8)))
        on = scene.point_overlap_gt
        with pytest.raises(SolveError, match="within"):
            pnp.solve_pose(pnp.PnPProblem(scene.points[on] * point_scale,
                                          scene.gt_projection[on] * target_scale,
                                          scene.intrinsics))
        bound = geo.MAX_MAGNITUDE
        assert np.abs(scene.points).max() < bound and np.abs(scene.gt_projection[on]).max() < bound

    def test_solved_pose_past_the_bound_refused_as_solve_error(self):
        # points and targets within the bound can place the camera past it,
        # 1.5e6 m from these points; RigidPose refuses that translation
        rng = np.random.default_rng(0)
        k = geo.CameraIntrinsics(fx=12.0, fy=12.0, cx=4.0, cy=4.0)
        cam = np.stack([rng.uniform(-2e5, 2e5, 32), rng.uniform(-2e5, 2e5, 32),
                        rng.uniform(8e5, 9.5e5, 32)], axis=1)
        problem = pnp.PnPProblem(cam - [0.0, 0.0, 1.5e6], pinhole(cam, k), k)
        with pytest.raises(SolveError, match="out of range"):
            pnp.epnp_init(problem)
        start = geo.RigidPose(np.eye(3), [0.0, 0.0, geo.MAX_MAGNITUDE])
        with pytest.raises(SolveError, match="out of range"):
            pnp.gauss_newton_refine(problem, start, 1)

    def test_too_few_points_refused(self):
        pose, points, targets = random_instance(3, n=5)
        with pytest.raises(SolveError, match="at least 6"):
            pnp.PnPProblem(points, targets, INTR)

    @pytest.mark.parametrize("shape", [(7, 2), (6, 2), (18,), (6, 3, 1)])
    def test_points_not_n_by_3_refused(self, shape):
        # (6, 2) holds twelve values, which would reshape to four 3-D points
        with pytest.raises(SolveError, match="N x 3"):
            pnp.PnPProblem(np.ones(shape), np.zeros((shape[0], 2)), INTR)

    @pytest.mark.parametrize("where", ["target", "point"])
    def test_non_finite_input_refused(self, where):
        pose, points, targets = random_instance(5, n=12)
        if where == "target":
            targets[3, 1] = np.nan
        else:
            points[7, 0] = np.inf
        with pytest.raises(SolveError, match="finite"):
            pnp.solve_pose(pnp.PnPProblem(points, targets, INTR))

    @pytest.mark.parametrize("where", ["target", "point"])
    @pytest.mark.parametrize("kind, wording", [("complex", "not real numbers"),
                                               ("ragged", "not an array")],
                             ids=["complex", "ragged"])
    def test_non_real_input_refused(self, where, kind, wording):
        # the refusal's two wordings: complex values would lose their
        # imaginary part, and a ragged list is no array
        _, points, targets = random_instance(5, n=12)
        value = points if where == "point" else targets
        value = value + 1j if kind == "complex" else [*value.tolist()[:-1], [1.0]]
        args = (value, targets) if where == "point" else (points, value)
        with pytest.raises(SolveError, match=wording):
            pnp.PnPProblem(*args, INTR)

    def test_fields_cannot_be_set_after_the_check(self):
        _, points, targets = random_instance(5, n=12)
        problem = pnp.PnPProblem(points, targets, INTR)
        with pytest.raises(FrozenInstanceError):
            problem.points = points[:2]
        assert problem.n == 12 and isinstance(problem.targets, ad.Tensor)

    def test_coplanar_points_refused(self):
        rng = np.random.default_rng(4)
        points = np.stack([rng.uniform(-3, 3, 16), rng.uniform(-3, 3, 16),
                           np.full(16, 8.0)], axis=1)
        targets = pinhole(points, INTR)
        with pytest.raises(SolveError, match="coplanar|collinear"):
            pnp.epnp_init(pnp.PnPProblem(points, targets, INTR))


class TestGaussNewton:
    def test_truth_init_is_fixed_point(self):
        pose, points, targets = random_instance(5)
        refined = pnp.gauss_newton_refine(
            pnp.PnPProblem(points, targets, INTR), pose, k_iters=3)
        assert refined.objectives[-1] < 1e-18 * len(points)  # RMS error below 1e-9 px
        dt, dr = pose_errors(refined.estimate.pose, pose)
        assert dt < 1e-9 and dr < 1e-9

    def test_recovery_from_perturbed_init(self):
        for seed in range(20):
            pose, points, targets = random_instance(seed + 100)
            rng = np.random.default_rng(seed)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            bad = compose(
                geo.RigidPose(geo._rotation_from_axis_angle(axis, 0.1),
                              0.5 * rng.normal(size=3) / math.sqrt(3)), pose)
            refined = pnp.gauss_newton_refine(
                pnp.PnPProblem(points, targets, INTR), bad, k_iters=5)
            dt, dr = pose_errors(refined.estimate.pose, pose)
            assert dt < 1e-6 and dr < 1e-6

    def test_monotone_descent_on_noiseless_problems(self):
        for seed in range(20):
            pose, points, targets = random_instance(seed + 200)
            rng = np.random.default_rng(seed)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            bad = compose(
                geo.RigidPose(geo._rotation_from_axis_angle(axis, 0.1),
                              0.2 * rng.normal(size=3)), pose)
            refined = pnp.gauss_newton_refine(
                pnp.PnPProblem(points, targets, INTR), bad, k_iters=6)
            for before, after in zip(refined.objectives, refined.objectives[1:]):
                assert after <= before + 1e-12

    @pytest.mark.parametrize("k_iters", [0, -1, 2.5, math.nan, "3", None, 3.0,
                                         True, np.True_])
    def test_k_iters_not_a_positive_integer_rejected(self, k_iters):
        pose, points, targets = random_instance(6, n=12)
        problem = pnp.PnPProblem(points, targets, INTR)
        with pytest.raises(SolveError, match="k_iters"):
            pnp.gauss_newton_refine(problem, pose, k_iters)
        with pytest.raises(SolveError, match="k_iters"):
            pnp.solve_pose(problem, k_iters)

    def test_numpy_integer_k_iters(self):
        pose, points, targets = random_instance(7, n=12)
        noisy = targets + np.random.default_rng(7).normal(scale=0.5, size=targets.shape)
        problem = pnp.PnPProblem(points, noisy, INTR)
        for k_iters in (np.int64(3), np.uint8(3)):
            refined = pnp.gauss_newton_refine(problem, pose, k_iters)
            assert len(refined.objectives) == 4
            np.testing.assert_array_equal(refined.pose.value,
                                          pnp.gauss_newton_refine(problem, pose, 3).pose.value)


class TestSolvePose:
    def test_end_to_end_noiseless(self):
        for seed in range(25):
            pose, points, targets = random_instance(seed + 300)
            refined = pnp.solve_pose(pnp.PnPProblem(points, targets, INTR))
            dt, dr = pose_errors(refined.estimate.pose, pose)
            assert dt < 1e-6 and dr < 1e-6

    def test_rte_grows_with_target_noise(self):
        # common random numbers across the sigma sweep: the same unit noise is
        # scaled, so per-problem errors are comparable across noise levels
        sigmas = [0.0, 0.5, 1.0, 2.0]
        means = []
        for sigma in sigmas:
            errs = []
            for seed in range(30):
                pose, points, targets = random_instance(seed + 400)
                unit = np.random.default_rng(seed).normal(size=targets.shape)
                problem = pnp.PnPProblem(points, targets + sigma * unit, INTR)
                refined = pnp.solve_pose(problem)
                errs.append(pose_errors(refined.estimate.pose, pose)[0])
            means.append(np.mean(errs))
        for lo, hi in zip(means, means[1:]):
            assert lo <= hi

    def test_pose_orthonormal_after_solve(self):
        pose, points, targets = random_instance(7)
        noisy = targets + np.random.default_rng(7).normal(scale=1.0, size=targets.shape)
        refined = pnp.solve_pose(pnp.PnPProblem(points, noisy, INTR))
        r = refined.estimate.pose.rotation
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-9)

    def test_pose_loss_gradient_through_full_chain(self):
        pose, points, targets = random_instance(8, n=10)
        rng = np.random.default_rng(8)
        noisy = targets + rng.normal(scale=0.3, size=targets.shape)
        init = pnp.epnp_init(pnp.PnPProblem(points, noisy, INTR))

        def build(ps):
            problem = pnp.PnPProblem(points, ps[0], INTR)
            refined = pnp.gauss_newton_refine(problem, init, k_iters=5)
            return pnp.pose_loss(refined, pose)

        err = finite_difference_check(build, [noisy])
        assert err < 1e-3


class TestPoseLoss:
    GT = geo.RigidPose(about_z(0.3), np.array([1.0, 2.0, 3.0]))

    @staticmethod
    def make_refined(rot, trans):
        return pnp.RefinedPose(pose=ad.constant(pose_matrix(rot, trans)),
                               estimate=pnp.PoseEstimate(geo.RigidPose(rot, trans)),
                               objectives=[])

    @staticmethod
    def loss_of(gt):
        """The pose loss as a function of a tracked 3 x 4 pose."""
        estimate = pnp.PoseEstimate(EYE)
        return lambda ps: pnp.pose_loss(pnp.RefinedPose(ps[0], estimate, []), gt)

    def test_zero_at_truth(self):
        refined = self.make_refined(self.GT.rotation, self.GT.translation)
        assert pnp.pose_loss(refined, self.GT).item() == pytest.approx(0.0, abs=1e-30)

    def test_quadratic_branch_translation(self):
        gt = EYE
        refined = self.make_refined(np.eye(3), np.array([0.5, 0.0, 0.0]))
        assert pnp.pose_loss(refined, gt).item() == pytest.approx(0.125, abs=1e-15)

    def test_quadratic_branch_rotation(self):
        # R_gt^T R = rotation by pi/3 about z: every entry of R_gt^T R - I
        # (-0.5 twice, +-sqrt(3)/2) lies inside delta, so the sum is
        # 0.5 * (0.25 + 0.25 + 0.75 + 0.75) = 1
        refined = self.make_refined(self.GT.rotation @ about_z(math.pi / 3),
                                    self.GT.translation)
        assert pnp.pose_loss(refined, self.GT).item() == pytest.approx(1.0, abs=1e-12)

    def test_linear_branch_translation(self):
        gt = EYE
        refined = self.make_refined(np.eye(3), np.array([2.0, 0.0, 0.0]))
        assert pnp.pose_loss(refined, gt).item() == pytest.approx(1.5, abs=1e-15)

    def test_half_turn_rotation_value(self):
        # R_gt^T R = rotation by pi about z: diag(-1, -1, 1) - I has two
        # entries of -2, each contributing delta * (2 - 0.5 delta) = 1.5
        gt = EYE
        refined = self.make_refined(about_z(math.pi), np.zeros(3))
        assert pnp.pose_loss(refined, gt).item() == pytest.approx(3.0, abs=1e-12)

    def test_clamped_gradient(self):
        # e_R = diag(-2, -2, 0) and e_t = (3, -0.5, 0) clip to diag(-1, -1, 0)
        # and (1, -0.5, 0); the gradient is R_gt c_R and -c_t
        rot = self.GT.rotation @ about_z(math.pi)
        tape = ad.Tape()
        pose = tape.parameter(pose_matrix(rot, self.GT.translation - [3.0, -0.5, 0.0]))
        tape.backward(self.loss_of(self.GT)([pose]))
        np.testing.assert_allclose(pose.grad[:, :3], self.GT.rotation @ np.diag([-1.0, -1.0, 0.0]),
                                   atol=1e-15)
        np.testing.assert_array_equal(pose.grad[:, 3:], [[-1.0], [0.5], [0.0]])

    def test_grad_away_from_kink(self):
        # error entries in both branches, each far from the kinks at +-delta
        # next to the 1e-5 difference step; R need not be a rotation here
        rng = np.random.default_rng(14)
        pose0 = pose_matrix(rng.normal(scale=1.5, size=(3, 3)), rng.normal(scale=1.5, size=3))
        rot_err = self.GT.rotation.T @ pose0[:, :3] - np.eye(3)
        trans_err = self.GT.translation - pose0[:, 3]
        errs = np.abs(np.concatenate([rot_err.ravel(), trans_err]))
        assert np.abs(errs - 1.0).min() > 0.01 and errs.min() < 1.0 < errs.max()
        assert finite_difference_check(self.loss_of(self.GT), [pose0]) < 1e-6

    def test_kink_reported_not_asserted(self):
        # e_t[0] sits exactly on the Huber kink; the subgradient mismatch is
        # expected, we only require the checker to return a finite number
        gt = EYE
        pose0 = pose_matrix(np.eye(3), [-1.0, 0.0, 0.0])
        assert math.isfinite(finite_difference_check(self.loss_of(gt), [pose0]))


class TestCayley:
    """The rotation update of each Gauss-Newton step."""

    @staticmethod
    def direction(seed):
        axis = np.random.default_rng(seed).normal(size=3)
        return axis / np.linalg.norm(axis)

    @pytest.mark.parametrize("norm", [0.0, 1e-12, 1.0, 1e3])
    def test_rotation_at_every_scale(self, norm):
        rot, _ = pnp._cayley(norm * self.direction(20))
        np.testing.assert_allclose(rot.T @ rot, np.eye(3), rtol=0, atol=1e-12)
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12

    def test_agrees_with_axis_angle_to_third_order(self):
        # the two maps differ first in the K coefficient, by |w|^2 / 12
        axis = self.direction(21)
        for angle in (1e-1, 1e-2, 1e-3):
            rot, _ = pnp._cayley(angle * axis)
            err = np.linalg.norm(rot - geo._rotation_from_axis_angle(axis, angle))
            assert err <= angle ** 3 / 6

    @pytest.mark.parametrize("norm", [0.0, 1e-3, 0.5, 3.0])
    def test_gradient_vs_central_differences(self, norm):
        rng = np.random.default_rng(22)
        w, g, h = norm * self.direction(22), rng.normal(size=(3, 3)), 1e-6
        _, saved = pnp._cayley(w)
        numeric = [((g * pnp._cayley(w + h * e)[0]).sum()
                    - (g * pnp._cayley(w - h * e)[0]).sum()) / (2 * h) for e in np.eye(3)]
        np.testing.assert_allclose(pnp._cayley_grad(g, *saved), numeric, rtol=0, atol=1e-8)


class TestProjection:
    """The pinhole derivative a that the Gauss-Newton rows and their backward
    share, with unequal focal lengths so that u and v cannot be swapped."""

    INTR = geo.CameraIntrinsics(fx=100.0, fy=70.0, cx=32.0, cy=28.0)
    H = 1e-6

    @classmethod
    def project(cls, rot, trans, points, targets):
        """q, the residuals and a for N x 3 points and N x 2 targets."""
        a = np.zeros((3, 2 * len(points)))
        q, r = pnp._project(rot, trans, points.T, cls.INTR, targets.T.ravel(), a)
        return q, r, a

    @classmethod
    def residuals(cls, rot, trans, points):
        return cls.project(rot, trans, points, np.zeros((len(points), 2)))[1]

    def test_gradient_vs_central_differences(self):
        # u_i and v_i depend on q_i alone, so shifting one coordinate of every
        # point at once gives each point's partial derivative
        pose, points, _ = random_instance(16, n=8, intr=self.INTR)
        q = pose.apply(points)
        rot, trans = np.eye(3), np.zeros((3, 1))
        _, _, a = self.project(rot, trans, q, np.zeros((8, 2)))
        numeric = [(self.residuals(rot, trans, q + self.H * e)
                    - self.residuals(rot, trans, q - self.H * e)) / (2 * self.H) for e in np.eye(3)]
        np.testing.assert_allclose(a, numeric, rtol=1e-6, atol=1e-6)

    def test_jacobian_rows_vs_left_composed_increments(self):
        # row j of [q x a; a] is the derivative of the residuals along the
        # j-th coordinate of (w, tau), applied as R <- C(w) R, t <- C(w) t + tau
        pose, points, targets = random_instance(17, n=8, intr=self.INTR)
        rot, trans = pose.rotation, pose.translation.reshape(3, 1)
        q, _, a = self.project(rot, trans, points, targets)
        jac = np.vstack([pnp._cross(np.hstack([q, q]), a), a])

        def moved(delta):
            c = pnp._cayley(delta[:3])[0]
            return self.residuals(c @ rot, c @ trans + delta[3:, None], points)

        numeric = [(moved(self.H * e) - moved(-self.H * e)) / (2 * self.H) for e in np.eye(6)]
        np.testing.assert_allclose(jac, numeric, rtol=1e-6, atol=1e-6)


class TestPoseNode:
    """The refinement is one tape node whose backward replays the k steps."""

    @staticmethod
    def probe_loss(refined, w_rot, w_trans):
        return weighted_sum(refined.pose, pose_matrix(w_rot, w_trans))

    @pytest.mark.parametrize("k_iters", [1, 3, 8])
    def test_target_gradient_vs_central_differences(self, k_iters):
        # unequal focal lengths and a far init, so that every term of the
        # replayed steps (including d delta / d H) carries weight
        intr = geo.CameraIntrinsics(fx=100.0, fy=70.0, cx=32.0, cy=28.0)
        pose, points, targets = random_instance(10, n=12, intr=intr)
        rng = np.random.default_rng(10)
        noisy = targets + rng.normal(scale=0.5, size=targets.shape)
        init = compose(geo.RigidPose(geo._rotation_from_axis_angle([0.6, -0.8, 0.0], 0.15),
                                     [0.3, -0.2, 0.4]), pose)
        w_rot, w_trans = rng.normal(size=(3, 3)), rng.normal(size=(3, 1))

        def build(ps):
            refined = pnp.gauss_newton_refine(pnp.PnPProblem(points, ps[0], intr),
                                              init, k_iters=k_iters)
            return ad.add(self.probe_loss(refined, w_rot, w_trans),
                          pnp.pose_loss(refined, pose))

        assert finite_difference_check(build, [noisy]) < 1e-5

    @pytest.mark.parametrize("block", ["rotation", "translation"])
    def test_block_gradient_vs_central_differences(self, block):
        # weights on one block of the 3 x 4 pose alone, so each block's share
        # of the backward is checked apart
        pose, points, targets = random_instance(15, n=12)
        rng = np.random.default_rng(15)
        noisy = targets + rng.normal(scale=0.5, size=targets.shape)
        init = pnp.epnp_init(pnp.PnPProblem(points, noisy, INTR))
        cols = {"rotation": slice(0, 3), "translation": slice(3, 4)}[block]
        weights = np.zeros((3, 4))
        weights[:, cols] = rng.normal(size=weights[:, cols].shape)

        def build(ps):
            refined = pnp.gauss_newton_refine(pnp.PnPProblem(points, ps[0], INTR),
                                              init, k_iters=3)
            return weighted_sum(refined.pose, weights)

        assert finite_difference_check(build, [noisy]) < 1e-5

    def test_untracked_targets_record_nothing_and_match_tracked(self):
        pose, points, targets = random_instance(12, n=20)
        noisy = targets + np.random.default_rng(12).normal(scale=0.5, size=targets.shape)
        init = pnp.epnp_init(pnp.PnPProblem(points, noisy, INTR))
        tape = ad.Tape()
        tracked = pnp.gauss_newton_refine(
            pnp.PnPProblem(points, tape.parameter(noisy), INTR), init, k_iters=5)
        untracked = pnp.gauss_newton_refine(pnp.PnPProblem(points, noisy, INTR), init, k_iters=5)
        assert [node.op for node in tape.nodes] == ["leaf", "gauss_newton"]
        assert untracked.pose.tape is None
        assert np.array_equal(untracked.pose.value, tracked.pose.value)
        assert untracked.objectives == tracked.objectives
        assert np.array_equal(untracked.estimate.pose.rotation, tracked.estimate.pose.rotation)
        assert np.array_equal(untracked.estimate.pose.translation,
                              tracked.estimate.pose.translation)


def test_tape_is_freed_without_the_cycle_collector():
    # a backward closure that holds a Tensor keeps its tape in a reference
    # cycle, so every training tape would live until a full collection
    pose, points, targets = random_instance(13, n=16)
    noisy = targets + np.random.default_rng(13).normal(scale=0.5, size=targets.shape)
    init = pnp.epnp_init(pnp.PnPProblem(points, noisy, INTR))
    gc.disable()
    try:
        tape = ad.Tape()
        refined = pnp.gauss_newton_refine(
            pnp.PnPProblem(points, tape.parameter(noisy), INTR), init, k_iters=5)
        tape.backward(pnp.pose_loss(refined, pose))
        alive = weakref.ref(tape)
        del tape, refined
        assert alive() is None
    finally:
        gc.enable()
