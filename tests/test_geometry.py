import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neucalib import geometry as geo
from neucalib import scene as sc
from neucalib.errors import ParameterError


def random_pose(rng) -> geo.RigidPose:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    r = geo._rotation_from_axis_angle(axis, rng.uniform(-math.pi, math.pi))
    return geo.RigidPose(r, rng.uniform(-5, 5, 3))


INTR = geo.CameraIntrinsics(fx=100.0, fy=100.0, cx=50.0, cy=50.0)
EYE = geo.RigidPose(np.eye(3), np.zeros(3))
GRID = (8, 8)  # a scene's grid; augmentation does not read it


class TestRotation:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(
            geo._rotation_from_axis_angle([0, 0, 1], 0.0), np.eye(3), atol=1e-15)

    def test_quarter_turn_about_z(self):
        r = geo._rotation_from_axis_angle([0, 0, 1], math.pi / 2)
        np.testing.assert_allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-15)

    def test_orthonormality_over_many_samples(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            r = geo._rotation_from_axis_angle(axis, rng.uniform(-math.pi, math.pi))
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(r) - 1.0) < 1e-12


class TestPoseAlgebra:
    def test_identity_neutral(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(EYE.apply(pts), pts)
        np.testing.assert_array_equal(EYE.apply([[1, 2, 3]]), [[1.0, 2.0, 3.0]])

    def test_inverse(self):
        # q R + -R^T t, which scene generation writes for the inverse pose
        rng = np.random.default_rng(13)
        p = random_pose(rng)
        pts = rng.normal(size=(4, 3))
        back = p.apply(pts) @ p.rotation + -p.rotation.T @ p.translation
        np.testing.assert_allclose(back, pts, atol=1e-10)
        np.testing.assert_allclose(p.apply(pts @ p.rotation + -p.rotation.T @ p.translation), pts,
                                   atol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_translation_rejected(self, bad):
        with pytest.raises(ParameterError, match="translation"):
            geo.RigidPose(np.eye(3), [0.0, bad, 0.0])

    @pytest.mark.parametrize("at", [(0, 0), (1, 2)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rotation_rejected(self, bad, at):
        # inf makes R^T R hold NaN, which numpy warns about, and fails the test as NaN does
        r = np.eye(3)
        r[at] = bad
        with pytest.raises(ParameterError, match="orthonormal"):
            geo.RigidPose(r, np.zeros(3))

    @pytest.mark.parametrize("points", [np.ones(5), np.ones((2, 2, 3)), np.ones(3)],
                             ids=["five", "three_dim", "one_vector"])
    def test_non_real_or_misshapen_points_rejected(self, points):
        # numpy would read a 2 x 2 x 3 array as four points
        with pytest.raises(ParameterError, match="points"):
            EYE.apply(points)

    @pytest.mark.parametrize("rotation, translation", [
        (np.eye(2), np.zeros(3)), (np.eye(3).ravel(), np.zeros(3)), (np.eye(3), np.zeros(2)),
        (np.eye(3), np.zeros((3, 1)))], ids=["rotation_2x2", "rotation_flat", "translation_2",
                                              "translation_column"])
    def test_misshapen_field_rejected(self, rotation, translation):
        # numpy would reshape a flat rotation, or raise ValueError on a 2 x 2 one
        with pytest.raises(ParameterError, match="3 x 3"):
            geo.RigidPose(rotation, translation)

    @pytest.mark.parametrize("field", ["rotation", "translation"])
    @pytest.mark.parametrize("value", ["eye"], ids=["string"])
    def test_non_numeric_field_rejected(self, field, value):
        # the contract table refuses every bad value; this pins the message
        fields = {"rotation": np.eye(3), "translation": np.zeros(3), field: value}
        with pytest.raises(ParameterError, match=field):
            geo.RigidPose(**fields)

    def test_invalid_rotation_rejected(self):
        with pytest.raises(ParameterError):
            geo.RigidPose(np.eye(3) * 2.0, np.zeros(3))

    def test_rotation_off_by_more_than_the_tolerance_rejected(self):
        # det 1, but R^T R is off the identity by 5e-6 on its diagonal: far
        # outside 1e-9, though within allclose's default relative tolerance
        r = np.diag([1.0 + 2.5e-6, 1.0, 1.0 / (1.0 + 2.5e-6)])
        assert abs(np.linalg.det(r) - 1.0) <= geo.ORTHONORMALITY_TOL
        with pytest.raises(ParameterError, match="orthonormal"):
            geo.RigidPose(r, np.zeros(3))


class TestIntrinsics:
    VALID = dict(fx=100.0, fy=80.0, cx=50.0, cy=40.0)

    @pytest.mark.parametrize("field, value", [
        ("fx", math.nan), ("fy", math.nan), ("fx", 0.0), ("fy", -1.0), ("fx", math.inf),
        ("cx", math.nan), ("cy", math.inf), ("cy", -math.inf)])
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(ParameterError):
            geo.CameraIntrinsics(**{**self.VALID, field: value})

    def test_valid_intrinsics_construct(self):
        assert geo.CameraIntrinsics(**self.VALID).fx == 100.0


class TestProject:
    def test_optical_axis(self):
        np.testing.assert_allclose(geo._project(np.array([[0.0, 0.0, 5.0]]), INTR), [[50.0, 50.0]])

    def test_offset_point(self):
        np.testing.assert_allclose(geo._project(np.array([[1.0, 0.0, 5.0]]), INTR), [[70.0, 50.0]])

    def test_behind_camera_flagged(self):
        assert np.isnan(geo._project(np.array([[0.0, 0.0, -1.0]]), INTR)).all()
        # a point at or below MIN_DEPTH, or not all finite, cannot be seen
        # either, and a huge x overflows its pixel coordinate
        bad = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, geo.MIN_DEPTH], [0.0, 0.0, np.inf],
                        [np.inf, 0.0, 5.0], [0.0, -np.inf, 5.0], [np.nan, 0.0, 5.0],
                        [0.0, 0.0, np.nan], [1e308, 0.0, 5.0], [0.0, 0.0, 5.0]])
        coords = geo._project(bad, INTR)
        assert np.isnan(coords[:8]).all() and np.isfinite(coords[8]).all()

    def test_unproject_round_trip(self):
        rng = np.random.default_rng(16)
        coords = rng.uniform(0, 100, (64, 2))
        depth = rng.uniform(1.0, 30.0, 64)
        pts = geo._unproject(coords, depth, INTR)
        np.testing.assert_array_equal(pts[:, 2], depth)
        np.testing.assert_allclose(geo._project(pts, INTR), coords, atol=1e-9)

    def test_project_round_trip(self):
        # _unproject inverts project on every point in front of the camera,
        # and a point behind it projects to a NaN row
        rng = np.random.default_rng(17)
        pts = rng.uniform(-3, 3, (32, 3))
        coords = geo._project(pts, INTR)
        seen = pts[:, 2] > geo.MIN_DEPTH
        assert 0 < seen.sum() < 32
        assert np.isnan(coords[~seen]).all()
        np.testing.assert_allclose(geo._unproject(coords[seen], pts[seen, 2], INTR), pts[seen],
                                   atol=1e-9)


class TestAugmentation:
    def test_zero_ranges_identity(self):
        # a zero range draws too, as any range does, and the draw gives 0.0
        rng, twin = np.random.default_rng(18), np.random.default_rng(18)
        rot, trans = geo.sample_augmentation(rng, 0.0, 0.0)
        np.testing.assert_array_equal(rot, np.eye(3))
        np.testing.assert_array_equal(trans, np.zeros(3))
        twin.random(3)
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("rot_range, trans_range", [
        (math.nan, 1.0), (1.0, math.nan), (-0.1, 1.0), (1.0, -0.1), (math.inf, 1.0),
        (1.0, math.inf)])
    def test_invalid_ranges_rejected(self, rot_range, trans_range):
        with pytest.raises(ParameterError):
            geo.sample_augmentation(np.random.default_rng(0), rot_range, trans_range)

    def test_angles_within_range(self):
        rng = np.random.default_rng(19)
        for _ in range(10_000):
            rot, trans = geo.sample_augmentation(rng, math.pi, 15.0)
            angle = math.atan2(rot[1, 0], rot[0, 0])
            assert -math.pi <= angle <= math.pi
            assert trans[2] == 0.0
            assert np.all(np.abs(trans[:2]) <= 15.0)

    def test_angle_mean_unbiased(self):
        rng = np.random.default_rng(20)
        n = 10_000
        angles = [math.atan2(*geo.sample_augmentation(rng, math.pi, 0.0)[0][[1, 0], 0])
                  for _ in range(n)]
        # uniform on [-pi, pi]: std of the sample mean is (2 pi / sqrt(12)) / sqrt(n)
        three_sigma = 3 * (2 * math.pi / math.sqrt(12)) / math.sqrt(n)
        assert abs(np.mean(angles)) < three_sigma

    def test_identity_augmentation_keeps_points(self):
        pts = np.random.default_rng(21).normal(size=(8, 3))
        out = sc.augment_scene(sc.SceneSample(pts, EYE, GRID), np.eye(3), np.zeros(3)).points
        np.testing.assert_array_equal(out, pts)

    @pytest.mark.parametrize("rot, trans", [(np.eye(3).ravel(), np.zeros(3)),
                                            (np.eye(3), np.zeros((3, 1)))],
                             ids=["flat_rotation", "column_translation"])
    def test_non_real_or_misshapen_augmentation_rejected(self, rot, trans):
        with pytest.raises(ParameterError, match="augmentation"):
            sc.augment_scene(sc.SceneSample(np.zeros((2, 3)), EYE, GRID), rot, trans)

    def test_pure_translation(self):
        scene = sc.SceneSample(np.zeros((2, 3)), EYE, GRID)
        out = sc.augment_scene(scene, np.eye(3), [1.0, 2.0, 0.0]).points
        np.testing.assert_allclose(out, [[1, 2, 0], [1, 2, 0]])


def augmented_pose(raw, rot, trans) -> geo.RigidPose:
    """The raw pose that ``augment_scene`` recomputes for ``raw``."""
    return sc.augment_scene(sc.SceneSample(np.zeros((1, 3)), raw, GRID), rot, trans).raw_pose


class TestRecomputeGtPose:
    def test_identity_rotations(self):
        raw = geo.RigidPose(np.eye(3), np.array([1.0, 2.0, 3.0]))
        gt = augmented_pose(raw, np.eye(3), np.array([0.5, 0.0, 0.0]))
        np.testing.assert_allclose(gt.translation, [0.5, 2.0, 3.0])
        np.testing.assert_allclose(gt.rotation, np.eye(3))

    def test_trivial_augmentation_is_noop(self):
        rng = np.random.default_rng(22)
        raw = random_pose(rng)
        gt = augmented_pose(raw, np.eye(3), np.zeros(3))
        np.testing.assert_allclose(gt.rotation, raw.rotation, atol=1e-15)
        np.testing.assert_allclose(gt.translation, raw.translation, atol=1e-15)

    def test_projection_identity(self):
        # central oracle: projections of augmented points under the recomputed
        # pose must match raw projections for every valid point. Points are
        # drawn at scene-like depths (>= 1 m in front of the camera); grazing
        # depths amplify rounding through the perspective division and make
        # any fixed pixel tolerance meaningless.
        rng = np.random.default_rng(23)
        for _ in range(200):
            raw = random_pose(rng)
            rot, trans = geo.sample_augmentation(rng, math.pi, 15.0)
            cam = np.stack([rng.uniform(-10, 10, 16), rng.uniform(-10, 10, 16),
                            rng.uniform(1.0, 30.0, 16)], axis=1)
            pts = cam @ raw.rotation + -raw.rotation.T @ raw.translation
            aug = sc.augment_scene(sc.SceneSample(pts, raw, GRID), rot, trans)
            before = geo._project(raw.apply(pts), INTR)
            after = geo._project(aug.raw_pose.apply(aug.points), INTR)
            np.testing.assert_array_equal(np.isnan(before), np.isnan(after))
            assert np.max(np.abs(before - after)) < 1e-9


@settings(max_examples=100)
@given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi),
       st.floats(-math.pi, math.pi))
def test_rotation_invariants_hold_for_any_axis_angle(ax, ay, angle):
    axis = np.array([math.cos(ax) * math.cos(ay),
                     math.sin(ax) * math.cos(ay),
                     math.sin(ay)])
    axis /= np.linalg.norm(axis)
    r = geo._rotation_from_axis_angle(axis, angle)
    np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)
    assert abs(np.linalg.det(r) - 1.0) < 1e-9


@pytest.mark.parametrize("angle", [1e-9, 1e-8, 1e-7, 1e-5, 1e-3, 0.5, math.pi / 2, 3.0,
                                   math.pi - 1e-6, math.pi])
def test_geodesic_angle_to_one_part_in_a_million(angle):
    # acos((tr D - 1) / 2) read 0.0 at 1e-8 rad and 9.88e-8 at 1e-7 rad
    base = random_pose(np.random.default_rng(25)).rotation
    turn = geo._rotation_from_axis_angle([0.0, 0.6, 0.8], angle)
    for r_a, r_b in [(np.eye(3), turn), (base, base @ turn), (base @ turn, base)]:
        assert geo.geodesic_angle(r_a, r_b) == pytest.approx(angle, rel=1e-6)


def test_project_to_so3_restores_rotation():
    rng = np.random.default_rng(24)
    r = random_pose(rng).rotation
    noisy = r + rng.normal(scale=1e-4, size=(3, 3))
    fixed = geo._project_to_so3(noisy)
    np.testing.assert_allclose(fixed @ fixed.T, np.eye(3), atol=1e-12)
    assert geo.geodesic_angle(fixed, r) < 1e-3
