import numpy as np
import pytest

from neucalib import geometry as geo
from neucalib import scene as sc
from neucalib.errors import ConfigError, ParameterError


def make_scene(seed=0, **kwargs) -> sc.SceneSample:
    cfg = sc.SceneConfig(**kwargs)
    return sc.generate_scene(np.random.default_rng(seed), cfg)


def brute_force_point_overlap(sample: sc.SceneSample) -> np.ndarray:
    """Independent recount: project every point and test the frustum box."""
    h, w = sample.grid
    k = sample.intrinsics
    labels = np.zeros(sample.n_points, dtype=bool)
    for i, p in enumerate(sample.points):
        q = sample.raw_pose.rotation @ p + sample.raw_pose.translation
        if q[2] <= 1e-6:
            continue
        u = k.fx * q[0] / q[2] + k.cx
        v = k.fy * q[1] / q[2] + k.cy
        labels[i] = (0 <= u < w) and (0 <= v < h)
    return labels


def brute_force_pixel_overlap(sample: sc.SceneSample, radius=1.0) -> np.ndarray:
    """O(N * H' * W') double loop over (pixel, point) pairs."""
    h, w = sample.grid
    labels = np.zeros(h * w, dtype=bool)
    for v in range(h):
        for u in range(w):
            for i in range(sample.n_points):
                if not sample.point_overlap_gt[i]:
                    continue
                du = abs(sample.gt_projection[i, 0] - u)
                dv = abs(sample.gt_projection[i, 1] - v)
                if max(du, dv) <= radius:
                    labels[v * w + u] = True
                    break
    return labels


class TestGeneration:
    def test_determinism_bitwise(self):
        a, b = make_scene(seed=7), make_scene(seed=7)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.gt_projection, b.gt_projection, equal_nan=True)
        assert np.array_equal(a.point_overlap_gt, b.point_overlap_gt)
        assert np.array_equal(a.pixel_overlap_gt, b.pixel_overlap_gt)
        assert np.array_equal(a.raw_pose.rotation, b.raw_pose.rotation)

    def test_point_overlap_matches_brute_force(self):
        for seed in range(5):
            sample = make_scene(seed=seed)
            np.testing.assert_array_equal(
                sample.point_overlap_gt, brute_force_point_overlap(sample))

    def test_overlap_fraction_within_band(self):
        lo, hi = 0.6, 0.9
        for seed in range(100):
            sample = make_scene(seed=seed, n_points=128)
            frac = brute_force_point_overlap(sample).mean()
            assert lo - 1.0 / 128 <= frac <= hi + 1.0 / 128

    def test_gt_projection_finite_where_overlapping(self):
        sample = make_scene(seed=3)
        assert np.isfinite(sample.gt_projection[sample.point_overlap_gt]).all()
        assert np.isnan(sample.gt_projection[~sample.point_overlap_gt]).all()

    def test_behind_camera_not_overlapping(self):
        k = sc.SceneConfig().intrinsics()
        overlap, _ = sc.point_overlap_labels(
            [[0.0, 0.0, -5.0]], geo.RigidPose.identity(), k, (16, 16))
        assert not overlap[0]

    def test_too_few_points_rejected(self):
        with pytest.raises(ParameterError):
            sc.SceneConfig(n_points=4)

    def test_augment_scene_preserves_labels_and_projection(self):
        sample = make_scene(seed=9)
        rng = np.random.default_rng(1)
        rot, trans = geo.sample_augmentation(rng, np.pi, 5.0)
        aug = sc.augment_scene(sample, rot, trans)
        assert not np.allclose(aug.points, sample.points)
        np.testing.assert_array_equal(aug.point_overlap_gt, sample.point_overlap_gt)
        proj = geo.project(aug.points, aug.raw_pose, aug.intrinsics)
        ok = sample.point_overlap_gt
        np.testing.assert_allclose(
            proj.coords[ok], sample.gt_projection[ok], atol=1e-9)


class TestPixelOverlap:
    def test_no_points_all_false(self):
        sample = make_scene(seed=2)
        empty = sc.SceneSample(
            points=sample.points, intrinsics=sample.intrinsics,
            raw_pose=sample.raw_pose, grid=sample.grid,
            point_overlap_gt=np.zeros(sample.n_points, dtype=bool),
            pixel_overlap_gt=sample.pixel_overlap_gt,
            gt_projection=np.full_like(sample.gt_projection, np.nan))
        assert not sc.label_pixel_overlap(empty).any()

    def test_single_point_on_center(self):
        sample = make_scene(seed=2)
        proj = np.full((sample.n_points, 2), np.nan)
        proj[0] = [3.0, 3.0]
        mask = np.zeros(sample.n_points, dtype=bool)
        mask[0] = True
        one = sc.SceneSample(
            points=sample.points, intrinsics=sample.intrinsics,
            raw_pose=sample.raw_pose, grid=sample.grid,
            point_overlap_gt=mask, pixel_overlap_gt=sample.pixel_overlap_gt,
            gt_projection=proj)
        labels = sc.label_pixel_overlap(one)
        w = sample.grid[1]
        assert labels[3 * w + 3]
        assert not labels[7 * w + 7]

    def test_matches_brute_force(self):
        for seed in range(4):
            sample = make_scene(seed=seed, n_points=64, grid=(8, 8))
            np.testing.assert_array_equal(
                sample.pixel_overlap_gt, brute_force_pixel_overlap(sample))


class TestBuildPairs:
    def test_projection_on_center_single_positive(self):
        sample = make_scene(seed=4, grid=(8, 8), n_points=32)
        proj = np.full((32, 2), np.nan)
        proj[0] = [2.0, 5.0]
        mask = np.zeros(32, dtype=bool)
        mask[0] = True
        one = sc.SceneSample(points=sample.points, intrinsics=sample.intrinsics,
                             raw_pose=sample.raw_pose, grid=(8, 8),
                             point_overlap_gt=mask,
                             pixel_overlap_gt=sample.pixel_overlap_gt,
                             gt_projection=proj)
        pairs = sc.build_pairs(one, r_p=1.0, r_n=4.0)
        assert pairs.pos_mask[0].sum() == 1
        assert pairs.pos_mask[0, 5 * 8 + 2]

    def test_huge_negative_margin_degenerates(self):
        sample = make_scene(seed=4, grid=(8, 8), n_points=32)
        pairs = sc.build_pairs(sample, r_p=1.0, r_n=1000.0)
        assert not pairs.neg_mask.any()
        assert pairs.anchor_points.size == 0

    def test_matches_brute_force_filter(self):
        sample = make_scene(seed=5, grid=(8, 8), n_points=48)
        r_p, r_n = 1.0, 4.0
        pairs = sc.build_pairs(sample, r_p, r_n)
        centers = sc.pixel_centers(sample.grid)
        for i in range(sample.n_points):
            for j in range(sample.n_pixels):
                if not sample.point_overlap_gt[i]:
                    expected_pos = expected_neg = False
                else:
                    d = np.hypot(*(sample.gt_projection[i] - centers[j]))
                    expected_pos = d < r_p
                    expected_neg = d > r_n
                assert pairs.pos_mask[i, j] == expected_pos, (i, j)
                assert pairs.neg_mask[i, j] == expected_neg, (i, j)

    def test_positive_pixels_are_overlap_labeled(self):
        for seed in range(5):
            sample = make_scene(seed=seed)
            pairs = sc.build_pairs(sample, r_p=1.0, r_n=4.0)
            pos_pixels = pairs.pos_mask.any(axis=0)
            assert sample.pixel_overlap_gt[pos_pixels].all()

    def test_margin_validation(self):
        sample = make_scene(seed=4)
        with pytest.raises(ParameterError):
            sc.build_pairs(sample, r_p=2.0, r_n=1.0)


class TestSceneIO:
    def test_round_trip_bit_exact(self, tmp_path):
        sample = make_scene(seed=6)
        path = tmp_path / "s.nclr"
        sc.save_scene(sample, path)
        loaded = sc.load_scene(path)
        assert np.array_equal(loaded.points, sample.points)
        assert np.array_equal(loaded.gt_projection, sample.gt_projection, equal_nan=True)
        assert np.array_equal(loaded.point_overlap_gt, sample.point_overlap_gt)
        assert np.array_equal(loaded.pixel_overlap_gt, sample.pixel_overlap_gt)
        assert np.array_equal(loaded.raw_pose.rotation, sample.raw_pose.rotation)
        assert np.array_equal(loaded.raw_pose.translation, sample.raw_pose.translation)
        assert loaded.intrinsics == sample.intrinsics
        # serialization itself is deterministic
        assert sc.scene_to_bytes(loaded) == path.read_bytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(ConfigError):
            sc.scene_from_bytes(b"XXXX" + b"\x00" * 64)

    def test_every_truncation_rejected(self):
        blob = sc.scene_to_bytes(make_scene(seed=7))
        for cut in range(len(blob)):
            with pytest.raises(ConfigError):
                sc.scene_from_bytes(blob[:cut])
        with pytest.raises(ConfigError, match="header implies"):
            sc.scene_from_bytes(blob + b"\x00")

    def test_dataset_round_trip(self, tmp_path):
        cfg = sc.SceneConfig(n_points=32, grid=(8, 8))
        scenes = [sc.generate_scene(np.random.default_rng([3, i]), cfg) for i in range(3)]
        out = sc.write_dataset(tmp_path / "data", scenes, cfg, seed=3)
        loaded = sc.load_dataset(out)
        assert len(loaded) == 3
        for a, b in zip(scenes, loaded):
            assert np.array_equal(a.points, b.points)

    def test_pixel_centers_layout(self):
        centers = sc.pixel_centers((2, 3))
        np.testing.assert_array_equal(
            centers, [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]])
