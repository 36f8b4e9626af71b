from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neucalib import encoder as enc
from neucalib import geometry as geo
from neucalib import scene as sc
from neucalib.errors import ConfigError, NeucalibError, ParameterError


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


def with_projections(grid, proj) -> sc.SceneSample:
    """A scene whose points project to ``proj`` (NaN rows do not overlap);
    build_pairs reads nothing else."""
    proj = np.asarray(proj, dtype=np.float64).reshape(-1, 2)
    h, w = grid
    k = geo.CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=w, height=h)
    return sc.SceneSample(points=np.zeros((len(proj), 3)), intrinsics=k,
                          raw_pose=geo.RigidPose.identity(), grid=grid,
                          point_overlap_gt=~np.isnan(proj[:, 0]),
                          pixel_overlap_gt=np.zeros(h * w, dtype=bool),
                          gt_projection=proj)


def dense_pairs(sample: sc.SceneSample, r_p, r_n):
    """Brute-force reference: every (overlapping point, pixel) distance as
    sqrt(dx*dx + dy*dy), positives below r_p, near pairs up to r_n."""
    centers = sc.pixel_centers(sample.grid)
    pos = np.zeros((sample.n_points, sample.n_pixels), dtype=bool)
    near = np.zeros_like(pos)
    for i in np.flatnonzero(sample.point_overlap_gt):
        for j, (u, v) in enumerate(centers):
            dx = sample.gt_projection[i, 0] - u
            dy = sample.gt_projection[i, 1] - v
            d = np.sqrt(dx * dx + dy * dy)
            pos[i, j], near[i, j] = d < r_p, d <= r_n
    return pos, near


def assert_matches_dense(sample, r_p, r_n):
    pairs = sc.build_pairs(sample, r_p, r_n)
    pos, near = dense_pairs(sample, r_p, r_n)
    np.testing.assert_array_equal(pairs.positives, np.flatnonzero(pos))
    np.testing.assert_array_equal(pairs.near, np.flatnonzero(near))
    overlap = sample.point_overlap_gt
    np.testing.assert_array_equal(pairs.overlap_points, np.flatnonzero(overlap))
    assert pairs.n_pixels == sample.n_pixels
    has_pos = pos.any(axis=1)
    has_neg = overlap & ~near.all(axis=1)
    np.testing.assert_array_equal(pairs.anchor_points, np.flatnonzero(has_pos & has_neg))
    assert pairs.skipped_no_positive == int((overlap & ~has_pos).sum())
    assert pairs.skipped_no_negative == int((has_pos & ~has_neg).sum())


@st.composite
def projections_and_margins(draw):
    """Grids of 4-9 cells a side; projections on pixel centers, grid edges
    and corners, at exactly r_p or r_n from a center (axis-aligned, or a
    3-4-5 diagonal), or anywhere; margins up to one covering the grid."""
    h, w = draw(st.integers(4, 9)), draw(st.integers(4, 9))
    r_p = draw(st.sampled_from([0.5, 0.7, 1.0, 1.25, 1.5, 2.0, 2.5]))
    r_n = draw(st.sampled_from([r_p + 0.5, 2.3, 2.5, 3.14159, 4.0, 5.0, 1000.0])
               .filter(lambda r: r > r_p))
    offsets = [(0.0, 0.0), (0.5, 0.5)]
    for r in (r_p, r_n):
        offsets += [(r, 0.0), (-r, 0.0), (0.0, r), (0.0, -r), (0.6 * r, 0.8 * r),
                    (-0.6 * r, 0.8 * r)]
    edge_u = [0.0, np.nextafter(w, 0.0), w - 1.0]
    edge_v = [0.0, np.nextafter(h, 0.0), h - 1.0]
    proj = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["offset", "edge", "any", "none"]))
        if kind == "offset":
            du, dv = draw(st.sampled_from(offsets))
            uv = (draw(st.integers(0, w - 1)) + du, draw(st.integers(0, h - 1)) + dv)
        elif kind == "edge":
            uv = (draw(st.sampled_from(edge_u)), draw(st.sampled_from(edge_v)))
        elif kind == "any":
            uv = (draw(st.floats(0.0, w, exclude_max=True)),
                  draw(st.floats(0.0, h, exclude_max=True)))
        else:
            uv = (np.nan, np.nan)
        if not (0.0 <= uv[0] < w and 0.0 <= uv[1] < h):
            uv = (np.nan, np.nan)
        proj.append(uv)
    return (h, w), proj, r_p, r_n


class TestBuildPairs:
    def test_projection_on_center_single_positive(self):
        proj = np.full((32, 2), np.nan)
        proj[0] = [2.0, 5.0]
        pairs = sc.build_pairs(with_projections((8, 8), proj), r_p=1.0, r_n=4.0)
        np.testing.assert_array_equal(pairs.positives, [5 * 8 + 2])
        np.testing.assert_array_equal(pairs.overlap_points, [0])
        np.testing.assert_array_equal(pairs.anchor_points, [0])

    def test_huge_negative_margin_degenerates(self):
        sample = make_scene(seed=4, grid=(8, 8), n_points=32)
        pairs = sc.build_pairs(sample, r_p=1.0, r_n=1000.0)
        overlap = np.flatnonzero(sample.point_overlap_gt)
        # every pixel is near every overlapping point, so none has a negative
        np.testing.assert_array_equal(
            pairs.near, (overlap[:, None] * 64 + np.arange(64)).ravel())
        assert pairs.anchor_points.size == 0
        assert pairs.skipped_no_positive + pairs.skipped_no_negative == overlap.size

    def test_matches_brute_force_filter(self):
        for seed, r_p, r_n in [(5, 1.0, 4.0), (6, 0.5, 2.3), (7, 1.5, 1.6), (8, 2.0, 9.0)]:
            assert_matches_dense(make_scene(seed=seed, grid=(8, 8), n_points=48), r_p, r_n)

    @settings(max_examples=300, deadline=None)
    @given(projections_and_margins())
    def test_matches_brute_force_on_edges_and_exact_margins(self, case):
        grid, proj, r_p, r_n = case
        assert_matches_dense(with_projections(grid, proj), r_p, r_n)

    def test_exact_margins_classified_like_the_distance(self):
        # d == r_p is not a positive, d == r_n is near (not a negative)
        proj = [[3.0, 3.0], [np.nan, np.nan]]
        pairs = sc.build_pairs(with_projections((8, 8), proj), r_p=1.0, r_n=2.5)
        pixel = {(u, v): v * 8 + u for v in range(8) for u in range(8)}
        assert pixel[4, 3] not in pairs.positives and pixel[4, 3] in pairs.near
        assert pixel[4, 5] in pairs.near  # (1, 2) away: sqrt(5) < 2.5
        assert pixel[5, 5] not in pairs.near  # sqrt(8) > 2.5
        assert pixel[3, 3] in pairs.positives
        proj = [[2.5, 2.0]]  # 3-4-5 triangles: (1.5, 2) from pixels (1, 0) and (4, 4)
        pairs = sc.build_pairs(with_projections((8, 8), proj), r_p=1.0, r_n=2.5)
        assert pixel[4, 4] in pairs.near and pixel[1, 0] in pairs.near

    def test_positive_pixels_are_overlap_labeled(self):
        for seed in range(5):
            sample = make_scene(seed=seed)
            pairs = sc.build_pairs(sample, r_p=1.0, r_n=4.0)
            assert sample.pixel_overlap_gt[pairs.positives % sample.n_pixels].all()

    def test_margin_validation(self):
        sample = make_scene(seed=4)
        with pytest.raises(ParameterError):
            sc.build_pairs(sample, r_p=2.0, r_n=1.0)


CORRUPTION_BASE = sc.scene_to_bytes(make_scene(seed=11, n_points=16, grid=(8, 8)))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -0.5, 16.0])
    def test_overlapping_projection_outside_grid_rejected(self, bad):
        sample = make_scene(seed=7)
        proj = sample.gt_projection.copy()
        proj[np.flatnonzero(sample.point_overlap_gt)[3], 1] = bad
        with pytest.raises(ConfigError, match="outside the grid"):
            sc.scene_from_bytes(sc.scene_to_bytes(replace(sample, gt_projection=proj)))

    def test_overlapping_point_behind_camera_rejected(self):
        sample = make_scene(seed=7)
        i = np.flatnonzero(sample.point_overlap_gt)[0]
        points = sample.points.copy()
        # move the point along the optical axis to depth -1 in the camera frame
        pose = sample.raw_pose
        q = pose.apply(points[i])[0]
        points[i] = pose.rotation.T @ (np.array([q[0], q[1], -1.0]) - pose.translation)
        with pytest.raises(ConfigError, match="behind the camera"):
            sc.scene_from_bytes(sc.scene_to_bytes(replace(sample, points=points)))

    @pytest.mark.parametrize("field", ["points", "rotation", "fx"])
    def test_non_finite_or_invalid_camera_rejected(self, field):
        sample = make_scene(seed=7)
        if field == "points":
            points = sample.points.copy()
            points[0, 2] = np.nan
            sample = replace(sample, points=points)
        blob = bytearray(sc.scene_to_bytes(sample))
        if field == "rotation":  # first rotation entry, header is 52 bytes
            blob[52:60] = np.array([2.0]).tobytes()
        elif field == "fx":
            blob[20:28] = np.array([-1.0]).tobytes()
        with pytest.raises(ConfigError):
            sc.scene_from_bytes(bytes(blob))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 255)),
                    min_size=1, max_size=8))
    def test_corrupted_bytes_rejected_or_harmless(self, edits):
        """A corrupted file either fails to load with ConfigError, or loads
        into a scene that pair building and the texture channel handle,
        raising nothing but NeucalibError."""
        blob = bytearray(CORRUPTION_BASE)
        for pos, byte in edits:
            blob[pos % len(blob)] = byte
        try:
            sample = sc.scene_from_bytes(bytes(blob))
        except ConfigError:
            return
        try:
            sc.build_pairs(sample, 1.0, 4.0)
            enc.pixel_texture(sample)
        except NeucalibError:
            pass

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
