import hashlib
import struct
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neucalib import geometry as geo
from neucalib import scene as sc
from neucalib.errors import ConfigError, GenerationError, NeucalibError, ParameterError


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


def brute_force_texture(scene) -> np.ndarray:
    """Per pixel, the depth of the overlapping point whose projection is
    nearest its center; ties go to the lower point index."""
    depth = scene.raw_pose.apply(scene.points)[:, 2]
    tex = np.zeros(scene.pixel_overlap_gt.size)
    for j, (u, v) in enumerate(sc.pixel_centers(scene.grid)):
        best = None
        for i in np.flatnonzero(scene.point_overlap_gt):
            du, dv = scene.gt_projection[i, 0] - u, scene.gt_projection[i, 1] - v
            d2 = du * du + dv * dv
            if best is None or d2 < best[0]:
                best = (d2, i)
        if best is not None:
            tex[j] = depth[best[1]]
    return tex


def version_1_record(sample: sc.SceneSample) -> bytes:
    """``sample`` packed as a record of format version 1, which also stored
    the camera, both overlap masks (one byte per flag) and the projections."""
    (h, w), n, k, pose = sample.grid, sample.n_points, sample.intrinsics, sample.raw_pose
    layout = np.dtype([
        ("magic", "S4"), ("version", "<u4"), ("n", "<u4"), ("h", "<u4"), ("w", "<u4"),
        ("intrinsics", "<f8", (4,)), ("rotation", "<f8", (3, 3)), ("translation", "<f8", (3,)),
        ("points", "<f8", (n, 3)), ("point_overlap", "u1", (n,)),
        ("pixel_overlap", "u1", (h * w,)), ("projection", "<f8", (n, 2))])
    return np.array((b"NCLR", 1, n, h, w, (k.fx, k.fy, k.cx, k.cy), pose.rotation,
                     pose.translation, sample.points, sample.point_overlap_gt,
                     sample.pixel_overlap_gt, sample.gt_projection), layout).tobytes()


def version_2_record(sample: sc.SceneSample) -> bytes:
    """``sample`` packed as a record of format version 2, which also stored
    the projections."""
    (h, w), n, pose = sample.grid, sample.n_points, sample.raw_pose
    layout = np.dtype([
        ("magic", "S4"), ("version", "<u4"), ("n", "<u4"), ("h", "<u4"), ("w", "<u4"),
        ("rotation", "<f8", (3, 3)), ("translation", "<f8", (3,)), ("points", "<f8", (n, 3)),
        ("projection", "<f8", (n, 2))])
    return np.array((b"NCLR", 2, n, h, w, pose.rotation, pose.translation, sample.points,
                     sample.gt_projection), layout).tobytes()


def version_3_record(sample: sc.SceneSample) -> bytes:
    """``sample`` packed as a record of format version 3: the 20-byte header
    (magic, version, N, H' and W') that each record carried, then the row
    that format version 4 writes."""
    (h, w), n = sample.grid, sample.n_points
    return b"NCLR" + struct.pack("<4I", 3, n, h, w) + sc.scene_to_bytes(sample)


def oracle_in_frustum(rng, cfg, count):
    """The one-attempt-at-a-time patch and noise sampler that the library's
    batched one must replay draw for draw."""
    h, w = cfg.grid
    k = sc._camera(cfg.grid)
    n_noise = int(round(count * sc.NOISE_FRACTION))
    n_patch = count - n_noise
    pts = []
    sizes = np.full(sc.N_PATCHES, n_patch // sc.N_PATCHES)
    sizes[: n_patch - sizes.sum()] += 1
    for size in sizes:
        center_uv = np.array([rng.uniform(1.0, w - 1.0), rng.uniform(1.0, h - 1.0)])
        z0 = rng.uniform(sc.Z_NEAR, sc.Z_FAR)
        q0 = geo._unproject(center_uv[None, :], np.array([z0]), k)[0]
        normal = q0 / np.linalg.norm(q0) + 0.5 * rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        radius = rng.uniform(1.5, max(2.0, min(h, w) / 2.0))
        got = 0
        attempts = 0
        while got < size:
            attempts += 1
            if attempts > 100 * size:
                raise GenerationError("could not place a planar patch inside the frustum")
            uv = center_uv + rng.uniform(-radius, radius, 2)
            if not (0.1 <= uv[0] <= w - 0.1 and 0.1 <= uv[1] <= h - 0.1):
                continue
            ray = np.array([(uv[0] - k.cx) / k.fx, (uv[1] - k.cy) / k.fy, 1.0])
            denom = ray @ normal
            if abs(denom) < 1e-3:
                continue
            z = (q0 @ normal) / denom
            if not (0.5 * sc.Z_NEAR <= z <= 1.5 * sc.Z_FAR):
                continue
            pts.append(ray * z)
            got += 1
    for _ in range(n_noise):
        uv = np.array([rng.uniform(0.1, w - 0.1), rng.uniform(0.1, h - 0.1)])
        z = rng.uniform(sc.Z_NEAR, sc.Z_FAR)
        pts.append(geo._unproject(uv[None, :], np.array([z]), k)[0])
    return np.array(pts).reshape(count, 3)


def oracle_out_of_frustum(rng, cfg, count):
    """The point-at-a-time out-of-frustum sampler, re-projecting each point."""
    h, w = cfg.grid
    k = sc._camera(cfg.grid)
    pts = np.empty((count, 3))
    for i in range(count):
        for _ in range(100):
            if rng.uniform() < 0.5:
                q = np.array([rng.uniform(-sc.Z_FAR, sc.Z_FAR),
                              rng.uniform(-sc.Z_FAR, sc.Z_FAR),
                              -rng.uniform(1.0, sc.Z_FAR)])
            else:
                u = rng.uniform(w + 2.0, 3.0 * w) * rng.choice([-1.0, 1.0])
                v = rng.uniform(-h, 2.0 * h)
                z = rng.uniform(sc.Z_NEAR, sc.Z_FAR)
                q = geo._unproject(np.array([[u, v]]), np.array([z]), k)[0]
            if np.isnan(sc._grid_projection(q[None, :], k, cfg.grid)).all():
                pts[i] = q
                break
        else:
            raise GenerationError("could not place an out-of-frustum point")
    return pts


# (n_points, grid, seeds) for the oracle comparison
ORACLE_CASES = [(8, (4, 9), range(60)), (32, (8, 8), range(60)), (100, (5, 17), range(60)),
                (256, (16, 16), range(30)), (512, (24, 24), range(8))]


# SHA-256 of generate_scene(default_rng(seed), SceneConfig(n, grid)) as a
# version-1 and a version-3 record: a change to generation or to the record
# that moves one bit of any scene fails here, and the first shows that the
# camera, masks and projections the scene derives are the ones that format
# version 1 stored
SCENE_DIGESTS = [
    (32, (8, 8), 0, "34469406193bc3cbc2f397715a8c08d481e97af5aaa97c667d74cd59a6652e12",
     "13087cb0f92d37737afe800f2c7d367440c47d7e7c2db3afcbc7bf96386cc69c"),
    (32, (8, 8), 1, "8281937fc89d6ed1b46d6edb716add70b74c944b4851d547e8904ccefd82fe6a",
     "654b690c1eb02c7c049c661ec92fae387210ce7a5b9040e94dbff5b2e756159f"),
    (32, (8, 8), 2, "d504d473683980f08bf3c8c36f54db9a924230de3821d9a1220086220983603d",
     "0cd2b42e4a26dd14f4eb2d8664c8b3fe50822d4c5ba97c3b2caa56f6b52d52b8"),
    (32, (8, 8), 3, "b18a71c2848805cbf0b6fd4bbea38f3fdc1679fec8077ce104e58b2eeae44f66",
     "4c8ebe37c87503b56791a0f628a49f7da8b1a8976e820c9b0e8397e50b7bd888"),
    (256, (16, 16), 0, "e8d41c46f4d0a42fa607255bd1b7cb2b43c09cda3c615c21350938d65f59a670",
     "36dc7ee544cc9950c80430fa01a47c7a11dc916938f9141b423cf9a4015ea821"),
    (256, (16, 16), 1, "9b9ee6046a11940c5b5e975210e48f7d52c2a5b25d4cdfd194fb52e507751c26",
     "45b1bbd299f0ea838cf78e45aa0d6b75f33e9fd6c6d04e2e3827b8baaf600c18"),
    (256, (16, 16), 2, "74c5c6e489b824c430b2e79c5e2670a9817ba40670bf9cf2748a60a20cedd76c",
     "ddc516561fcc30e20484e1042df69353d0d53fc9f7e02439c83bae9c626a5479"),
    (256, (16, 16), 3, "d17aeccb8611822a153020cf32ad4979185bdd40eb3adcd547d256997d12f31c",
     "d8b34066db38e03174587ac0bc2f07a72f066c5ca482151aede2c21761165d5b"),
    (512, (24, 24), 0, "babe0427918f74ddab71f12cada3032e1eb384097c735d08dc2acc7242118142",
     "4ca2ff0eec37db61a4c40ecbfb911fca043dec4024e1719b1ed4513690242abb"),
    (512, (24, 24), 1, "12b523ed94f41319e3de6705b0e17f49127ddd8ce085ee9ca4d7ae434bd12853",
     "8b1ca9abaf229d6d5f3cf8b898cba77388d4bfbb5bad45da1b1ea5362e946e38"),
]

# SHA-256 of the concatenated version-3 records of four 256/16² scenes drawn in
# sequence from default_rng(301), as a dataset set-up draws them: a sampler that draws
# one value too many or too few moves every scene after the first
SEQUENCE_DIGEST = "8831c87e93b183a2e3619a9d09ce1e191a2dab7cee8deffde89131b3aa4328e9"

# the same for four 512/24² scenes from default_rng(301), redrawn on
# GenerationError as the set-up redraws them
SEQUENCE_DIGEST_512 = "4605d300e799efb60846c592937b0629d2f5862f2b3e9bc4748035ef20213554"

# dataset file head: magic, version and count as uint32, seed as uint64, then
# N, H' and W' as uint32
HEAD_SIZE = 32


def dataset_head(count, seed, n, grid, version=sc.FORMAT_VERSION) -> bytes:
    return sc.DATASET_MAGIC + struct.pack("<IIQ3I", version, count, seed, n, *grid)


def load_bytes(blob: bytes) -> list[sc.SceneSample]:
    """``load_dataset`` of a directory whose dataset file is ``blob``."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / sc.DATASET_FILE).write_bytes(blob)
        return sc.load_dataset(tmp)


class TestGeneration:
    def test_derived_arrays_are_read_only(self):
        # every reader of a scene shares its cached labels and texture
        sample = make_scene(seed=2, n_points=32, grid=(8, 8))
        for name in ("gt_projection", "point_overlap_gt", "pixel_overlap_gt", "texture"):
            before = getattr(sample, name).copy()
            with pytest.raises(ValueError, match="read-only"):
                getattr(sample, name)[:] = 0
            np.testing.assert_array_equal(getattr(sample, name), before)

    @pytest.mark.parametrize("n_points, grid, seed, version_1, digest", SCENE_DIGESTS)
    def test_scene_bytes_pinned(self, n_points, grid, seed, version_1, digest):
        sample = make_scene(seed=seed, n_points=n_points, grid=grid)
        assert hashlib.sha256(version_1_record(sample)).hexdigest() == version_1
        assert hashlib.sha256(version_3_record(sample)).hexdigest() == digest

    def test_scene_sequence_pinned(self):
        rng, cfg = np.random.default_rng(301), sc.SceneConfig(n_points=256, grid=(16, 16))
        blob = b"".join(version_3_record(sc.generate_scene(rng, cfg)) for _ in range(4))
        assert hashlib.sha256(blob).hexdigest() == SEQUENCE_DIGEST

    def test_scene_sequence_pinned_at_512(self):
        rng, cfg = np.random.default_rng(301), sc.SceneConfig(n_points=512, grid=(24, 24))
        scenes = []
        while len(scenes) < 4:
            try:
                scenes.append(sc.generate_scene(rng, cfg))
            except GenerationError:
                pass
        blob = b"".join(map(version_3_record, scenes))
        assert hashlib.sha256(blob).hexdigest() == SEQUENCE_DIGEST_512

    @pytest.mark.parametrize("n_points, grid, seeds", ORACLE_CASES)
    def test_samplers_replay_the_sequential_draws(self, n_points, grid, seeds):
        cfg = sc.SceneConfig(n_points=n_points, grid=grid)
        compared = 0
        for seed in seeds:
            # every in-frustum count from 8 to n_points, and out-of-frustum
            # counts down to 0
            count = 8 + seed * 7 % (n_points - 7)
            for library, oracle, n in [(sc._sample_in_frustum, oracle_in_frustum, count),
                                       (sc._sample_out_of_frustum, oracle_out_of_frustum,
                                        n_points - count)]:
                ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                try:
                    expected = oracle(ref, cfg, n)
                except GenerationError:  # the library redraws the patch instead
                    continue
                got = library(ours, sc._camera(cfg.grid), cfg.grid, n)
                assert got.tobytes() == expected.tobytes()
                assert ours.bit_generator.state == ref.bit_generator.state
                compared += 1
        assert compared >= len(seeds)

    @pytest.mark.parametrize("n_points, grid, seed",
                             [(256, (16, 16), 6515), (256, (16, 16), 7105), (512, (24, 24), 2873)])
    def test_infeasible_patch_plane_redrawn(self, n_points, grid, seed, monkeypatch):
        sample = make_scene(seed=seed, n_points=n_points, grid=grid)
        np.testing.assert_array_equal(sample.point_overlap_gt, brute_force_point_overlap(sample))
        # with one plane per patch the same seed exhausts its attempts
        monkeypatch.setattr(sc, "PATCH_PLANES", 1)
        with pytest.raises(GenerationError, match="planar patch"):
            make_scene(seed=seed, n_points=n_points, grid=grid)

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
        coords = sc._grid_projection(np.array([[0.0, 0.0, -5.0]]), sc._camera((16, 16)), (16, 16))
        assert np.isnan(coords[0]).all()

    def test_too_few_points_rejected(self):
        with pytest.raises(ParameterError):
            sc.SceneConfig(n_points=4)

    @pytest.mark.parametrize("field, value", [("n_points", 10.5), ("n_points", "64"),
                                              ("grid", (4.5, 8)), ("grid", (16,)),
                                              ("grid", [16, 16])])
    def test_non_integer_size_rejected(self, field, value):
        with pytest.raises(ParameterError, match=field):
            sc.SceneConfig(**{field: value})

    def test_numpy_integer_sizes_stored_as_ints(self, tmp_path):
        cfg = sc.SceneConfig(n_points=np.int64(32), grid=(np.int32(8), np.int64(8)))
        assert cfg == sc.SceneConfig(n_points=32, grid=(8, 8))
        assert type(cfg.n_points) is int and all(type(g) is int for g in cfg.grid)
        sc.write_dataset(tmp_path, [sc.generate_scene(np.random.default_rng(0), cfg)], cfg,
                         seed=np.int64(3))
        head = (tmp_path / sc.DATASET_FILE).read_bytes()[:HEAD_SIZE]
        assert head == dataset_head(1, 3, 32, (8, 8))
        assert len(sc.load_dataset(tmp_path)) == 1

    @pytest.mark.parametrize("seed", ["3", 3.5, -1, None, True, False, np.True_, 2 ** 64])
    def test_bad_dataset_seed_rejected_before_writing(self, tmp_path, seed):
        # a bool is no count: the head would record True as the seed 1
        scene = make_scene(seed=0, n_points=32, grid=(8, 8))
        with pytest.raises(ParameterError, match="seed"):
            sc.write_dataset(tmp_path / "data", [scene], sc.SceneConfig(32, (8, 8)), seed)
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("n_points, grid", [(40, (8, 8)), (32, (8, 9)), (32, (9, 8))])
    def test_scene_of_another_size_rejected_before_writing(self, tmp_path, n_points, grid):
        # the head records one size, the config's, so every scene must have it
        scenes = [make_scene(seed=0, n_points=32, grid=(8, 8)),
                  make_scene(seed=1, n_points=n_points, grid=grid)]
        with pytest.raises(ParameterError, match="scene 1 has"):
            sc.write_dataset(tmp_path / "data", scenes, sc.SceneConfig(32, (8, 8)), 0)
        assert not (tmp_path / "data").exists()

    def test_points_the_format_cannot_hold_rejected_before_writing(self, tmp_path):
        # the head holds N in a uint32, and numpy sizes a record in a C int
        for n_points in (2 ** 32, 2 ** 27):
            with pytest.raises(NeucalibError, match="does not fit"):
                sc.write_dataset(tmp_path / "data", [], sc.SceneConfig(n_points), 0)
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("config, scene", [(None, "scene"), ("config", None),
                                               ("config", "config")],
                             ids=["config_none", "scene_none", "scene_is_config"])
    def test_non_config_or_non_scene_rejected_before_writing(self, tmp_path, config, scene):
        cfg = sc.SceneConfig(32, (8, 8))
        values = {"config": cfg, "scene": make_scene(seed=0, n_points=32, grid=(8, 8)), None: None}
        with pytest.raises(ParameterError, match="SceneConfig|SceneSample"):
            sc.write_dataset(tmp_path / "data", [values[scene]], values[config], 0)
        assert not (tmp_path / "data").exists()

    def test_dataset_file_pinned(self, tmp_path):
        """The same seed writes the same file: the head, then the records
        of the sequence that SEQUENCE_DIGEST pins, each a version-3 record
        without its header."""
        rng, cfg = np.random.default_rng(301), sc.SceneConfig(n_points=256, grid=(16, 16))
        scenes = [sc.generate_scene(rng, cfg) for _ in range(4)]
        for name in ("a", "b"):
            sc.write_dataset(tmp_path / name, scenes, cfg, 301)
        blobs = [(tmp_path / name / sc.DATASET_FILE).read_bytes() for name in ("a", "b")]
        assert blobs[0] == blobs[1]
        assert blobs[0][:HEAD_SIZE] == b"NCLD" + struct.pack("<IIQ3I", 4, 4, 301, 256, 16, 16)
        rows = np.split(np.frombuffer(blobs[0], np.uint8, offset=HEAD_SIZE), 4)
        header = b"NCLR" + struct.pack("<4I", 3, 256, 16, 16)
        assert hashlib.sha256(b"".join(header + row.tobytes() for row in rows)).hexdigest() \
            == SEQUENCE_DIGEST

    @pytest.mark.parametrize("n_points, grid", [(256, (16, 16)), (512, (24, 24))])
    def test_augment_scene_preserves_labels_and_projection(self, n_points, grid):
        sample = make_scene(seed=9, n_points=n_points, grid=grid)
        rng = np.random.default_rng(1)
        rot, trans = geo.sample_augmentation(rng, np.pi, 5.0)
        aug = sc.augment_scene(sample, rot, trans)
        assert not np.allclose(aug.points, sample.points)
        np.testing.assert_array_equal(aug.point_overlap_gt, sample.point_overlap_gt)
        np.testing.assert_array_equal(aug.pixel_overlap_gt, sample.pixel_overlap_gt)
        assert aug.intrinsics == sample.intrinsics
        np.testing.assert_allclose(aug.gt_projection, sample.gt_projection, rtol=0.0, atol=1e-9)
        # so every pair label carries over
        pairs, aug_pairs = sc.build_pairs(sample, 1.0, 4.0), sc.build_pairs(aug, 1.0, 4.0)
        for name in ("overlap_points", "positives", "near"):
            np.testing.assert_array_equal(getattr(aug_pairs, name), getattr(pairs, name))
        assert (aug_pairs.skipped_no_positive, aug_pairs.skipped_no_negative) == \
            (pairs.skipped_no_positive, pairs.skipped_no_negative)
        # the pixel texture reads each overlapping point's depth under the
        # recomputed pose, which moves it by rounding alone
        texture = sample.texture
        np.testing.assert_allclose(aug.texture, texture, rtol=0.0,
                                   atol=8 * np.finfo(np.float64).eps * texture.max())


def generator_bounds(grid):
    """Every (low, high) pair that scene generation draws between on ``grid``,
    but the patch offsets', which are (-radius, radius) for a drawn radius."""
    h, w = grid
    return [(-sc.POSE_ROT_SPREAD, sc.POSE_ROT_SPREAD), sc.OVERLAP_BAND, (1.0, w - 1.0),
            (1.0, h - 1.0), (sc.Z_NEAR, sc.Z_FAR), (1.5, max(2.0, min(h, w) / 2.0)),
            (-sc.Z_FAR, sc.Z_FAR), (1.0, sc.Z_FAR), (w + 2.0, 3.0 * w), (-h, 2.0 * h)]


GRIDS = [grid for _, grid, _ in ORACLE_CASES]
finite = st.floats(-1e300, 1e300)


@st.composite
def uniform_bounds(draw):
    """A pair the generator uses, a patch offset range, or any pair low <= high
    of finite floats whose range is finite."""
    radius = draw(st.sampled_from(GRIDS).flatmap(
        lambda g: st.floats(1.5, max(2.0, min(g) / 2.0))))
    low, high = draw(st.sampled_from([b for g in GRIDS for b in generator_bounds(g)])
                     | st.just((-radius, radius)) | st.tuples(finite, finite).map(sorted))
    assume(np.isfinite(high - low))
    return low, high


class TestUniformDraw:
    @settings(max_examples=400)
    @given(uniform_bounds(), st.sampled_from([None, 3, (5, 2)]), st.integers(0, 2 ** 32),
           st.booleans())
    def test_uniform_is_generator_uniform(self, bounds, size, seed, half_word):
        """The same doubles and the same generator state as ``Generator.uniform``,
        also with half a word left over from an ``integers(2)`` draw."""
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        if half_word:
            ours.integers(2), ref.integers(2)
        got, expected = sc._uniform(ours, *bounds, size), ref.uniform(*bounds, size)
        assert np.asarray(got).dtype == np.float64 and np.shape(got) == np.shape(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_coin_is_generator_uniform(self):
        ours, ref = np.random.default_rng(5), np.random.default_rng(5)
        assert [ours.random() for _ in range(64)] == [ref.uniform() for _ in range(64)]
        assert ours.bit_generator.state == ref.bit_generator.state


# generated scenes for the writer/reader symmetry property
SYMMETRY_BASES = [make_scene(seed=seed, n_points=16, grid=(8, 8)) for seed in range(3)] \
    + [make_scene(seed=0, n_points=32, grid=(6, 9))]


@st.composite
def perturbed_scenes(draw):
    """A generated scene and one change to its fields: a NaN or inf point, an
    overlapping point moved along the optical axis (mostly behind the
    camera), a list or an empty grid, or nothing."""
    sample = draw(st.sampled_from(SYMMETRY_BASES))
    (h, w), n = sample.grid, sample.n_points
    i = draw(st.sampled_from(np.flatnonzero(sample.point_overlap_gt).tolist()))
    kind = draw(st.sampled_from(["point", "depth", "grid", "none"]))
    if kind == "point":
        points = sample.points.copy()
        points[draw(st.integers(0, n - 1)), draw(st.integers(0, 2))] = \
            draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return sample, {"points": points}
    if kind == "depth":
        pose, points = sample.raw_pose, sample.points.copy()
        q = pose.apply(points[i:i + 1])[0]
        q[2] = draw(st.sampled_from([-1.0, 0.0, geo.MIN_DEPTH, 2.0 * geo.MIN_DEPTH, 1.0]))
        points[i] = pose.rotation.T @ (q - pose.translation)
        return sample, {"points": points}
    if kind == "grid":
        return sample, {"grid": draw(st.sampled_from([[h, w], (0, w), (h, 0)]))}
    return sample, {}


def assert_same_scene(a: sc.SceneSample, b: sc.SceneSample):
    """Field by field, with NaN equal to NaN."""
    for name in ("points", "point_overlap_gt", "pixel_overlap_gt", "gt_projection"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True), name
    assert a.grid == b.grid and a.intrinsics == b.intrinsics
    assert np.array_equal(a.raw_pose.rotation, b.raw_pose.rotation)
    assert np.array_equal(a.raw_pose.translation, b.raw_pose.translation)


class TestSceneRule:
    @settings(max_examples=200)
    @given(perturbed_scenes())
    def test_sample_refuses_or_round_trips(self, case):
        """Whatever sample can be built, the writer writes and the reader
        reads back equal, and each of its projections is a NaN row or an
        overlapping point's, in front of the camera and inside the grid."""
        sample, change = case
        try:
            changed = replace(sample, **change)
        except ConfigError:
            return
        (loaded,) = load_bytes(dataset_head(1, 0, changed.n_points, changed.grid)
                               + sc.scene_to_bytes(changed))
        assert_same_scene(loaded, changed)
        (h, w), on = changed.grid, changed.point_overlap_gt
        uv = changed.gt_projection
        assert np.isnan(uv[~on]).all() and ((uv[on] >= 0.0) & (uv[on] < [w, h])).all()
        assert (changed.raw_pose.apply(changed.points[on])[:, 2] > geo.MIN_DEPTH).all()


class TestPixelOverlap:
    def test_no_points_all_false(self):
        assert not sc._label_pixel_overlap(np.zeros((0, 2)), (16, 16)).any()

    def test_single_point_on_center(self):
        labels = sc._label_pixel_overlap(np.array([[3.0, 3.0]]), (16, 16))
        assert labels.shape == (256,)
        # the 3 x 3 pixels around (3, 3), and no other
        assert np.flatnonzero(labels).tolist() == [v * 16 + u for v in (2, 3, 4) for u in (2, 3, 4)]

    def test_matches_brute_force(self):
        for seed in range(4):
            sample = make_scene(seed=seed, n_points=64, grid=(8, 8))
            np.testing.assert_array_equal(
                sample.pixel_overlap_gt, brute_force_pixel_overlap(sample))


class TestTexture:
    def test_texture_channel_uses_depth(self):
        for scene in (make_scene(n_points=8, grid=(8, 8)),
                      make_scene(seed=3, n_points=40, grid=(6, 9))):
            tex = scene.texture
            assert tex.shape == (scene.pixel_overlap_gt.size,)
            assert (tex > 0).any()
            np.testing.assert_array_equal(tex, brute_force_texture(scene))

    def test_texture_tie_goes_to_lower_overlap_index(self):
        # pixel (3, 3) is 0.5 from both projections; the first overlapping
        # point wins even though it is the farther one. The points are dyadic,
        # so the camera (f = 12, centre (4, 4)) projects them exactly.
        points = np.array([[0.0, 0.0, -1.0], [-1.5, -1.0, 12.0], [-0.25, -0.5, 6.0]])
        scene = sc.SceneSample(points=points, raw_pose=geo.RigidPose(np.eye(3), np.zeros(3)),
                               grid=(8, 8))
        assert np.array_equal(scene.gt_projection, [[np.nan, np.nan], [2.5, 3.0], [3.5, 3.0]],
                              equal_nan=True)
        tex = scene.texture
        assert tex[3 * 8 + 3] == 12.0
        assert tex[3 * 8 + 4] == 6.0
        np.testing.assert_array_equal(tex, brute_force_texture(scene))

    def test_large_texture_renders_in_blocks(self):
        # 839 overlapping points on 64 x 64 pixels: the whole distance cube
        # would take 27.5 MB. One row of 4096 pixels and as many points, a
        # 98 KB scene: one grid row of it would take 134 MB. Each renders
        # against one block of _TEXTURE_BLOCK doubles
        rng = np.random.default_rng(1)
        wide = sc.SceneSample(np.stack([rng.uniform(-1700, 1700, 4096),
                                        rng.uniform(-0.4, 0.4, 4096), np.full(4096, 10.0)], 1),
                              geo.RigidPose(np.eye(3), np.zeros(3)), (1, 4096))
        for scene in (make_scene(n_points=1024, grid=(64, 64)), wide):
            overlap = np.flatnonzero(scene.point_overlap_gt)
            assert overlap.size * scene.pixel_overlap_gt.size > 4 * sc._TEXTURE_BLOCK
            tracemalloc.start()
            try:
                tex = scene.texture
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 8 * sc._TEXTURE_BLOCK
            # each pixel's argmin over its own row of the cube, as dv^2 + du^2
            u, v = scene.gt_projection[overlap].T
            depth = scene.raw_pose.apply(scene.points[overlap])[:, 2]
            expected = [depth[np.argmin((cv - v) * (cv - v) + (cu - u) * (cu - u))]
                        for cu, cv in sc.pixel_centers(scene.grid)]
            np.testing.assert_array_equal(tex, expected)


def label_pairs(grid, proj, r_p, r_n) -> sc.PairSet:
    """``build_pairs``' labelling of the projections ``proj`` (NaN rows do not
    overlap) on ``grid``: a derived projection cannot be set to an exact value."""
    return sc._label_pairs(np.asarray(proj, dtype=np.float64).reshape(-1, 2), grid, r_p, r_n)


def dense_pairs(grid, proj, r_p, r_n):
    """Brute-force reference: every (overlapping point, pixel) distance as
    sqrt(dx*dx + dy*dy), positives below r_p, near pairs up to r_n."""
    centers = sc.pixel_centers(grid)
    pos = np.zeros((len(proj), len(centers)), dtype=bool)
    near = np.zeros_like(pos)
    for i in np.flatnonzero(~np.isnan(proj[:, 0])):
        for j, (u, v) in enumerate(centers):
            dx, dy = proj[i, 0] - u, proj[i, 1] - v
            d = np.sqrt(dx * dx + dy * dy)
            pos[i, j], near[i, j] = d < r_p, d <= r_n
    return pos, near


def assert_matches_dense(pairs, grid, proj, r_p, r_n):
    proj = np.asarray(proj, dtype=np.float64).reshape(-1, 2)
    pos, near = dense_pairs(grid, proj, r_p, r_n)
    overlap = ~np.isnan(proj[:, 0])
    # pairs index the block of the overlapping points' rows
    np.testing.assert_array_equal(pairs.positives, np.flatnonzero(pos[overlap]))
    np.testing.assert_array_equal(pairs.near, np.flatnonzero(near[overlap]))
    np.testing.assert_array_equal(pairs.overlap_points, np.flatnonzero(overlap))
    assert pairs.n_pixels == grid[0] * grid[1]
    has_pos = pos.any(axis=1)
    has_neg = overlap & ~near.all(axis=1)
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
        pairs = label_pairs((8, 8), proj, r_p=1.0, r_n=4.0)
        np.testing.assert_array_equal(pairs.positives, [5 * 8 + 2])
        np.testing.assert_array_equal(pairs.overlap_points, [0])
        assert pairs.skipped_no_positive == pairs.skipped_no_negative == 0

    def test_huge_negative_margin_degenerates(self):
        sample = make_scene(seed=4, grid=(8, 8), n_points=32)
        pairs = sc.build_pairs(sample, r_p=1.0, r_n=1000.0)
        k = np.count_nonzero(sample.point_overlap_gt)
        # every pixel is near every overlapping point, so none has a negative
        np.testing.assert_array_equal(pairs.near, np.arange(k * 64))
        assert pairs.skipped_no_positive + pairs.skipped_no_negative == k

    def test_matches_brute_force_filter(self):
        for seed, r_p, r_n in [(5, 1.0, 4.0), (6, 0.5, 2.3), (7, 1.5, 1.6), (8, 2.0, 9.0)]:
            sample = make_scene(seed=seed, grid=(8, 8), n_points=48)
            assert_matches_dense(sc.build_pairs(sample, r_p, r_n), sample.grid,
                                 sample.gt_projection, r_p, r_n)

    @settings(max_examples=300)
    @given(projections_and_margins())
    def test_matches_brute_force_on_edges_and_exact_margins(self, case):
        grid, proj, r_p, r_n = case
        assert_matches_dense(label_pairs(grid, proj, r_p, r_n), grid, proj, r_p, r_n)

    def test_exact_margins_classified_like_the_distance(self):
        # d == r_p is not a positive, d == r_n is near (not a negative)
        proj = [[3.0, 3.0], [np.nan, np.nan]]
        pairs = label_pairs((8, 8), proj, r_p=1.0, r_n=2.5)
        pixel = {(u, v): v * 8 + u for v in range(8) for u in range(8)}
        assert pixel[4, 3] not in pairs.positives and pixel[4, 3] in pairs.near
        assert pixel[4, 5] in pairs.near  # (1, 2) away: sqrt(5) < 2.5
        assert pixel[5, 5] not in pairs.near  # sqrt(8) > 2.5
        assert pixel[3, 3] in pairs.positives
        proj = [[2.5, 2.0]]  # 3-4-5 triangles: (1.5, 2) from pixels (1, 0) and (4, 4)
        pairs = label_pairs((8, 8), proj, r_p=1.0, r_n=2.5)
        assert pixel[4, 4] in pairs.near and pixel[1, 0] in pairs.near

    def test_positive_pixels_are_overlap_labeled(self):
        for seed in range(5):
            sample = make_scene(seed=seed)
            pairs = sc.build_pairs(sample, r_p=1.0, r_n=4.0)
            assert sample.pixel_overlap_gt[pairs.positives % pairs.n_pixels].all()

    def test_margin_validation(self):
        sample = make_scene(seed=4)
        with pytest.raises(ParameterError):
            sc.build_pairs(sample, r_p=2.0, r_n=1.0)


def edited_file(sample: sc.SceneSample, **fields) -> bytes:
    """The dataset file of ``sample`` alone, with some fields of its head or
    record overwritten: a file that the writer cannot produce, since every
    sample checks itself and the head is written from a SceneConfig."""
    n = sample.n_points
    head = np.frombuffer(dataset_head(1, 0, n, sample.grid), sc._DATASET_HEAD).copy()
    rec = np.frombuffer(sc.scene_to_bytes(sample), sc._layout(n), 1).copy()
    for name, value in fields.items():
        (head if name in head.dtype.names else rec)[name] = value
    return head.tobytes() + rec.tobytes()


CORRUPTION_BASE = edited_file(make_scene(seed=11, n_points=16, grid=(8, 8)))


class TestSceneIO:
    def test_round_trip_bit_exact(self, tmp_path):
        sample = make_scene(seed=6)
        sc.write_dataset(tmp_path, [sample], sc.SceneConfig(), seed=6)
        (loaded,) = sc.load_dataset(tmp_path)
        assert np.array_equal(loaded.points, sample.points)
        assert np.array_equal(loaded.gt_projection, sample.gt_projection, equal_nan=True)
        assert np.array_equal(loaded.point_overlap_gt, sample.point_overlap_gt)
        assert np.array_equal(loaded.pixel_overlap_gt, sample.pixel_overlap_gt)
        assert np.array_equal(loaded.raw_pose.rotation, sample.raw_pose.rotation)
        assert np.array_equal(loaded.raw_pose.translation, sample.raw_pose.translation)
        assert loaded.intrinsics == sample.intrinsics and loaded.grid == sample.grid
        # serialization itself is deterministic
        assert sc.scene_to_bytes(loaded) == (tmp_path / sc.DATASET_FILE).read_bytes()[HEAD_SIZE:]

    def test_empty_dataset_round_trips(self, tmp_path):
        cfg = sc.SceneConfig(n_points=32, grid=(8, 8))
        sc.write_dataset(tmp_path, [], cfg, seed=5)
        assert (tmp_path / sc.DATASET_FILE).read_bytes() == dataset_head(0, 5, 32, (8, 8))
        assert sc.load_dataset(tmp_path) == []

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            sc.load_dataset(tmp_path)

    def test_bad_magic_rejected(self):
        with pytest.raises(ConfigError, match="magic"):
            load_bytes(b"XXXX" + CORRUPTION_BASE[4:])

    def test_every_truncation_rejected(self, tmp_path):
        """A file is exactly its head and the head's count of records: every
        cut of a two-scene file, and one byte past its end, is refused."""
        cfg = sc.SceneConfig(n_points=16, grid=(8, 8))
        scenes = [sc.generate_scene(np.random.default_rng([7, i]), cfg) for i in range(2)]
        sc.write_dataset(tmp_path, scenes, cfg, seed=7)
        blob = (tmp_path / sc.DATASET_FILE).read_bytes()
        assert len(blob) == HEAD_SIZE + 2 * len(sc.scene_to_bytes(scenes[0]))
        for edited in [*(blob[:cut] for cut in range(len(blob))), blob + b"\0"]:
            (tmp_path / sc.DATASET_FILE).write_bytes(edited)
            with pytest.raises(ConfigError):
                sc.load_dataset(tmp_path)

    def test_overlapping_point_moved_behind_camera_loads_as_not_overlapping(self):
        sample = make_scene(seed=7)
        i = np.flatnonzero(sample.point_overlap_gt)[0]
        points = sample.points.copy()
        # move the point along the optical axis to depth -1 in the camera frame
        pose = sample.raw_pose
        q = pose.apply(points[i:i + 1])[0]
        points[i] = pose.rotation.T @ (np.array([q[0], q[1], -1.0]) - pose.translation)
        (loaded,) = load_bytes(edited_file(sample, points=points))
        assert np.flatnonzero(loaded.point_overlap_gt ^ sample.point_overlap_gt).tolist() == [i]
        assert np.isnan(loaded.gt_projection[i]).all()
        others = np.arange(sample.n_points) != i
        assert np.array_equal(loaded.gt_projection[others], sample.gt_projection[others],
                              equal_nan=True)

    @pytest.mark.parametrize("field", ["points", "translation", "rotation", "n", "h", "w",
                                       "empty_grid"])
    def test_non_finite_or_invalid_camera_rejected(self, field):
        sample = make_scene(seed=7)
        if field == "points":  # a non-finite point that overlaps nothing
            i = np.flatnonzero(~sample.point_overlap_gt)[0]
            points = sample.points.copy()
            points[i, 2] = np.nan
            blob = edited_file(sample, points=points)
        elif field == "translation":
            blob = edited_file(sample, translation=[0.0, np.inf, 0.0])
        elif field == "empty_grid":  # a file of the right length with no pixel
            blob = edited_file(sample, h=0)
        elif field == "rotation":  # first rotation entry
            rotation = sample.raw_pose.rotation.copy()
            rotation[0, 0] = 2.0
            blob = edited_file(sample, rotation=rotation)
        else:  # the head's uint32 N, H' or W'
            blob = edited_file(sample, **{field: 2 ** 32 - 1})
        with pytest.raises(ConfigError):
            load_bytes(blob)

    def test_grid_of_more_than_max_pixels_refused(self):
        # the dataset head alone sizes the grid: one edited byte of H' would
        # otherwise ask the texture channel for gigabytes
        sample = make_scene(seed=7)  # 16 x 16
        rows = sc._MAX_PIXELS // 16
        assert load_bytes(edited_file(sample, h=rows))[0].grid == (rows, 16)
        with pytest.raises(ConfigError, match="pixels"):
            load_bytes(edited_file(sample, h=rows + 1))
        sc.SceneConfig(grid=(rows, 16))
        with pytest.raises(ParameterError, match="pixels"):
            sc.SceneConfig(grid=(rows + 1, 16))

    @pytest.mark.parametrize("n", [89478482, 89478485])
    def test_record_past_a_c_int_refused(self, n):
        # numpy sizes a record in a C int, and checked the points alone: a
        # header of these N gave a record of negative size, whose read crashed
        # the interpreter
        with pytest.raises(ConfigError, match="does not fit"):
            load_bytes(dataset_head(1, 0, n, (8, 8)) + bytes(96))

    @pytest.mark.parametrize("case", ["wrong_grid", "negative_grid", "empty_grid",
                                      "points_n_x_2"])
    def test_inconsistent_sample_rejected_before_packing(self, case):
        """The sample refuses itself, so the writer never sees it."""
        sample = make_scene(seed=7)
        change = {
            "wrong_grid": dict(grid=(16, 16, 16)),  # three sides
            "negative_grid": dict(grid=(-16, -16)),
            "empty_grid": dict(grid=(0, 16)),
            "points_n_x_2": dict(points=sample.points[:, :2]),
        }[case]
        with pytest.raises(ConfigError, match="grid|points"):
            replace(sample, **change)

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 255)),
                    min_size=1, max_size=8))
    def test_corrupted_bytes_rejected_or_harmless(self, edits):
        """A corrupted file either fails to load with ConfigError, or loads
        into scenes that pair building and the texture channel handle,
        raising nothing but NeucalibError."""
        blob = bytearray(CORRUPTION_BASE)
        for pos, byte in edits:
            blob[pos % len(blob)] = byte
        try:
            scenes = load_bytes(bytes(blob))
        except ConfigError:
            return
        for sample in scenes:
            try:
                sc.build_pairs(sample, 1.0, 4.0)
                sample.texture
            except NeucalibError:
                pass

    def test_dataset_round_trip(self, tmp_path):
        cfg = sc.SceneConfig(n_points=32, grid=(8, 8))
        scenes = [sc.generate_scene(np.random.default_rng([3, i]), cfg) for i in range(3)]
        sc.write_dataset(tmp_path / "data", scenes, cfg, seed=3)
        loaded = sc.load_dataset(tmp_path / "data")
        assert len(loaded) == 3
        for a, b in zip(scenes, loaded):
            assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("case", ["cut_in_head", "cut_at_record", "cut_in_record",
                                      "trailing_byte", "magic", "version", "count_low",
                                      "count_high", "record_pose", "short_record"])
    def test_malformed_dataset_rejected(self, tmp_path, case):
        cfg = sc.SceneConfig(n_points=32, grid=(8, 8))
        scenes = [sc.generate_scene(np.random.default_rng([4, i]), cfg) for i in range(3)]
        out = tmp_path / "data"
        sc.write_dataset(out, scenes, cfg, seed=4)
        path = out / sc.DATASET_FILE
        blob = path.read_bytes()
        record = len(sc.scene_to_bytes(scenes[0]))
        ends = [HEAD_SIZE + i * record for i in range(3)]  # each record boundary but the last

        def head(version=sc.FORMAT_VERSION, count=3):
            return blob[:4] + struct.pack("<II", version, count) + blob[12:]

        edits = {
            "cut_in_head": [blob[:cut] for cut in range(HEAD_SIZE)],
            "cut_at_record": [blob[:end] for end in ends],
            "cut_in_record": [blob[:end + 1] for end in ends] + [blob[:-1]],
            "trailing_byte": [blob + b"\0"],
            "magic": [b"NCLR" + blob[4:], b"\0" * HEAD_SIZE + blob[HEAD_SIZE:]],
            "version": [head(version=sc.FORMAT_VERSION - 1), head(version=sc.FORMAT_VERSION + 1)],
            "count_low": [head(count=0), head(count=2)],
            "count_high": [head(count=4), head(count=2 ** 32 - 1)],
            # the middle record's first rotation entry, 2.0: no rotation
            "record_pose": [blob[:ends[1]] + struct.pack("<d", 2.0) + blob[ends[1] + 8:]],
            # the middle record one byte short, the last one shifted onto its end
            "short_record": [blob[:ends[2] - 1] + blob[ends[2]:]],
        }[case]
        for edited in edits:
            path.write_bytes(edited)
            with pytest.raises(ConfigError):
                sc.load_dataset(out)

    def test_version_1_record_refused(self, tmp_path):
        """A whole version-1 record is refused inside a dataset file, under
        the head a version-1 writer wrote and under a current one."""
        sample = make_scene(seed=7, n_points=32, grid=(8, 8))
        record = version_1_record(sample)
        assert (len(record), len(sc.scene_to_bytes(sample))) == (1524, 864)
        for head, wording in [(sc.DATASET_MAGIC + struct.pack("<IIQ", 1, 1, 7), "version 1"),
                              (dataset_head(1, 7, 32, (8, 8)), "1 records of 864")]:
            (tmp_path / sc.DATASET_FILE).write_bytes(head + record)
            with pytest.raises(ConfigError, match=wording):
                sc.load_dataset(tmp_path)

    def test_version_2_record_refused(self, tmp_path):
        """A whole version-2 record is refused inside a dataset file, under
        the head a version-2 writer wrote and under a current one."""
        sample = make_scene(seed=7, n_points=32, grid=(8, 8))
        record = version_2_record(sample)
        assert len(record) == 1396
        for head, wording in [(sc.DATASET_MAGIC + struct.pack("<IIQ", 2, 1, 7), "version 2"),
                              (dataset_head(1, 7, 32, (8, 8)), "1 records of 864")]:
            (tmp_path / sc.DATASET_FILE).write_bytes(head + record)
            with pytest.raises(ConfigError, match=wording):
                sc.load_dataset(tmp_path)

    def test_version_3_file_refused(self, tmp_path):
        """A whole version-3 file, as a version-3 writer wrote it: a 20-byte
        head, then records that each open with their own header."""
        sample = make_scene(seed=7, n_points=32, grid=(8, 8))
        head = sc.DATASET_MAGIC + struct.pack("<IIQ", 3, 2, 7)
        (tmp_path / sc.DATASET_FILE).write_bytes(head + 2 * version_3_record(sample))
        with pytest.raises(ConfigError, match="version 3"):
            sc.load_dataset(tmp_path)

    @pytest.mark.parametrize("case", ["load_nul_byte", "write_nul_byte", "load_missing_parent",
                                      "load_directory", "dataset_onto_file",
                                      "dataset_file_is_directory"])
    def test_unusable_path_rejected(self, tmp_path, case):
        cfg = sc.SceneConfig(n_points=32, grid=(8, 8))
        scene = sc.generate_scene(np.random.default_rng([6, 0]), cfg)
        (tmp_path / "file").write_bytes(b"")
        (tmp_path / "data" / sc.DATASET_FILE).mkdir(parents=True)
        calls = {
            "load_nul_byte": lambda: sc.load_dataset("x\0y"),
            "write_nul_byte": lambda: sc.write_dataset("x\0y", [scene], cfg, 6),
            "load_missing_parent": lambda: sc.load_dataset(tmp_path / "gone" / "data"),
            "load_directory": lambda: sc.load_dataset(tmp_path / "data"),
            "dataset_onto_file": lambda: sc.write_dataset(tmp_path / "file", [scene], cfg, 6),
            "dataset_file_is_directory":
                lambda: sc.write_dataset(tmp_path / "data", [scene], cfg, 6),
        }
        with pytest.raises(ConfigError, match="cannot"):
            calls[case]()

    def test_pixel_centers_layout(self):
        centers = sc.pixel_centers((2, 3))
        np.testing.assert_array_equal(
            centers, [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]])
