import numpy as np
import pytest

from neucalib import autodiff as ad
from neucalib import encoder as enc
from neucalib import geometry as geo
from neucalib import params as pstore
from neucalib import scene as sc
from neucalib.errors import ConfigError, ParameterError


def small_scene(seed=0, n_points=8, grid=(8, 8)):
    return sc.generate_scene(np.random.default_rng(seed),
                             sc.SceneConfig(n_points=n_points, grid=grid))


def brute_force_texture(scene) -> np.ndarray:
    """Per pixel, the depth of the overlapping point whose projection is
    nearest its center; ties go to the lower point index."""
    depth = scene.raw_pose.apply(scene.points)[:, 2]
    tex = np.zeros(scene.n_pixels)
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


def small_params(seed=0, channels=8, hidden=8):
    return enc.init_encoder_params(np.random.default_rng(seed), channels, hidden)


class TestSinusoidalPE:
    def test_zero_coordinate(self):
        pe = enc.sinusoidal_pe(np.zeros((1, 1)), 8)
        np.testing.assert_array_equal(pe[0, 0::2], 0.0)
        np.testing.assert_array_equal(pe[0, 1::2], 1.0)

    def test_bounded(self):
        rng = np.random.default_rng(1)
        pe = enc.sinusoidal_pe(rng.uniform(-50, 50, (64, 3)), 30)
        assert np.all(pe >= -1.0) and np.all(pe <= 1.0)

    def test_distinct_rows_on_grid(self):
        centers = sc.pixel_centers((8, 8))
        pe = enc.sinusoidal_pe(centers, 16)
        for i in range(len(pe)):
            for j in range(i + 1, len(pe)):
                assert not np.allclose(pe[i], pe[j], atol=1e-9), (i, j)

    def test_odd_channels_rejected(self):
        with pytest.raises(ParameterError):
            enc.sinusoidal_pe(np.zeros((2, 2)), 7)

    def test_too_few_channels_rejected(self):
        with pytest.raises(ParameterError):
            enc.sinusoidal_pe(np.zeros((2, 3)), 4)


class TestEncode:
    def test_zero_weights_zero_features(self):
        scene = small_scene()
        p = {k: np.zeros_like(v) for k, v in small_params().items()}
        tape = ad.Tape()
        f_p, f_i = enc.encode(scene, pstore.bind(tape, p))
        assert not f_p.value.any()
        assert not f_i.value.any()

    def test_output_shapes(self):
        scene = small_scene(n_points=16)
        tape = ad.Tape()
        f_p, f_i = enc.encode(scene, pstore.bind(tape, small_params(channels=8)))
        assert f_p.shape == (16, 8)
        assert f_i.shape == (64, 8)

    def test_texture_channel_uses_depth(self):
        for scene in (small_scene(), small_scene(seed=3, n_points=40, grid=(6, 9))):
            tex = enc.pixel_texture(scene)
            assert tex.shape == (scene.n_pixels,)
            assert (tex > 0).any()
            np.testing.assert_array_equal(tex, brute_force_texture(scene))

    def test_texture_tie_goes_to_lower_overlap_index(self):
        # pixel (3, 3) is 0.5 from both projections; the first overlapping
        # point wins even though it is the farther one
        proj = np.array([[np.nan, np.nan], [2.5, 3.0], [3.5, 3.0]])
        points = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 9.0], [0.0, 0.0, 4.0]])
        scene = sc.SceneSample(
            points=points, intrinsics=geo.CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 8, 8),
            raw_pose=geo.RigidPose.identity(), grid=(8, 8),
            point_overlap_gt=np.array([False, True, True]),
            pixel_overlap_gt=np.zeros(64, dtype=bool), gt_projection=proj)
        tex = enc.pixel_texture(scene)
        assert tex[3 * 8 + 3] == 9.0
        assert tex[3 * 8 + 4] == 4.0
        np.testing.assert_array_equal(tex, brute_force_texture(scene))

    def test_first_layer_gradient_matches_finite_differences(self):
        scene = small_scene()
        p0 = small_params()
        probe = np.random.default_rng(3).normal(size=(scene.n_points, 8))
        names = list(p0)

        def build(tensors):
            p = dict(zip(names, tensors))
            f_p, _ = enc.encode(scene, p)
            return ad.reduce(ad.mul(f_p, probe))

        err = ad.finite_difference_check(build, [p0[n] for n in names])
        assert err < 1e-4


class TestAttention:
    NAMES = ("blk.wq", "blk.wk", "blk.wv", "blk.wo")

    def weights(self, rng, channels):
        return [rng.normal(0.0, 1.0 / np.sqrt(channels), (channels, channels))
                for _ in self.NAMES]

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(20)
        wq, wk, wv, wo = self.weights(rng, 4)
        x, y = rng.normal(size=(3, 4)), rng.normal(size=(6, 4))
        out, weights = enc.attention(ad.constant(x), ad.constant(y),
                                     dict(zip(self.NAMES, map(ad.constant, (wq, wk, wv, wo)))),
                                     "blk")
        e = np.exp((x @ wq) @ (y @ wk).T / 2.0)
        a = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(weights.value, a, rtol=1e-13)
        np.testing.assert_allclose(out.value, a @ (y @ wv) @ wo, rtol=1e-12)

    def test_self_attention_gradients(self):
        rng = np.random.default_rng(21)
        x0, probe = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))

        def build(ps):
            out, _ = enc.attention(ps[0], ps[0], dict(zip(self.NAMES, ps[1:])), "blk")
            return ad.reduce(ad.mul(out, probe))

        assert ad.finite_difference_check(build, [x0, *self.weights(rng, 4)]) < 1e-6

    def test_cross_attention_gradients(self):
        rng = np.random.default_rng(22)
        x0, y0 = rng.normal(size=(3, 4)), rng.normal(size=(7, 4))
        probe = rng.normal(size=(3, 4))

        def build(ps):
            out, _ = enc.attention(ps[0], ps[1], dict(zip(self.NAMES, ps[2:])), "blk")
            return ad.reduce(ad.mul(out, probe))

        assert ad.finite_difference_check(build, [x0, y0, *self.weights(rng, 4)]) < 1e-6

    def test_large_scores_stay_finite(self):
        # scores reach about 1e5, far past exp overflow without the row shift
        rng = np.random.default_rng(23)
        tape = ad.Tape()
        x = tape.parameter(300.0 * rng.normal(size=(4, 4)))
        y = tape.parameter(300.0 * rng.normal(size=(6, 4)))
        p = {name: tape.parameter(w) for name, w in zip(self.NAMES, self.weights(rng, 4))}
        out, weights = enc.attention(x, y, p, "blk")
        assert np.all(np.isfinite(out.value))
        np.testing.assert_allclose(weights.value.sum(axis=1), 1.0, atol=1e-12)
        tape.backward(ad.reduce(out))
        for t in (x, y, *p.values()):
            assert np.all(np.isfinite(t.grad))

    def test_records_one_node_and_untracked_inputs_record_nothing(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(3, 4))
        weights = self.weights(rng, 4)
        tape = ad.Tape()
        p = {name: tape.parameter(w) for name, w in zip(self.NAMES, weights)}
        out, attn = enc.attention(ad.constant(x), ad.constant(x), p, "blk")
        assert [node.op for node in tape.nodes[4:]] == ["attention"]
        assert out.tape is tape and attn.tape is None
        consts = {name: ad.constant(w) for name, w in zip(self.NAMES, weights)}
        out_c, attn_c = enc.attention(ad.constant(x), ad.constant(x), consts, "blk")
        assert out_c.tape is None and attn_c.tape is None and len(tape.nodes) == 5
        np.testing.assert_array_equal(out_c.value, out.value)


class TestFuse:
    def test_zero_attention_weights_leave_residual_plus_ffn(self):
        scene = small_scene()
        p0 = small_params(seed=5)
        for name in list(p0):
            if ".self." in name or ".cross." in name:
                p0[name] = np.zeros_like(p0[name])
        tape = ad.Tape()
        p = pstore.bind(tape, p0)
        f_p, f_i = enc.encode(scene, p)
        out_p, out_i = enc.fuse(f_p, f_i, scene, p)
        expect_p = f_p.value + np.tanh(f_p.value @ p0["fuse.0.point.ffn.l1.w"]) \
            @ p0["fuse.0.point.ffn.l2.w"]
        np.testing.assert_allclose(out_p.value, expect_p, atol=1e-12)
        expect_i = f_i.value + np.tanh(f_i.value @ p0["fuse.0.pixel.ffn.l1.w"]) \
            @ p0["fuse.0.pixel.ffn.l2.w"]
        np.testing.assert_allclose(out_i.value, expect_i, atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        scene = small_scene()
        tape = ad.Tape()
        p = pstore.bind(tape, small_params(seed=6))
        f_p, f_i = enc.encode(scene, p)
        _, weights = enc.attention(f_p, f_i, p, "fuse.0.point.cross")
        np.testing.assert_allclose(weights.value.sum(axis=1), 1.0, atol=1e-12)

    def test_point_permutation_equivariance(self):
        scene = small_scene(seed=2, n_points=16)
        perm = np.random.default_rng(7).permutation(16)
        from dataclasses import replace
        permuted = replace(
            scene, points=scene.points[perm],
            point_overlap_gt=scene.point_overlap_gt[perm],
            gt_projection=scene.gt_projection[perm])
        p0 = small_params(seed=8)

        def run(s):
            tape = ad.Tape()
            p = pstore.bind(tape, p0)
            return [t.value for t in enc.fuse(*enc.encode(s, p), s, p)]

        base_p, base_i = run(scene)
        perm_p, perm_i = run(permuted)
        np.testing.assert_allclose(perm_p, base_p[perm], atol=1e-12)
        np.testing.assert_allclose(perm_i, base_i, atol=1e-12)

    def test_encode_fuse_gradient_matches_finite_differences(self):
        scene = small_scene()
        p0 = small_params(seed=9)
        rng = np.random.default_rng(10)
        probe_p = rng.normal(size=(scene.n_points, 8))
        probe_i = rng.normal(size=(scene.n_pixels, 8))
        names = list(p0)

        def build(tensors):
            p = dict(zip(names, tensors))
            out_p, out_i = enc.fuse(*enc.encode(scene, p), scene, p)
            return ad.add(ad.reduce(ad.mul(out_p, probe_p)),
                          ad.reduce(ad.mul(out_i, probe_i)))

        err = ad.finite_difference_check(build, [p0[n] for n in names])
        assert err < 1e-4


class TestParamsIO:
    def test_round_trip(self, tmp_path):
        p0 = small_params(seed=11)
        path = tmp_path / "m.nclp"
        pstore.save_params(p0, path)
        loaded = pstore.load_params(path)
        assert list(loaded) == list(p0)
        for name in p0:
            assert np.array_equal(loaded[name], p0[name])

    def test_shape_check(self):
        p0 = small_params(seed=12)
        template = dict(p0)
        bad = dict(p0)
        bad["point_enc.l1.w"] = np.zeros((4, 4))
        with pytest.raises(ConfigError):
            pstore.check_shapes(bad, template)
        with pytest.raises(ConfigError):
            pstore.check_shapes({k: v for k, v in p0.items() if "ffn" not in k}, template)

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "m.nclp"
        pstore.save_params({"w": np.ones((2, 3)), "bias": np.zeros((1, 2))}, path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ConfigError):
                pstore.load_params(path)

    def test_non_utf8_name_rejected(self, tmp_path):
        path = tmp_path / "m.nclp"
        pstore.save_params({"w": np.ones((1, 1))}, path)
        path.write_bytes(path.read_bytes().replace(b"w", b"\xff"))
        with pytest.raises(ConfigError, match="UTF-8"):
            pstore.load_params(path)

    def test_save_rejects_non_matrix_before_writing(self, tmp_path):
        path = tmp_path / "m.nclp"
        with pytest.raises(ParameterError, match="'b'"):
            pstore.save_params({"w": np.ones((2, 2)), "b": np.ones(3)}, path)
        assert not path.exists()
