import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from neucalib import autodiff as ad
from neucalib import encoder as enc
from neucalib import geometry as geo
from neucalib import params as pstore
from neucalib import scene as sc
from neucalib.errors import ConfigError, ParameterError, ShapeError
from tape_probe import finite_difference_check, weighted_sum


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
        pe = enc._sinusoidal_pe(np.zeros((1, 1)), 8)
        np.testing.assert_array_equal(pe[0, 0::2], 0.0)
        np.testing.assert_array_equal(pe[0, 1::2], 1.0)

    def test_bounded(self):
        rng = np.random.default_rng(1)
        pe = enc._sinusoidal_pe(rng.uniform(-50, 50, (64, 3)), 30)
        assert np.all(pe >= -1.0) and np.all(pe <= 1.0)

    def test_distinct_rows_on_grid(self):
        centers = sc.pixel_centers((8, 8))
        pe = enc._sinusoidal_pe(centers, 16)
        for i in range(len(pe)):
            for j in range(i + 1, len(pe)):
                assert not np.allclose(pe[i], pe[j], atol=1e-9), (i, j)


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
            tex = enc._pixel_texture(scene)
            assert tex.shape == (scene.n_pixels,)
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
        tex = enc._pixel_texture(scene)
        assert tex[3 * 8 + 3] == 12.0
        assert tex[3 * 8 + 4] == 6.0
        np.testing.assert_array_equal(tex, brute_force_texture(scene))

    def test_first_layer_gradient_matches_finite_differences(self):
        scene = small_scene()
        p0 = small_params()
        probe = np.random.default_rng(3).normal(size=(scene.n_points, 8))
        names = list(p0)

        def build(tensors):
            p = dict(zip(names, tensors))
            f_p, _ = enc.encode(scene, p)
            return weighted_sum(f_p, probe)

        err = finite_difference_check(build, [p0[n] for n in names])
        assert err < 1e-4


def attention_row_sums(query, keys, pe_q, pe_k, p, name):
    """Row sums of the attention weights, read off the attention output.

    Every array gets one more channel. The keys' new channel is all ones,
    with a zero encoding, and only the value projection reads it: wq and wk
    gain a zero row and column, so the scores do not change (wq is scaled by
    sqrt((C + 1) / C) against the wider 1 / sqrt(C + 1)), and wv is zero but
    for a ones row, so every value row is all ones. With wo the identity,
    every entry of an output row less its residual is its weight row's sum.
    """
    wq, wk = p[name + ".wq"].value, p[name + ".wk"].value
    channels = wq.shape[0]

    def grow(a, fill=0.0):
        return np.hstack([a, np.full((a.shape[0], 1), fill)])

    def pad(w):
        return np.pad(w, ((0, 1), (0, 1)))

    ones_row = np.zeros((channels + 1, channels + 1))
    ones_row[-1] = 1.0
    probe = {name + ".wq": pad(wq) * np.sqrt((channels + 1) / channels),
             name + ".wk": pad(wk), name + ".wv": ones_row,
             name + ".wo": np.eye(channels + 1)}
    out = enc._attention(ad.constant(grow(query.value)), ad.constant(grow(keys.value, 1.0)),
                        grow(pe_q), grow(pe_k), {k: ad.constant(v) for k, v in probe.items()},
                        name)
    return (out.value - grow(query.value))[:, :channels]


def two_step_sublayer(f, h, pe_q, pe_k, ws, g):
    """query + A v wo, with A the row softmax of the whole scaled score
    matrix, and the gradients of sum(g * out) at (query, keys, wq, wk, wv,
    wo) back through A: dA = G v^T, dS = c A (dA - rowsum(dA * A))."""
    wq, wk, wv, wo = ws
    c = 1.0 / np.sqrt(wq.shape[0])
    x, y = f + pe_q, h + pe_k
    q, k, v = x @ wq, y @ wk, y @ wv
    s = (q @ k.T) * c
    e = np.exp(s - s.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)
    av = a @ v
    gv = g @ wo.T
    da = gv @ v.T
    ds = c * a * (da - (da * a).sum(axis=1, keepdims=True))
    dq, dk, dv = ds @ k, ds.T @ q, a.T @ gv
    grads = (dq @ wq.T + g, dk @ wk.T + dv @ wv.T, x.T @ dq, y.T @ dk, y.T @ dv, av.T @ g)
    return f + av @ wo, grads


@pytest.fixture
def float64_backward(monkeypatch):
    """Attention's backward in float64: a check of the float64 derivation
    keeps its float64 tolerance and runs the lines the library runs in
    float32."""
    monkeypatch.setattr(enc, "BACKWARD_DTYPE", np.float64)


FLOAT64_BACKWARD = pytest.mark.usefixtures("float64_backward")


def relative_error(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestAttention:
    NAMES = ("blk.wq", "blk.wk", "blk.wv", "blk.wo")

    def weights(self, rng, channels):
        return [rng.normal(0.0, 1.0 / np.sqrt(channels), (channels, channels))
                for _ in self.NAMES]

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(20)
        wq, wk, wv, wo = self.weights(rng, 4)
        f, h = rng.normal(size=(3, 4)), rng.normal(size=(6, 4))
        pe_q, pe_k = rng.normal(size=(3, 4)), rng.normal(size=(6, 4))
        out = enc._attention(ad.constant(f), ad.constant(h), pe_q, pe_k,
                            dict(zip(self.NAMES, map(ad.constant, (wq, wk, wv, wo)))), "blk")
        x, y = f + pe_q, h + pe_k
        e = np.exp((x @ wq) @ (y @ wk).T / 2.0)
        a = e / e.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out.value, f + a @ (y @ wv) @ wo, rtol=1e-12)

    @FLOAT64_BACKWARD
    @pytest.mark.parametrize("self_attention", [True, False])
    def test_matches_the_two_step_sublayer(self, self_attention):
        # the two-step softmax, then A v, with its hand gradient through A;
        # the node normalises A v and recomputes A, so 1e-12 relative
        rng = np.random.default_rng(25)
        ws = self.weights(rng, 8)
        f, pe_q, g = (rng.normal(size=(5, 8)) for _ in range(3))
        h, pe_k = (f, pe_q) if self_attention else (rng.normal(size=(7, 8)),
                                                    rng.normal(size=(7, 8)))
        want_value, want_grads = two_step_sublayer(f, h, pe_q, pe_k, ws, g)
        if self_attention:
            want_grads = (want_grads[0] + want_grads[1], *want_grads[2:])
        tape = ad.Tape()
        query = tape.parameter(f)
        keys = query if self_attention else tape.parameter(h)
        p = {name: tape.parameter(w) for name, w in zip(self.NAMES, ws)}
        out = enc._attention(query, keys, pe_q, pe_k, p, "blk")
        tape.backward(weighted_sum(out, g))
        inputs = (query,) if self_attention else (query, keys)
        assert relative_error(out.value, want_value) < 1e-12
        for t, want in zip((*inputs, *p.values()), want_grads, strict=True):
            assert relative_error(t.grad, want) < 1e-12

    @FLOAT64_BACKWARD
    def test_self_attention_gradients(self):
        rng = np.random.default_rng(21)
        x0, pe, probe = (rng.normal(size=(5, 4)) for _ in range(3))

        def build(ps):
            out = enc._attention(ps[0], ps[0], pe, pe, dict(zip(self.NAMES, ps[1:])), "blk")
            return weighted_sum(out, probe)

        assert finite_difference_check(build, [x0, *self.weights(rng, 4)]) < 1e-6

    @FLOAT64_BACKWARD
    def test_cross_attention_gradients(self):
        rng = np.random.default_rng(22)
        x0, y0 = rng.normal(size=(3, 4)), rng.normal(size=(7, 4))
        pe_q, pe_k = rng.normal(size=(3, 4)), rng.normal(size=(7, 4))
        probe = rng.normal(size=(3, 4))

        def build(ps):
            out = enc._attention(ps[0], ps[1], pe_q, pe_k, dict(zip(self.NAMES, ps[2:])), "blk")
            return weighted_sum(out, probe)

        assert finite_difference_check(build, [x0, y0, *self.weights(rng, 4)]) < 1e-6

    def test_node_keeps_no_query_by_key_array(self):
        # 9 x 11 = 99 entries; every N x C and M x C array here, and each
        # buffer that a kept view holds alive, is smaller
        rng = np.random.default_rng(26)
        tape = ad.Tape()
        x = tape.parameter(rng.normal(size=(9, 2)))
        y = tape.parameter(rng.normal(size=(11, 2)))
        p = {name: tape.parameter(w) for name, w in zip(self.NAMES, self.weights(rng, 2))}
        enc._attention(x, y, rng.normal(size=(9, 2)), rng.normal(size=(11, 2)), p, "blk")
        kept = [cell.cell_contents for cell in tape.nodes[-1].backward_fn.__closure__]
        arrays = [a for a in kept if isinstance(a, np.ndarray)]
        assert len(arrays) >= 10
        buffers = arrays + [a.base for a in arrays if a.base is not None]
        assert all(a.size < 9 * 11 for a in buffers)

    def test_large_scores_stay_finite(self):
        # scores reach about 1e5, far past exp overflow without the row shift
        rng = np.random.default_rng(23)
        tape = ad.Tape()
        x = tape.parameter(300.0 * rng.normal(size=(4, 4)))
        y = tape.parameter(300.0 * rng.normal(size=(6, 4)))
        pe_q, pe_k = rng.normal(size=(4, 4)), rng.normal(size=(6, 4))
        p = {name: tape.parameter(w) for name, w in zip(self.NAMES, self.weights(rng, 4))}
        out = enc._attention(x, y, pe_q, pe_k, p, "blk")
        assert np.all(np.isfinite(out.value))
        np.testing.assert_allclose(attention_row_sums(x, y, pe_q, pe_k, p, "blk"), 1.0,
                                   atol=1e-12)
        tape.backward(weighted_sum(out))
        for t in (x, y, *p.values()):
            assert np.all(np.isfinite(t.grad))

    def limit_probe(self, seed, bound):
        """Weights and (query, keys, encodings) of a cross-attention probe
        whose score bound C max|q| max|k| is ``bound`` while its scores stay
        of order one: wq and wk are the identity, the encodings put
        q[:, 0] = t / 2 and k[:, 0] = 0, and t sets the bound."""
        rng = np.random.default_rng(seed)
        ws = [np.eye(4), np.eye(4), *self.weights(rng, 4)[2:]]
        f, pe_q = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        h, pe_k = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        pe_k[:, 0] = -h[:, 0]
        t = bound / (2.0 * np.abs(h + pe_k).max())
        pe_q[:, 0] = t - f[:, 0]
        q, k = (f + pe_q) @ ws[0] / 2.0, (h + pe_k) @ ws[1]
        assert 4 * np.abs(q).max() * np.abs(k).max() == pytest.approx(bound, rel=1e-12)
        assert np.abs(q @ k.T).max() < 10.0
        return ws, (f, h, pe_q, pe_k)

    def sublayer(self, ws, f, h, pe_q, pe_k, g):
        """The sublayer's value and its (query, keys, wq, wk, wv, wo)
        gradients of sum(g * out)."""
        tape = ad.Tape()
        query, keys = tape.parameter(f), tape.parameter(h)
        p = {name: tape.parameter(w) for name, w in zip(self.NAMES, ws)}
        out = enc._attention(query, keys, pe_q, pe_k, p, "blk")
        tape.backward(weighted_sum(out, g))
        return out.value, [t.grad for t in (query, keys, *p.values())]

    def check_against_two_step(self, ws, f, h, pe_q, pe_k):
        """The sublayer's value and gradients, and the two-step sublayer's."""
        g = np.random.default_rng(28).normal(size=f.shape)
        return self.sublayer(ws, f, h, pe_q, pe_k, g), two_step_sublayer(f, h, pe_q, pe_k, ws, g)

    LIMIT_SIDES = pytest.mark.parametrize("bound", [0.98 * enc.EXP_LIMIT, 1.02 * enc.EXP_LIMIT],
                                          ids=["below_limit", "past_limit"])

    @FLOAT64_BACKWARD
    @LIMIT_SIDES
    def test_both_sides_of_the_shift_limit_match_the_two_step_sublayer(self, bound):
        # below the limit the exps are taken unshifted, past it each row is
        # shifted by its max; the scores are the same on both sides
        ws, inputs = self.limit_probe(27, bound)
        (value, grads), (want_value, want_grads) = self.check_against_two_step(ws, *inputs)
        assert relative_error(value, want_value) < 1e-12
        for got, want in zip(grads, want_grads, strict=True):
            assert relative_error(got, want) < 1e-12

    @LIMIT_SIDES
    def test_gradients_on_both_sides_of_the_shift_limit(self, bound):
        ws, (f, h, pe_q, pe_k) = self.limit_probe(29, bound)
        probe = np.random.default_rng(30).normal(size=f.shape)

        def build(ps):
            out = enc._attention(ps[0], ps[1], pe_q, pe_k, dict(zip(self.NAMES, ps[2:])), "blk")
            return weighted_sum(out, probe)

        assert finite_difference_check(build, [f, h, *ws]) < 1e-6

    @FLOAT64_BACKWARD
    def test_scores_far_past_the_limit_match_the_two_step_sublayer(self):
        # inputs x300 put scores near 4e5, where the rounding of the scores
        # alone, eps max|s|, moves A and so every gradient by about that
        # much of the largest gradient entry; a kernel that subtracts L in
        # its own pass differs from the two-step sublayer by as much
        rng = np.random.default_rng(27)
        ws = self.weights(rng, 4)
        f, h = 300.0 * rng.normal(size=(3, 4)), 300.0 * rng.normal(size=(5, 4))
        pe_q, pe_k = 300.0 * rng.normal(size=(3, 4)), 300.0 * rng.normal(size=(5, 4))
        (value, grads), (want_value, want_grads) = self.check_against_two_step(
            ws, f, h, pe_q, pe_k)
        scores = ((f + pe_q) @ ws[0] / 2.0) @ ((h + pe_k) @ ws[1]).T
        assert np.abs(scores).max() > 1e5
        assert relative_error(value, want_value) < 1e-12
        largest = max(np.abs(want).max() for want in want_grads)
        tolerance = np.finfo(float).eps * np.abs(scores).max() * largest
        for got, want in zip(grads, want_grads, strict=True):
            assert np.abs(got - want).max() < tolerance

    def benchmark_sized_probe(self, bound):
        """Weights, inputs and output gradient of a benchmark-like
        cross-attention, 256 queries and 288 keys at the benchmarks' C = 32,
        with the query inputs scaled so that the score bound C max|q| max|k|
        is ``bound``; also the largest |score|."""
        n, m, ch = 256, 288, 32
        rng = np.random.default_rng(32)
        ws = self.weights(rng, ch)
        f, pe_q, g = (rng.normal(size=(n, ch)) for _ in range(3))
        h, pe_k = rng.normal(size=(m, ch)), rng.normal(size=(m, ch))
        q, k = (f + pe_q) @ ws[0] / np.sqrt(ch), (h + pe_k) @ ws[1]
        scale = bound / (ch * np.abs(q).max() * np.abs(k).max())
        return (ws, scale * f, h, scale * pe_q, pe_k, g), scale * np.abs(q @ k.T).max()

    def sublayer_per_backward_dtype(self, monkeypatch, args):
        """The sublayer's value and gradients with the backward in float64,
        then in float32."""
        runs = []
        for dtype in (np.float64, np.float32):
            monkeypatch.setattr(enc, "BACKWARD_DTYPE", dtype)
            runs.append(self.sublayer(*args))
        return runs

    @LIMIT_SIDES
    def test_float32_backward_matches_float64_at_benchmark_size(self, bound, monkeypatch):
        # The float32 backward rounds each exponent [q | -L] [k | 1]^T, whose
        # two parts cancel: an absolute error of a few float32 eps times
        # |s| + |L|, and L = log rowsum(exp(s)) reaches max|s| + log M. So
        # each recomputed A entry, and through A each gradient, moves by about
        # eps32 (2 max|s| + log M) of its size. The probe's largest scores are
        # 31 and 33, where 1.5e-6 to 3.6e-6 was measured against a tolerance
        # of 3.3e-5; the factor 4 leaves room for other draws and BLAS builds
        args, largest_score = self.benchmark_sized_probe(bound)
        (_, want), (_, got) = self.sublayer_per_backward_dtype(monkeypatch, args)
        tolerance = 4 * np.finfo(np.float32).eps * (2 * largest_score + np.log(288))
        assert 10.0 < largest_score < bound / 10.0
        for have, exact in zip(got, want, strict=True):
            assert have.dtype == np.float64
            assert relative_error(have, exact) < tolerance
        assert not np.array_equal(got[0], want[0])  # the float32 path ran

    @LIMIT_SIDES
    def test_backward_dtype_never_reaches_the_value(self, bound, monkeypatch):
        args, _ = self.benchmark_sized_probe(bound)
        (want, _), (got, _) = self.sublayer_per_backward_dtype(monkeypatch, args)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("change", ["pe_q", "pe_k", "wq", "wv", "wo", "keys"])
    def test_mismatched_shapes_rejected(self, change):
        # numpy raised ValueError for a wrong encoding, and matmul for a weight
        rng = np.random.default_rng(31)
        args = {"query": rng.normal(size=(3, 4)), "keys": rng.normal(size=(5, 4)),
                "pe_q": rng.normal(size=(3, 4)), "pe_k": rng.normal(size=(5, 4))}
        p = dict(zip(self.NAMES, self.weights(rng, 4)))
        if change in ("pe_q", "pe_k", "keys"):
            args[change] = rng.normal(size=(args[change].shape[0], 5))
        else:
            p[f"blk.{change}"] = rng.normal(size=(4, 5) if change == "wq" else (5, 4))
        with pytest.raises(ShapeError):
            enc._attention(ad.constant(args["query"]), ad.constant(args["keys"]), args["pe_q"],
                          args["pe_k"], {k: ad.constant(v) for k, v in p.items()}, "blk")

    def test_records_one_node_and_untracked_inputs_record_nothing(self):
        rng = np.random.default_rng(24)
        x, pe = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        weights = self.weights(rng, 4)
        tape = ad.Tape()
        p = {name: tape.parameter(w) for name, w in zip(self.NAMES, weights)}
        out = enc._attention(ad.constant(x), ad.constant(x), pe, pe, p, "blk")
        assert [node.op for node in tape.nodes[4:]] == ["attention"]
        assert out.tape is tape
        consts = {name: ad.constant(w) for name, w in zip(self.NAMES, weights)}
        out_c = enc._attention(ad.constant(x), ad.constant(x), pe, pe, consts, "blk")
        assert out_c.tape is None and len(tape.nodes) == 5
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
        pe_p = enc._sinusoidal_pe(scene.points, 8)
        pe_i = enc._sinusoidal_pe(sc.pixel_centers(scene.grid), 8)
        np.testing.assert_allclose(
            attention_row_sums(f_p, f_i, pe_p, pe_i, p, "fuse.0.point.cross"), 1.0, atol=1e-12)

    def test_pixel_encodings_are_shared_and_read_only(self):
        # fuse reads them for every step on a grid; they depend on the grid alone
        pe = enc._pixel_pe((6, 9), 8)
        assert pe is enc._pixel_pe((6, 9), 8)
        assert not pe.flags.writeable
        assert np.array_equal(pe, enc._sinusoidal_pe(sc.pixel_centers((6, 9)), 8))
        assert enc._pixel_pe((9, 6), 8).shape == (54, 8)

    def test_point_permutation_equivariance(self):
        scene = small_scene(seed=2, n_points=16)
        perm = np.random.default_rng(7).permutation(16)
        from dataclasses import replace
        permuted = replace(scene, points=scene.points[perm])
        p0 = small_params(seed=8)

        def run(s):
            tape = ad.Tape()
            p = pstore.bind(tape, p0)
            return [t.value for t in enc.fuse(*enc.encode(s, p), s, p)]

        base_p, base_i = run(scene)
        perm_p, perm_i = run(permuted)
        np.testing.assert_allclose(perm_p, base_p[perm], atol=1e-12)
        np.testing.assert_allclose(perm_i, base_i, atol=1e-12)

    @FLOAT64_BACKWARD
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
            return ad.add(weighted_sum(out_p, probe_p), weighted_sum(out_i, probe_i))

        err = finite_difference_check(build, [p0[n] for n in names])
        assert err < 1e-4


@st.composite
def param_stores(draw):
    """A dict that save_params may be handed: UTF-8 names and others, and
    arrays of any dimension, real or not, with NaN and inf, empty ones
    whose zero-length side hides a side too long for the format, ragged
    lists and strings."""
    names = st.text(max_size=6) | st.sampled_from(["\ud800", 1, None, b"w"])
    values = (
        hnp.arrays(st.sampled_from([np.float64, np.float32, np.float16, ">f8", np.int64,
                                    np.uint8, np.bool_, np.complex128]),
                   hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
        | st.sampled_from([(2**32, 0), (0, 2**32), (0, 0), (3, 0)]).map(np.zeros)
        | st.lists(st.lists(st.floats(), max_size=3), max_size=3)
        | st.text(max_size=3))
    return draw(st.dictionaries(names, values, max_size=4))


class TestParamsIO:
    @settings(max_examples=300)
    @given(param_stores())
    def test_saved_params_read_back_equal(self, tmp_path_factory, params):
        """Whatever save_params accepts, load_params reads back with the same
        names in the same order and the same float64 values, NaN equal to NaN."""
        path = tmp_path_factory.getbasetemp() / "symmetry.nclp"
        try:
            pstore.save_params(params, path)
        except ParameterError:
            return
        loaded = pstore.load_params(path)
        assert list(loaded) == list(params)
        for name, value in params.items():
            assert loaded[name].dtype == np.float64
            assert np.array_equal(loaded[name], np.asarray(value, dtype=np.float64),
                                  equal_nan=True)

    def test_side_too_long_for_the_format_rejected(self, tmp_path):
        # an empty array can have a side of 2**32, which struct.pack refused
        for shape in [(2**32, 0), (0, 2**32)]:
            with pytest.raises(ParameterError, match="2\\*\\*32"):
                pstore.save_params({"w": np.zeros(shape)}, tmp_path / "m.nclp")
        assert not (tmp_path / "m.nclp").exists()

    def test_round_trip(self, tmp_path):
        p0 = small_params(seed=11)
        path = tmp_path / "m.nclp"
        pstore.save_params(p0, path)
        loaded = pstore.load_params(path)
        assert list(loaded) == list(p0)
        for name in p0:
            assert np.array_equal(loaded[name], p0[name])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            pstore.load_params(tmp_path / "gone.nclp")

    @pytest.mark.parametrize("case", ["load_nul_byte", "save_missing_parent"])
    def test_unusable_path_rejected(self, tmp_path, case):
        calls = {
            "load_nul_byte": lambda: pstore.load_params("a\0b"),
            "save_missing_parent": lambda: pstore.save_params(
                {"w": np.ones((1, 1))}, tmp_path / "gone" / "m.nclp"),
        }
        with pytest.raises(ConfigError, match="cannot"):
            calls[case]()

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

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 255)), max_size=8),
           st.one_of(st.none(), st.integers(0, 10 ** 6)))
    def test_corrupted_bytes_rejected_or_loaded_as_matrices(self, tmp_path_factory, edits, cut):
        """A mutated or truncated file either fails to load with ConfigError
        or loads into 2-D float64 arrays; nothing else escapes."""
        path = tmp_path_factory.getbasetemp() / "fuzz.nclp"
        pstore.save_params({"w": np.ones((2, 3)), "b": np.full((1, 2), -0.5),
                            "empty": np.zeros((0, 4))}, path)
        blob = bytearray(path.read_bytes())
        for pos, byte in edits:
            blob[pos % len(blob)] = byte
        if cut is not None:
            blob = blob[:cut % (len(blob) + 1)]
        path.write_bytes(bytes(blob))
        try:
            loaded = pstore.load_params(path)
        except ConfigError:
            return
        for arr in loaded.values():
            assert arr.ndim == 2 and arr.dtype == np.float64

    def test_non_utf8_name_rejected(self, tmp_path):
        path = tmp_path / "m.nclp"
        pstore.save_params({"w": np.ones((1, 1))}, path)
        path.write_bytes(path.read_bytes().replace(b"w", b"\xff"))
        with pytest.raises(ConfigError, match="UTF-8"):
            pstore.load_params(path)

    def test_repeated_name_rejected(self, tmp_path):
        # two records both named "a": loading must not keep only the last
        path = tmp_path / "m.nclp"
        pstore.save_params({"a": np.ones((1, 1)), "b": np.full((1, 1), 2.0)}, path)
        blob = path.read_bytes()
        assert blob.count(b"b") == 1
        path.write_bytes(blob.replace(b"b", b"a"))
        with pytest.raises(ConfigError, match="repeats the name 'a'"):
            pstore.load_params(path)

    def test_save_rejects_non_matrix_before_writing(self, tmp_path):
        path = tmp_path / "m.nclp"
        with pytest.raises(ParameterError, match="'b'"):
            pstore.save_params({"w": np.ones((2, 2)), "b": np.ones(3)}, path)
        assert not path.exists()

    @pytest.mark.parametrize("entry", [("\ud800", np.ones((2, 2))), ("b", [["x"]]),
                                       ("b", np.ones((2, 2)) * 1j), ("b", [[1.0, 2.0], [3.0]]),
                                       (3, np.ones((2, 2)))],
                             ids=["surrogate_name", "strings", "complex", "ragged", "int_name"])
    def test_save_rejects_unwritable_entry_before_writing(self, tmp_path, entry):
        path = tmp_path / "m.nclp"
        with pytest.raises(ParameterError):
            pstore.save_params({"w": np.ones((2, 2)), entry[0]: entry[1]}, path)
        assert not path.exists()
