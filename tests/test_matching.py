import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neucalib import autodiff as ad
from neucalib import matching as mt
from neucalib import scene as sc
from neucalib.errors import (DegenerateBatchError, DomainError, NeucalibError,
                             NormalizationError, ParameterError, ShapeError)
from tape_probe import finite_difference_check, weighted_sum


def unit_rows(rng, n, c):
    f = rng.normal(size=(n, c))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


def make_transform(tape, channels, temperature=1.0, raw=None):
    if raw is None:
        raw = np.eye(channels)
    return mt.AlignmentTransform(tape.parameter(raw), temperature)


def pairset(pos, neg):
    """Pair lists from dense N x M positive and negative masks, as flat
    indices into the block of the overlapping points' rows.

    A point with any positive or negative counts as overlapping; its near
    list is every pixel that is not a negative, so entries in neither mask
    form the annulus.
    """
    pos = np.asarray(pos, dtype=bool)
    neg = np.asarray(neg, dtype=bool)
    assert not (pos & neg).any(), "a pair cannot be both positive and negative"
    overlap = np.flatnonzero(pos.any(axis=1) | neg.any(axis=1))
    near = np.zeros_like(neg)
    near[overlap] = ~neg[overlap]
    return sc.PairSet(overlap, pos.shape[1], np.flatnonzero(pos[overlap]),
                      np.flatnonzero(near[overlap]), 0, 0)


class TestSimilarity:
    def test_identity_transform_equals_cosine(self):
        rng = np.random.default_rng(0)
        f_p, f_i = rng.normal(size=(5, 8)), rng.normal(size=(7, 8))
        tape = ad.Tape()
        t = make_transform(tape, 8, temperature=0.5)
        learn = mt.similarity(ad.constant(f_p), ad.constant(f_i), t, "learnable")
        cosine = mt.similarity(ad.constant(f_p), ad.constant(f_i), t, "cosine")
        assert np.array_equal(learn.value, cosine.value)

    def test_identical_features_at_paper_temperature(self):
        f = unit_rows(np.random.default_rng(1), 1, 8)
        tape = ad.Tape()
        t = make_transform(tape, 8, temperature=0.07)
        out = mt.similarity(ad.constant(f), ad.constant(f), t, "learnable")
        assert out.value[0, 0] == pytest.approx(1.0 / 0.07, rel=1e-12)

    def test_transpose_symmetry_in_learnable_mode(self):
        rng = np.random.default_rng(2)
        f_p, f_i = rng.normal(size=(4, 6)), rng.normal(size=(5, 6))
        tape = ad.Tape()
        t = make_transform(tape, 6, raw=rng.normal(size=(6, 6)))
        ab = mt.similarity(ad.constant(f_p), ad.constant(f_i), t, "learnable")
        ba = mt.similarity(ad.constant(f_i), ad.constant(f_p), t, "learnable")
        np.testing.assert_allclose(ab.value, ba.value.T, atol=1e-14)

    def test_effective_transform_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        tape = ad.Tape()
        t = make_transform(tape, 6, raw=rng.normal(size=(6, 6)))
        w = t.matrix()
        assert np.max(np.abs(w - w.T)) == 0.0

    @pytest.mark.parametrize("mode", mt.ALIGNMENT_MODES)
    def test_gradients_match_central_differences(self, mode):
        # a non-symmetric raw B: only its symmetric part may reach the logits
        rng = np.random.default_rng(4)
        f_p0, f_i0 = rng.normal(size=(4, 5)), rng.normal(size=(6, 5))
        raw0 = np.eye(5) + rng.normal(scale=0.5, size=(5, 5))
        probe = rng.normal(size=(4, 6))

        def build(ps):
            t = mt.AlignmentTransform(ps[2], 0.3)
            return weighted_sum(mt.similarity(ps[0], ps[1], t, mode), probe)

        assert finite_difference_check(build, [f_p0, f_i0, raw0]) < 1e-6

    def test_raw_gradient_is_symmetric_and_cosine_leaves_it_untouched(self):
        rng = np.random.default_rng(5)
        f_p, f_i = rng.normal(size=(4, 5)), rng.normal(size=(6, 5))
        for mode in mt.ALIGNMENT_MODES:
            tape = ad.Tape()
            t = make_transform(tape, 5, raw=rng.normal(size=(5, 5)))
            logits = mt.similarity(tape.parameter(f_p), tape.parameter(f_i), t, mode)
            assert [node.op for node in tape.nodes[3:]] == ["similarity"]
            tape.backward(weighted_sum(logits, rng.normal(size=(4, 6))))
            if mode == "cosine":
                assert t.raw.grad is None
            else:
                assert np.array_equal(t.raw.grad, t.raw.grad.T)

    def test_untracked_inputs_record_nothing(self):
        rng = np.random.default_rng(6)
        f_p, f_i = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        tape = ad.Tape()
        t = make_transform(tape, 4, raw=rng.normal(size=(4, 4)))
        tracked = mt.similarity(ad.constant(f_p), ad.constant(f_i), t)
        assert [node.op for node in tape.nodes] == ["leaf", "similarity"]
        const_t = mt.AlignmentTransform(ad.constant(t.raw.value), 1.0)
        const = mt.similarity(ad.constant(f_p), ad.constant(f_i), const_t)
        assert const.tape is None and len(tape.nodes) == 2
        np.testing.assert_array_equal(const.value, tracked.value)

    def test_channel_mismatch_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ShapeError):
            mt.similarity(ad.constant(np.ones((2, 4))), ad.constant(np.ones((3, 4))),
                          make_transform(tape, 5))
        with pytest.raises(ShapeError):
            mt.similarity(ad.constant(np.ones((2, 4))), ad.constant(np.ones((3, 5))),
                          make_transform(tape, 4), "cosine")

    @pytest.mark.parametrize("temperature", [0.0, -0.07, math.nan])
    def test_temperature_must_be_positive(self, temperature):
        with pytest.raises(ParameterError):
            mt.AlignmentTransform(ad.constant(np.eye(2)), temperature)

    @pytest.mark.parametrize("temperature", [math.inf, "0.07", None, 0.07j, np.ones(1)])
    def test_temperature_must_be_a_finite_real_scalar(self, temperature):
        with pytest.raises(ParameterError, match="temperature"):
            mt.AlignmentTransform(ad.constant(np.eye(2)), temperature)

    def test_temperature_cannot_be_set_after_its_check(self):
        transform = mt.AlignmentTransform(ad.constant(np.eye(2)), 0.07)
        with pytest.raises(FrozenInstanceError):
            transform.temperature = -1.0
        assert transform.temperature == 0.07

    def test_zero_norm_row_rejected(self):
        f = np.zeros((2, 4))
        f[0] = [1, 0, 0, 0]
        for what, args in (("point", (f, np.ones((3, 4)))), ("pixel", (np.ones((3, 4)), f))):
            with pytest.raises(NormalizationError,
                               match=f"^zero-norm {what} feature row at index 1$"):
                mt.similarity(*map(ad.constant, args), make_transform(ad.Tape(), 4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        f = np.ones((3, 4))
        f[2, 1] = bad
        for what, args in (("point", (f, np.ones((2, 4)))), ("pixel", (np.ones((2, 4)), f))):
            with pytest.raises(NormalizationError,
                               match=f"^non-finite {what} feature row at index 2$"):
                mt.similarity(*map(ad.constant, args), make_transform(ad.Tape(), 4))

    @pytest.mark.parametrize("mode", mt.ALIGNMENT_MODES)
    def test_value_is_logits_of_rows_over_root_of_row_sum(self, mode):
        rng = np.random.default_rng(20)
        f_p, f_i = rng.normal(size=(6, 7)) * 3.0, rng.normal(size=(5, 7)) * 0.2
        t = make_transform(ad.Tape(), 7, temperature=0.3, raw=rng.normal(size=(7, 7)))
        x = f_p / np.sqrt((f_p * f_p).sum(axis=1, keepdims=True))
        y = f_i / np.sqrt((f_i * f_i).sum(axis=1, keepdims=True))
        xw = x @ t.matrix() if mode == "learnable" else x
        out = mt.similarity(ad.constant(f_p), ad.constant(f_i), t, mode).value
        assert np.array_equal(out, (xw * (1.0 / 0.3)) @ y.T)

    @pytest.mark.parametrize("mode", mt.ALIGNMENT_MODES)
    def test_gradient_pulls_back_through_row_norms(self, mode):
        # rows with norms from about 0.05 to 20, so that the pull-back
        # through each row's norm carries weight
        rng = np.random.default_rng(18)
        f_p0 = rng.normal(size=(4, 5)) * np.array([[0.05], [0.7], [4.0], [20.0]])
        f_i0 = rng.normal(size=(3, 5)) * np.array([[9.0], [0.1], [1.5]])
        raw0 = np.eye(5) + rng.normal(scale=0.5, size=(5, 5))
        probe = rng.normal(size=(4, 3))

        def build(ps):
            t = mt.AlignmentTransform(ps[2], 0.3)
            return weighted_sum(mt.similarity(ps[0], ps[1], t, mode), probe)

        assert finite_difference_check(build, [f_p0, f_i0, raw0]) < 1e-6


DIRECTIONS = ("point_to_pixel", "pixel_to_point")


class TestInfoNCE:
    def test_equal_logits_gives_log_one_plus_k(self):
        for k in (1, 3, 9):
            logits = ad.constant(np.zeros((1, k + 1)))
            pos = np.zeros((1, k + 1), dtype=bool)
            neg = np.zeros((1, k + 1), dtype=bool)
            pos[0, 0] = True
            neg[0, 1:] = True
            loss = mt.infonce_loss(logits, pairset(pos, neg))
            assert loss.item() == pytest.approx(math.log(1 + k), abs=1e-12)

    def test_saturates_to_zero_as_positive_grows(self):
        losses = []
        for logit in (5.0, 10.0, 20.0):
            vals = np.array([[logit, 0.0, 0.0]])
            pos = np.array([[True, False, False]])
            neg = np.array([[False, True, True]])
            losses.append(mt.infonce_loss(ad.constant(vals), pairset(pos, neg)).item())
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-8

    def test_two_anchor_hand_computed(self):
        # manual scalar computation, frozen to 1e-12:
        # anchor 0: pos logit 2.0, negs {0.5, -1.0}
        # anchor 1: pos logit 3.0, neg {0.0}
        t0 = -math.log(math.exp(2.0) / (math.exp(2.0) + math.exp(0.5) + math.exp(-1.0)))
        t1 = -math.log(math.exp(3.0) / (math.exp(3.0) + math.exp(0.0)))
        expected = (t0 + t1) / 2.0
        assert expected == pytest.approx(0.14494932411544953, abs=1e-14)

        vals = np.array([[2.0, 0.5, -1.0], [0.0, 1.0, 3.0]])
        pos = np.array([[True, False, False], [False, False, True]])
        neg = np.array([[False, True, True], [True, False, False]])
        loss = mt.infonce_loss(ad.constant(vals), pairset(pos, neg))
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_multiple_positives_one_term_each(self):
        vals = np.array([[1.0, 2.0, -0.5]])
        pos = np.array([[True, True, False]])
        neg = np.array([[False, False, True]])
        t_a = -math.log(math.exp(1.0) / (math.exp(1.0) + math.exp(-0.5)))
        t_b = -math.log(math.exp(2.0) / (math.exp(2.0) + math.exp(-0.5)))
        loss = mt.infonce_loss(ad.constant(vals), pairset(pos, neg))
        assert loss.item() == pytest.approx((t_a + t_b) / 2.0, abs=1e-12)

    def test_pixel_direction_transposes(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(3, 4))
        pos = rng.uniform(size=(3, 4)) < 0.3
        neg = ~pos & (rng.uniform(size=(3, 4)) < 0.5)
        pos[0, 0] = True
        neg[0, 1] = True
        neg &= ~pos
        fwd = mt.infonce_loss(ad.constant(vals), pairset(pos, neg), "pixel_to_point")
        ref = mt.infonce_loss(ad.constant(vals.T), pairset(pos.T, neg.T), "point_to_pixel")
        assert fwd.item() == pytest.approx(ref.item(), abs=1e-14)

    def test_no_usable_anchor_raises(self):
        vals = np.zeros((2, 2))
        pos = np.array([[True, False], [False, False]])
        neg = np.zeros((2, 2), dtype=bool)
        with pytest.raises(DegenerateBatchError):
            mt.infonce_loss(ad.constant(vals), pairset(pos, neg))

    def test_monotone_decrease_in_positive_logit(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(2, 5))
        pos = np.array([[True] + [False] * 4, [False, True] + [False] * 3])
        neg = ~pos
        prev = None
        for bump in np.linspace(0.0, 4.0, 9):
            vals = base.copy()
            vals[0, 0] += bump
            loss = mt.infonce_loss(ad.constant(vals), pairset(pos, neg)).item()
            if prev is not None:
                assert loss < prev
            prev = loss

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        vals = rng.normal(size=(3, 5))
        pos = np.zeros((3, 5), dtype=bool)
        neg = np.zeros((3, 5), dtype=bool)
        pos[:, 0] = True
        pos[1, 1] = True
        neg[:, 2:] = True
        err = finite_difference_check(
            lambda ps: mt.infonce_loss(ps[0], pairset(pos, neg)), [vals])
        assert err < 1e-6

    def test_pixel_direction_gradient_matches_finite_differences(self):
        # pixel anchors 0 and 2 have several positive points, pixel 3 has
        # no negative, so its column must get no gradient
        rng = np.random.default_rng(19)
        vals = rng.normal(size=(4, 5))
        pos = np.zeros((4, 5), dtype=bool)
        neg = np.zeros((4, 5), dtype=bool)
        pos[[0, 1, 3], 0] = True
        pos[[1, 2], 2] = True
        pos[0, 3] = True
        neg[2, 0] = True
        neg[[0, 3], 2] = True
        neg[:, 4] = True
        tape = ad.Tape()
        logits = tape.parameter(vals)
        tape.backward(mt.infonce_loss(logits, pairset(pos, neg), "pixel_to_point"))
        assert np.all(logits.grad[:, 3] == 0.0) and np.all(logits.grad[:, 1] == 0.0)
        err = finite_difference_check(
            lambda ps: mt.infonce_loss(ps[0], pairset(pos, neg), "pixel_to_point"), [vals])
        assert err < 1e-6

    def test_huge_annulus_logit_weighs_nothing(self):
        # an annulus logit far above the anchor's positive/negative max must
        # neither overflow nor leak into the loss or the gradient
        vals = np.array([[0.0, 800.0, -1.0]])
        pos = np.array([[True, False, False]])
        neg = np.array([[False, False, True]])
        tape = ad.Tape()
        logits = tape.parameter(vals)
        loss = mt.infonce_loss(logits, pairset(pos, neg))
        assert loss.item() == pytest.approx(math.log1p(math.exp(-1.0)), rel=1e-15)
        tape.backward(loss)
        q = math.exp(-1.0) / (1.0 + math.exp(-1.0))
        np.testing.assert_allclose(logits.grad, [[-q, 0.0, q]], rtol=1e-15)

    def test_annulus_and_non_overlapping_points_are_not_candidates(self):
        # point 2 overlaps nothing; pixel 1 sits in point 0's annulus
        vals = np.random.default_rng(21).normal(size=(3, 3))
        pos = np.array([[True, False, False], [False, True, False], [False] * 3])
        neg = np.array([[False, False, True], [True, False, True], [False] * 3])
        p2x = mt.infonce_loss(ad.constant(vals), pairset(pos, neg)).item()
        expected = [np.log(np.exp(vals[0, 0]) + np.exp(vals[0, 2])) - vals[0, 0],
                    np.log(np.exp(vals[1, 1]) + np.exp(vals[1, 0]) + np.exp(vals[1, 2]))
                    - vals[1, 1]]
        assert p2x == pytest.approx(np.mean(expected), rel=1e-13)
        # pixel 0: positive point 0, negative point 1; pixel 1: positive
        # point 1, no negative (point 0 is in the annulus, point 2 no candidate)
        x2p = mt.infonce_loss(ad.constant(vals), pairset(pos, neg), "pixel_to_point").item()
        t0 = np.log(np.exp(vals[0, 0]) + np.exp(vals[1, 0])) - vals[0, 0]
        assert x2p == pytest.approx(t0, rel=1e-13)

    def test_pairs_built_for_another_grid_rejected(self):
        pairs = pairset([[True, False]], [[False, True]])
        with pytest.raises(ParameterError):
            mt.infonce_loss(ad.constant(np.zeros((1, 3))), pairs)

    @pytest.mark.parametrize("direction, field, bad", [
        *(pytest.param(d, None, None, id=d) for d in DIRECTIONS),
        *(pytest.param(d, f, bad, id=f"{f}={bad}-{d}")
          for f in ("positives", "near") for bad in (4096, -1, 1.0) for d in DIRECTIONS),
        *(pytest.param(d, "overlap_points", None, id=f"overlap_points-{d}") for d in DIRECTIONS)])
    def test_pairs_built_for_more_points_rejected(self, direction, field, bad):
        cfg = sc.SceneConfig(n_points=64, grid=(8, 8))
        pairs = sc.build_pairs(sc.generate_scene(np.random.default_rng(5), cfg), 1.0, 4.0)
        assert pairs.overlap_points.max() >= 32
        if field is None:
            with pytest.raises(ParameterError, match="32 rows"):
                mt.infonce_loss(ad.constant(np.zeros((32, 64))), pairs, direction)
            return
        # the pair set refuses itself, whichever direction would read it
        if field == "overlap_points":
            # the block loses its first row, so the last point's pairs lie past it
            with pytest.raises(ParameterError, match="of a block of"):
                replace(pairs, overlap_points=pairs.overlap_points[1:])
            return
        # one flat pair index outside the 64 x 64 logits, or not an integer
        with pytest.raises(ParameterError, match=rf"pairs\.{field} "):
            replace(pairs, **{field: np.append(getattr(pairs, field), bad)})

    def test_underflowed_denominator_raises(self):
        # the anchor's max sits on one positive; the other positive and the
        # negative are so far below it that their exps underflow to zero
        vals = np.array([[0.0, -800.0, -800.0]])
        pos = np.array([[True, True, False]])
        neg = np.array([[False, False, True]])
        with pytest.raises(DomainError):
            mt.infonce_loss(ad.constant(vals), pairset(pos, neg))


class TestOverlap:
    def test_zero_head_gives_half_scores(self):
        rng = np.random.default_rng(7)
        f = ad.constant(rng.normal(size=(6, 4)))
        p = {"overlap.point.w": np.zeros((4, 1)), "overlap.point.b": np.zeros((1, 1)),
             "overlap.pixel.w": np.zeros((4, 1)), "overlap.pixel.b": np.zeros((1, 1))}
        tape = ad.Tape()
        s_p, s_i = mt.overlap_scores(f, f, {k: tape.parameter(v) for k, v in p.items()})
        np.testing.assert_array_equal(s_p.value, 0.5 * np.ones((6, 1)))

    def test_scores_strictly_inside_unit_interval(self):
        # float64 sigmoid saturates to exactly 1.0 beyond |logit| ~ 37, so
        # strictness is asserted at non-saturating feature magnitudes
        rng = np.random.default_rng(8)
        f = ad.constant(rng.normal(size=(10, 4)) * 3)
        p = mt.init_overlap_heads(rng, 4)
        tape = ad.Tape()
        s_p, s_i = mt.overlap_scores(f, f, {k: tape.parameter(v) for k, v in p.items()})
        for s in (s_p.value, s_i.value):
            assert np.all(s > 0.0) and np.all(s < 1.0)

    def test_head_gradients(self):
        rng = np.random.default_rng(9)
        f_val = rng.normal(size=(5, 4))
        labels = rng.uniform(size=5) < 0.5
        p0 = mt.init_overlap_heads(rng, 4)
        names = list(p0)

        def build(tensors):
            p = dict(zip(names, tensors))
            s_p, s_i = mt.overlap_scores(ad.constant(f_val), ad.constant(f_val), p)
            return mt.overlap_bce_loss(s_p, s_i, labels, labels)

        assert finite_difference_check(build, [p0[n] for n in names]) < 1e-4

    def test_bce_uniform_half(self):
        s = ad.constant(0.5 * np.ones((4, 1)))
        labels = np.array([1, 0, 1, 0])
        loss = mt.overlap_bce_loss(s, s, labels, labels)
        assert loss.item() == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_bce_perfect_scores_near_zero(self):
        labels = np.array([1.0, 0.0, 1.0])
        s = ad.constant(np.abs(labels - 1e-9).reshape(-1, 1))
        loss = mt.overlap_bce_loss(s, s, labels, labels)
        assert loss.item() < 1e-6

    def test_bce_matches_scalar_loop(self):
        rng = np.random.default_rng(10)
        sp = rng.uniform(0.05, 0.95, 7)
        si = rng.uniform(0.05, 0.95, 9)
        yp = rng.uniform(size=7) < 0.5
        yi = rng.uniform(size=9) < 0.5

        def scalar_bce(s, y):
            total = 0.0
            for sj, yj in zip(s, y):
                total += -(yj * math.log(sj) + (1 - yj) * math.log(1 - sj))
            return total / len(s)

        expected = scalar_bce(sp, yp) + scalar_bce(si, yi)
        loss = mt.overlap_bce_loss(ad.constant(sp.reshape(-1, 1)),
                                   ad.constant(si.reshape(-1, 1)), yp, yi)
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_bce_gradient_matches_finite_differences(self):
        # scores inside the clip and far enough beyond it that both probes
        # of the central difference stay clipped
        sp = np.array([[0.02], [0.5], [0.97], [-0.3], [1.4]])
        si = np.array([[0.3], [0.8], [0.03], [0.985]])
        yp = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        yi = np.array([0.0, 1.0, 1.0, 0.0])
        err = finite_difference_check(
            lambda ps: mt.overlap_bce_loss(ps[0], ps[1], yp, yi), [sp, si])
        assert err < 1e-6

    def test_bce_untracked_scores_get_no_gradient(self):
        rng = np.random.default_rng(21)
        sp, si = rng.uniform(0.1, 0.9, (5, 1)), rng.uniform(0.1, 0.9, (3, 1))
        yp, yi = rng.uniform(size=5) < 0.5, rng.uniform(size=3) < 0.5
        tape = ad.Tape()
        s_p = tape.parameter(sp)
        loss = mt.overlap_bce_loss(s_p, ad.constant(si), yp, yi)
        assert [node.op for node in tape.nodes] == ["leaf", "overlap_bce"]
        const = mt.overlap_bce_loss(ad.constant(sp), ad.constant(si), yp, yi)
        assert const.tape is None and const.item() == loss.item()
        tape.backward(loss)
        y = yp.reshape(-1, 1)
        np.testing.assert_allclose(s_p.grad, ((1 - y) / (1 - sp) - y / sp) / 5, rtol=1e-14)

    @pytest.mark.parametrize("labels", [["1", "0", "1"]], ids=["strings"])
    def test_bce_non_real_labels_rejected(self, labels):
        # the contract table refuses every bad value; this pins the messages
        s = ad.constant(0.5 * np.ones((3, 1)))
        with pytest.raises(ParameterError, match="point labels"):
            mt.overlap_bce_loss(s, s, labels, [1.0, 0.0, 1.0])
        with pytest.raises(ParameterError, match="pixel labels"):
            mt.overlap_bce_loss(s, s, [1.0, 0.0, 1.0], labels)

    @pytest.mark.parametrize("bad", [2.0, -0.5, math.nan, math.inf, -math.inf])
    def test_bce_labels_outside_the_unit_interval_rejected(self, bad):
        s = ad.constant(0.5 * np.ones((3, 1)))
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            mt.overlap_bce_loss(s, s, [1.0, bad, 0.0], [1.0, 0.0, 1.0])
        with pytest.raises(ParameterError, match=r"\[0, 1\]"):
            mt.overlap_bce_loss(s, s, [1.0, 0.0, 1.0], [bad, 0.0, 1.0])

    def test_bce_gradient_zero_at_and_beyond_clamp(self):
        lo, hi = mt.PROB_CLAMP, 1.0 - mt.PROB_CLAMP
        scores = np.array([[lo], [hi], [lo / 10], [1.0], [0.0], [hi + 1e-9]])
        labels = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        tape = ad.Tape()
        s_p, s_i = tape.parameter(scores), tape.parameter([[0.5]])
        loss = mt.overlap_bce_loss(s_p, s_i, labels, [1.0])
        tape.backward(loss)
        np.testing.assert_array_equal(s_p.grad, np.zeros((6, 1)))
        clipped = np.clip(scores[:, 0], lo, hi)
        expected = -np.mean(labels * np.log(clipped) + (1 - labels) * np.log(1 - clipped))
        assert loss.item() == pytest.approx(expected + math.log(2), abs=1e-12)


def column(scores) -> ad.Tensor:
    """Scores as the n x 1 constant tensor that the overlap heads produce."""
    return ad.constant(np.reshape(scores, (-1, 1)))


class TestThreshold:
    def test_all_above(self):
        sel = mt.threshold_overlap(column(0.9 * np.ones(5)), column(0.9 * np.ones(6)), 0.5, 0.5,
                                   np.zeros(5, bool), np.zeros(6, bool))
        assert sel.point_indices.size == 5 and sel.pixel_indices.size == 6
        assert not sel.point_fallback and not sel.pixel_fallback

    def test_fallback_engaged(self):
        gt_p = np.array([True, False, True])
        gt_i = np.array([False, True])
        sel = mt.threshold_overlap(column(0.9 * np.ones(3)), column(0.5 * np.ones(2)), 0.99, 0.99,
                                   gt_point_mask=gt_p, gt_pixel_mask=gt_i)
        np.testing.assert_array_equal(sel.point_indices, [0, 2])
        np.testing.assert_array_equal(sel.pixel_indices, [1])
        assert sel.point_fallback and sel.pixel_fallback

    def test_matches_brute_force_filter(self):
        rng = np.random.default_rng(11)
        sp, si = rng.uniform(size=20), rng.uniform(size=30)
        sel = mt.threshold_overlap(column(sp), column(si), 0.4, 0.6,
                                   np.ones(20, bool), np.ones(30, bool))
        np.testing.assert_array_equal(sel.point_indices,
                                      [i for i in range(20) if sp[i] > 0.4])
        np.testing.assert_array_equal(sel.pixel_indices,
                                      [j for j in range(30) if si[j] > 0.6])

    def test_threshold_validation(self):
        with pytest.raises(ParameterError):
            mt.threshold_overlap(column(np.ones(2)), column(np.ones(2)), 0.0, 0.5,
                                 np.ones(2, bool), np.ones(2, bool))
        # each fallback mask must be one boolean per score: a longer mask
        # would select points that have no score, and numpy reads any
        # non-empty string as True
        low = column(0.1 * np.ones(4))
        for bad in (np.ones(9, bool), ["x", "", "False", "0"], np.ones(4), np.ones((4, 1), bool)):
            with pytest.raises(ParameterError, match="point fallback mask"):
                mt.threshold_overlap(low, low, 0.5, 0.5, bad, np.ones(4, bool))
            with pytest.raises(ParameterError, match="pixel fallback mask"):
                mt.threshold_overlap(low, low, 0.5, 0.5, np.ones(4, bool), bad)


class TestSoftmaxRows:
    # the row softmax of the soft_match node, read off its coordinates
    @staticmethod
    def soft(logits, centers):
        sel = mt.OverlapSelection(np.arange(logits.shape[0]), np.arange(logits.shape[1]),
                                  False, False)
        return mt.match_coords(ad.constant(logits), sel, centers).value

    def test_uniform(self):
        centers = np.array([[0.0, 3.0], [6.0, 0.0], [3.0, 6.0]])
        out = self.soft(np.zeros((1, 3)), centers)
        np.testing.assert_allclose(out, [[3.0, 3.0]], atol=1e-15)

    def test_single_column(self):
        out = self.soft(np.array([[5.0], [-3.0]]), np.array([[1.5, -2.0]]))
        np.testing.assert_array_equal(out, [[1.5, -2.0], [1.5, -2.0]])

    def test_matches_the_two_step_result(self):
        # shift and exp, then the row sums from the ones column of [c | 1]:
        # the two-step softmax's weighted centers to 1e-12 relative
        rng = np.random.default_rng(5)
        for shape in [(1, 1), (3, 7), (64, 48), (512, 576)]:
            s = rng.normal(scale=20.0, size=shape)
            centers = rng.uniform(0.0, 24.0, (shape[1], 2))
            w = np.exp(s - s.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            expected = w @ centers
            out = self.soft(s, centers)
            assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()


class TestSoftHardMatch:
    def centers(self, m):
        return np.stack([np.arange(m, dtype=float), np.zeros(m)], axis=1)

    def weight_row_sums(self, logits, sel):
        """Row sums of the soft weights: with every pixel center at (1, 1),
        each predicted coordinate is its weight row's sum."""
        return mt.match_coords(logits, sel, np.ones((logits.shape[1], 2))).value

    def test_single_pixel_selection(self):
        logits = ad.constant(np.array([[1.0, 5.0], [-3.0, -900.0]]))
        sel = mt.OverlapSelection(np.array([0, 1]), np.array([1]), False, False)
        centers = np.array([[0.0, 0.0], [3.0, 4.0]])
        coords = mt.match_coords(logits, sel, centers)
        np.testing.assert_array_equal(coords.value, [[3.0, 4.0], [3.0, 4.0]])

    def test_uniform_logits_give_centroid(self):
        logits = ad.constant(np.zeros((1, 4)))
        sel = mt.OverlapSelection(np.array([0]), np.arange(4), False, False)
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        coords = mt.match_coords(logits, sel, corners)
        np.testing.assert_allclose(coords.value, [[0.5, 0.5]], atol=1e-15)

    def test_two_to_one_logits(self):
        logits = ad.constant(np.array([[math.log(2.0), 0.0]]))
        sel = mt.OverlapSelection(np.array([0]), np.arange(2), False, False)
        coords = mt.match_coords(logits, sel, self.centers(2))
        np.testing.assert_allclose(coords.value, [[1 / 3, 0.0]], atol=1e-12)

    @settings(max_examples=50)
    @given(st.lists(st.lists(st.floats(-700, 700), min_size=1, max_size=6),
                    min_size=1, max_size=4).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_weight_rows_sum_to_one_at_extreme_logits(self, rows):
        vals = ad.constant(np.array(rows, dtype=float))
        sel = mt.OverlapSelection(np.arange(vals.shape[0]), np.arange(vals.shape[1]),
                                  False, False)
        np.testing.assert_allclose(self.weight_row_sums(vals, sel), 1.0, atol=1e-12)
        coords = mt.match_coords(vals, sel, self.centers(vals.shape[1]))
        assert np.all(np.isfinite(coords.value))

    def test_weight_rows_sum_to_one_and_match_naive_loop(self):
        rng = np.random.default_rng(12)
        logits = ad.constant(rng.normal(size=(5, 8)))
        sel = mt.OverlapSelection(np.array([0, 2, 4]), np.array([1, 3, 5, 6]),
                                  False, False)
        centers = rng.uniform(0, 8, (8, 2))
        coords = mt.match_coords(logits, sel, centers)
        np.testing.assert_allclose(self.weight_row_sums(logits, sel), 1.0, atol=1e-12)
        for a, i in enumerate(sel.point_indices):
            exps = [math.exp(logits.value[i, j]) for j in sel.pixel_indices]
            z = sum(exps)
            expected = sum((e / z) * centers[j]
                           for e, j in zip(exps, sel.pixel_indices))
            np.testing.assert_allclose(coords.value[a], expected, atol=1e-12)

    def test_predicted_coords_inside_convex_hull(self):
        rng = np.random.default_rng(13)
        logits = ad.constant(rng.normal(size=(4, 6)))
        sel = mt.OverlapSelection(np.arange(4), np.arange(6), False, False)
        centers = rng.uniform(0, 5, (6, 2))
        coords = mt.match_coords(logits, sel, centers)
        lo, hi = centers.min(axis=0), centers.max(axis=0)
        assert np.all(coords.value >= lo - 1e-12)
        assert np.all(coords.value <= hi + 1e-12)

    def test_hard_match_picks_argmax_with_low_index_ties(self):
        vals = np.zeros((1, 8))
        vals[0, 3] = vals[0, 7] = 2.0
        sel = mt.OverlapSelection(np.array([0]), np.arange(8), False, False)
        out = mt.match_coords(ad.constant(vals), sel, self.centers(8), "hard")
        np.testing.assert_array_equal(out.value, [[3.0, 0.0]])

    def test_hard_match_is_sharp_soft_limit(self):
        rng = np.random.default_rng(14)
        vals = rng.normal(size=(5, 7))
        sel = mt.OverlapSelection(np.arange(5), np.arange(7), False, False)
        centers = rng.uniform(0, 7, (7, 2))
        hard = mt.match_coords(ad.constant(vals), sel, centers, "hard")
        soft = mt.match_coords(ad.constant(vals * 1000.0), sel, centers)
        np.testing.assert_allclose(soft.value, hard.value, atol=1e-3)

    def test_empty_selection_or_unknown_mode_rejected(self):
        logits = ad.constant(np.zeros((2, 3)))
        centers = self.centers(3)
        for mode in ("soft", "hard"):
            for rows, cols in [([], [0, 1]), ([0], [])]:
                sel = mt.OverlapSelection(np.array(rows, dtype=np.int64),
                                          np.array(cols, dtype=np.int64), False, False)
                with pytest.raises(DegenerateBatchError):
                    mt.match_coords(logits, sel, centers, mode)
        sel = mt.OverlapSelection(np.array([0]), np.array([0]), False, False)
        with pytest.raises(ParameterError, match="argmax"):
            mt.match_coords(logits, sel, centers, "argmax")

    def test_soft_match_gradients_flow_to_logits(self):
        rng = np.random.default_rng(16)
        vals = rng.normal(size=(3, 6))
        sel = mt.OverlapSelection(np.array([0, 2]), np.array([1, 3, 4]), False, False)
        centers = rng.uniform(0, 6, (6, 2))
        probe = rng.normal(size=(2, 2))
        err = finite_difference_check(
            lambda ps: weighted_sum(mt.match_coords(ps[0], sel, centers), probe), [vals])
        assert err < 1e-6
        # the columns of pixels left out, and the unselected row, get exactly zero
        tape = ad.Tape()
        logits = tape.parameter(vals)
        tape.backward(weighted_sum(mt.match_coords(logits, sel, centers), probe))
        assert not logits.grad[:, [0, 2, 5]].any() and not logits.grad[1].any()
        assert logits.grad[[0, 2]][:, [1, 3, 4]].all()

    def test_nearly_one_hot_row_gradients(self):
        # the first row puts about 0.999 of its weight on one pixel
        rng = np.random.default_rng(32)
        vals = rng.normal(size=(3, 5))
        vals[0] = [8.0, 0.5, -1.0, 0.0, 0.3]
        sel = mt.OverlapSelection(np.array([0, 1, 2]), np.arange(5), False, False)
        centers = rng.uniform(0, 6, (5, 2))
        probe = rng.normal(size=(3, 2))
        err = finite_difference_check(
            lambda ps: weighted_sum(mt.match_coords(ps[0], sel, centers), probe), [vals])
        assert err < 1e-6

    def test_nested_list_centers_are_read_as_an_array(self):
        # indexing the list raised TypeError
        logits = ad.constant(np.random.default_rng(33).normal(size=(2, 3)))
        sel = mt.OverlapSelection(np.array([0]), np.array([0, 1]), False, False)
        for mode in ("soft", "hard"):
            want = mt.match_coords(logits, sel, self.centers(3), mode).value
            got = mt.match_coords(logits, sel, self.centers(3).tolist(), mode).value
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("centers", [np.full((3, 2), "1.0")], ids=["strings"])
    def test_non_real_centers_rejected(self, centers):
        # the contract table refuses every bad value; this pins the message
        logits = ad.constant(np.zeros((2, 3)))
        sel = mt.OverlapSelection(np.array([0]), np.array([0, 1]), False, False)
        for mode in ("soft", "hard"):
            with pytest.raises(ParameterError, match="centers"):
                mt.match_coords(logits, sel, centers, mode)

    def test_repeated_or_unsorted_indices_rejected(self):
        # index sets are strictly increasing, as np.flatnonzero gives them;
        # the soft_match backward writes each selected logits entry once.
        # The selection refuses itself, before any match mode reads it
        good = np.array([0, 2, 3])
        for bad in ([2, 0, 3], [0, 2, 2], [3, 2, 0]):
            for rows, cols in [(bad, good), (good, bad)]:
                with pytest.raises(ParameterError, match="strictly increasing"):
                    mt.OverlapSelection(np.array(rows), np.array(cols), False, False)

    @pytest.mark.parametrize("rows, cols, centers_shape, refused_by_selection", [
        ([0, 2], [0], (3, 2), False), ([0], [1, 3], (3, 2), False),
        ([-1], [0], (3, 2), True), ([0], [-1], (3, 2), True), ([0.0, 1.0], [0], (3, 2), True),
        ([0], [0.0], (3, 2), True), ([[0]], [0], (3, 2), True),
        ([0], [0, 1], (2, 2), False), ([0], [0], (3, 3), False)],
        ids=["row_past_end", "column_past_end", "row_minus_one", "column_minus_one",
             "float_rows", "float_columns", "2d_rows", "short_centers", "centers_3_wide"])
    def test_selection_outside_the_logits_rejected(self, rows, cols, centers_shape,
                                                   refused_by_selection):
        # numpy would raise IndexError, or read row -1 as the last row. A
        # negative, float or 2-D index set is no selection at all; one past
        # the end of these logits is refused by the matcher that reads it
        if refused_by_selection:
            with pytest.raises(ParameterError, match="must be a strictly increasing"):
                mt.OverlapSelection(np.array(rows), np.array(cols), False, False)
            return
        logits = ad.constant(np.zeros((2, 3)))
        sel = mt.OverlapSelection(np.array(rows), np.array(cols), False, False)
        for mode in ("soft", "hard"):
            with pytest.raises(ParameterError):
                mt.match_coords(logits, sel, np.ones(centers_shape), mode)

    def test_soft_match_records_one_node_and_constant_logits_record_nothing(self):
        rng = np.random.default_rng(19)
        vals = rng.normal(size=(3, 4))
        sel = mt.OverlapSelection(np.array([0, 2]), np.array([1, 3]), False, False)
        centers = rng.uniform(0, 4, (4, 2))
        tape = ad.Tape()
        logits = tape.parameter(vals)
        coords = mt.match_coords(logits, sel, centers)
        assert [node.op for node in tape.nodes] == ["leaf", "soft_match"]
        assert coords.tape is tape
        coords_c = mt.match_coords(ad.constant(vals), sel, centers)
        assert coords_c.tape is None and len(tape.nodes) == 2
        np.testing.assert_array_equal(coords_c.value, coords.value)
        hard = mt.match_coords(logits, sel, centers, "hard")
        assert hard.tape is None and len(tape.nodes) == 2


def rule_base(seed, n_points, grid):
    """A built pair set and threshold selection of one generated scene, with
    random logits and the pixel centers that both consumers read."""
    rng = np.random.default_rng(seed)
    scene = sc.generate_scene(rng, sc.SceneConfig(n_points=n_points, grid=grid))
    n, m = scene.n_points, scene.n_pixels
    selection = mt.threshold_overlap(column(rng.uniform(size=n)), column(rng.uniform(size=m)),
                                     0.5, 0.5, scene.point_overlap_gt, scene.pixel_overlap_gt)
    return (sc.build_pairs(scene, 1.0, 2.5), selection, rng.normal(size=(n, m)),
            sc.pixel_centers(grid))


RULE_BASES = [rule_base(0, 16, (8, 8)), rule_base(1, 16, (8, 8)), rule_base(2, 32, (6, 9))]


@st.composite
def perturbed_index_records(draw):
    """A base, its pair set or its selection, and one change to it: an index
    field made float, bool, a narrower or unsigned integer or 2-D, or given
    a negative, repeated or swapped entry, an entry past the logits (for a
    pair set, past the block of its K overlapping points' rows), one entry
    dropped, or (for a pair set) a pair in a row between K and N; a bool,
    float or wrong ``n_pixels``; or nothing."""
    base = draw(st.sampled_from(RULE_BASES))
    pairs, selection, logits, _ = base
    (n, m), record = logits.shape, draw(st.sampled_from(base[:2]))
    kind = draw(st.sampled_from(["float", "bool", "narrow", "2d", "negative", "repeated",
                                 "swapped", "past_end", "outside", "n_pixels", "none"]))
    if kind == "none":
        return base, record, {}
    if kind == "n_pixels":
        return base, pairs, {"n_pixels": draw(st.sampled_from(
            [True, float(m), 0, -m, m - 1, m + 1, np.int64(m), 2**70, np.uint64(2**64 - 1)]))}
    names = ["point_indices", "pixel_indices"] if record is selection \
        else ["overlap_points", "positives", "near"]
    name = draw(st.sampled_from(names))
    idx = getattr(record, name)
    i = draw(st.integers(0, idx.size - 2))
    k = pairs.overlap_points.size
    if kind == "outside" and name in ("positives", "near"):
        row = draw(st.integers(k, n - 1))
        return base, record, {name: np.union1d(idx, [row * m + draw(st.integers(0, m - 1))])}
    bound = {"point_indices": n, "pixel_indices": m, "overlap_points": n}.get(name, k * m)
    changed = {
        "float": lambda: idx.astype(np.float64), "bool": lambda: idx.astype(bool),
        "narrow": lambda: idx.astype(draw(st.sampled_from([np.int8, np.int32, np.uint64]))),
        "2d": lambda: draw(st.sampled_from([idx[None, :], idx[:, None]])),
        "negative": lambda: np.insert(idx, 0, -draw(st.integers(1, 3))),
        "repeated": lambda: np.insert(idx, i, idx[i]),
        "swapped": lambda: np.concatenate([idx[:i], idx[i + 1:i + 2], idx[i:i + 1], idx[i + 2:]]),
        "past_end": lambda: np.append(idx, bound + draw(st.integers(0, 2))),
        "outside": lambda: np.delete(idx, i),  # a smaller selection is still one
    }[kind]()
    return base, record, {name: changed}


def returns_or_raises_neucalib_error(build):
    """Run ``build`` on a fresh tape, and the backward of what it returns
    when that is on the tape; a NeucalibError is an answer too."""
    tape = ad.Tape()
    try:
        out = build(tape)
        if out.tape is tape:
            tape.backward(weighted_sum(out))
    except NeucalibError:
        pass


class TestPairRule:
    @settings(max_examples=300)
    @given(perturbed_index_records())
    def test_record_refuses_or_its_consumers_answer(self, case):
        """A pair set or selection either refuses the change with
        ParameterError, or both InfoNCE directions and soft and hard
        matching return a value or raise a NeucalibError."""
        (pairs, selection, logits, centers), record, change = case
        try:
            changed = replace(record, **change)
        except ParameterError:
            return
        if isinstance(changed, sc.PairSet):
            pairs = changed
        else:
            selection = changed
        for direction in DIRECTIONS:
            returns_or_raises_neucalib_error(
                lambda tape: mt.infonce_loss(tape.parameter(logits), pairs, direction))
        for mode in ("soft", "hard"):
            returns_or_raises_neucalib_error(
                lambda tape: mt.match_coords(tape.parameter(logits), selection, centers, mode))

    # 4 x 3 logits; pairs (point, pixel) (0, 0), (1, 1), (3, 0) and near ones,
    # as (row, pixel) (0, 0), (1, 1), (2, 0) of the block of rows 0, 1 and 3
    PROBE = sc.PairSet(np.array([0, 1, 3]), 3, np.array([0, 4, 6]), np.array([0, 1, 4, 6, 7]),
                       0, 0)

    @pytest.mark.parametrize("change", [
        {"overlap_points": np.array([0.0, 1.0, 3.0])},
        {"overlap_points": np.array([[0, 1, 3]])},
        {"overlap_points": np.array([-1]), "positives": np.array([0]), "near": np.array([0])},
        {"overlap_points": np.array([0, 1, 1, 3])},
        {"positives": np.array([0, 0, 4, 6])}],
        ids=["float_overlap_points", "2d_overlap_points", "overlap_point_minus_one",
             "repeated_overlap_point", "repeated_positive"])
    def test_malformed_pair_set_refused(self, change):
        # InfoNCE met these as numpy's IndexError or ValueError, read point
        # -1 as point 3, or weighed a repeated point or positive twice
        for direction in DIRECTIONS:
            mt.infonce_loss(ad.constant(np.zeros((4, 3))), self.PROBE, direction)
        with pytest.raises(ParameterError, match="must be a strictly increasing"):
            replace(self.PROBE, **change)


def test_exp_sees_only_finite_input(monkeypatch):
    """Both InfoNCE directions and soft matching hand np.exp finite input
    only, even with a huge annulus logit and huge logits of pixels left out
    of the selection; those weigh nothing, in the values and the gradient."""
    # point 0: positive pixel 0, annulus pixel 1; point 1: positive pixel 2,
    # annulus pixels 3 and 4; point 2 overlaps nothing. Pixels 1 and 4 are
    # left out of the selection
    pos = np.zeros((3, 5), dtype=bool)
    neg = np.zeros((3, 5), dtype=bool)
    pos[0, 0] = pos[1, 2] = True
    neg[0, 2:] = neg[1, :2] = True
    pairs = pairset(pos, neg)
    sel = mt.OverlapSelection(np.array([0, 1]), np.array([0, 2, 3]), False, False)
    centers = np.random.default_rng(35).uniform(0, 5, (5, 2))
    base = np.random.default_rng(36).normal(size=(3, 5))
    huge = base.copy()
    huge[0, 1] = huge[1, 4] = 800.0  # annulus entries, in pixels left out of the selection
    huge[2] = 900.0  # a point that is neither a candidate nor selected
    real_exp = np.exp

    def finite_exp(x, *args, **kwargs):
        assert np.isfinite(x).all(), "np.exp met a non-finite input"
        return real_exp(x, *args, **kwargs)

    def run(vals):
        tape = ad.Tape()
        logits = tape.parameter(vals)
        terms = [mt.infonce_loss(logits, pairs, d) for d in DIRECTIONS]
        terms.append(weighted_sum(mt.match_coords(logits, sel, centers)))
        loss = ad.add(ad.add(terms[0], terms[1]), terms[2])
        tape.backward(loss)
        return [t.item() for t in terms], logits.grad

    want, want_grad = run(base)
    monkeypatch.setattr(np, "exp", finite_exp)
    got, grad = run(huge)
    assert got == want
    np.testing.assert_array_equal(grad, want_grad)
    assert grad[0, 1] == grad[1, 4] == 0.0 and not grad[2].any()


def dense_infonce(vals, pos, neg):
    """InfoNCE over the rows of dense masks, with its gradient: each row with
    a positive and a negative is an anchor, and each of its positives one
    term against all of its negatives. Plain exps, no shift."""
    e = np.exp(vals)
    usable = pos.any(axis=1) & neg.any(axis=1)
    anchor, p = np.nonzero(pos & usable[:, None])
    denom = e[anchor, p] + (e * neg).sum(axis=1)[anchor]
    value = np.mean(np.log(denom) - vals[anchor, p])
    grad = np.zeros_like(vals)
    np.add.at(grad, (anchor, p), e[anchor, p] / denom - 1.0)
    grad += neg * e * np.bincount(anchor, 1.0 / denom, vals.shape[0])[:, None]
    return value, grad / anchor.size


@pytest.mark.parametrize("grid", [(16, 16), (12, 20)])
def test_infonce_of_built_pairs_matches_dense_masks(grid):
    """Both directions on the pairs of a generated scene, against N x M
    masks built from the projections: a positive lies closer than r_p, a
    near pair within r_n, and a negative is any other overlapping pair."""
    rng = np.random.default_rng(41)
    scene = sc.generate_scene(rng, sc.SceneConfig(n_points=96, grid=grid))
    r_p, r_n = 1.5, 4.0
    pairs = sc.build_pairs(scene, r_p, r_n)
    overlap = scene.point_overlap_gt
    # the overlapping points are no prefix of the points, so a row is no point id
    assert not overlap[:overlap.sum()].all()
    d = scene.gt_projection[:, None, :] - sc.pixel_centers(grid)[None, :, :]
    dist = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])  # NaN off the overlap
    pos, neg = dist < r_p, overlap[:, None] & ~(dist <= r_n)
    vals = rng.normal(size=(scene.n_points, scene.n_pixels)) * 3.0
    x2p, x2p_grad = dense_infonce(vals.T, pos.T, neg.T)
    for direction, (want, want_grad) in (("point_to_pixel", dense_infonce(vals, pos, neg)),
                                         ("pixel_to_point", (x2p, x2p_grad.T))):
        tape = ad.Tape()
        logits = tape.parameter(vals)
        loss = mt.infonce_loss(logits, pairs, direction)
        tape.backward(loss)
        assert loss.item() == pytest.approx(float(want), rel=1e-12)
        np.testing.assert_allclose(logits.grad, want_grad, rtol=1e-12, atol=0.0)


def test_learnable_and_cosine_bit_equal_with_identity_transform():
    rng = np.random.default_rng(17)
    scene = sc.generate_scene(rng, sc.SceneConfig(n_points=32, grid=(8, 8)))
    pairs = sc.build_pairs(scene, 1.0, 4.0)
    f_p, f_i = rng.normal(size=(32, 8)), rng.normal(size=(64, 8))
    tape = ad.Tape()
    t = mt.AlignmentTransform(ad.constant(np.eye(8)), 0.07)
    for mode in ("learnable", "cosine"):
        logits = mt.similarity(ad.constant(f_p), ad.constant(f_i), t, mode)
        loss = mt.infonce_loss(logits, pairs)
        if mode == "learnable":
            learn_val = loss.item()
        else:
            assert loss.item() == learn_val


def traced_peak(fn, *args):
    """fn(*args), and the bytes it allocated at its peak under tracemalloc
    above what was allocated when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMatchingMemory:
    # every row and column selected, so that a block is logits-sized. The
    # slack covers the 64 KiB buffer of numpy's broadcast in-place subtract
    # of each row's or column's max, index vectors and Python objects: the
    # forward peaks under 90 KiB above its block, the backward under 10 KiB
    N, M, SLACK = 192, 240, 128 << 10
    BLOCK = N * M * 8

    def backward(self, *terms):
        """The logits gradient and the tracemalloc peak of one tape's
        backward() on the sum of ``terms``, each built on one shared logits
        leaf. The peak counts the leaf's gradient but not the arrays that
        the nodes keep. A first tape is swept untraced, so that numpy's
        one-time buffers are not counted."""
        vals = np.random.default_rng(22).normal(size=(self.N, self.M))

        def build():
            tape = ad.Tape()
            logits = tape.parameter(vals)
            loss = weighted_sum(terms[0](logits))
            for term in terms[1:]:
                loss = ad.add(loss, weighted_sum(term(logits)))
            return tape, logits, loss

        tape, _, loss = build()
        tape.backward(loss)
        tape, logits, loss = build()
        _, peak = traced_peak(tape.backward, loss)
        return logits.grad, peak

    def pairs(self):
        """Every point overlaps, and each pixel has point j % N as its one
        positive and every other point as a negative."""
        pos = np.zeros((self.N, self.M), dtype=bool)
        pos[np.arange(self.M) % self.N, np.arange(self.M)] = True
        return pairset(pos, ~pos)

    def soft_match(self):
        sel = mt.OverlapSelection(np.arange(self.N), np.arange(self.M), False, False)
        centers = np.random.default_rng(23).uniform(0, 8, (self.M, 2))
        return lambda logits: mt.match_coords(logits, sel, centers)

    def test_soft_match_backward_allocates_one_block_and_the_gradient(self):
        """dW, then the zero-filled logits gradient once dW is gone: the
        block gradient is written over W."""
        grad, peak = self.backward(self.soft_match())
        assert grad.shape == (self.N, self.M)
        assert peak <= self.BLOCK + self.SLACK

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_infonce_allocates_one_block_each_way(self, direction):
        """The forward allocates its block of exps, and the backward only the
        logits gradient: it writes its block over the exps."""
        pairs = self.pairs()
        logits = ad.constant(np.random.default_rng(24).normal(size=(self.N, self.M)))
        mt.infonce_loss(logits, pairs, direction)
        _, peak = traced_peak(mt.infonce_loss, logits, pairs, direction)
        assert peak <= self.BLOCK + self.SLACK
        grad, peak = self.backward(lambda t: mt.infonce_loss(t, pairs, direction))
        assert np.count_nonzero(grad) == self.N * self.M
        assert peak <= self.BLOCK + self.SLACK

    def test_three_terms_on_one_logits_peak_at_two_blocks(self):
        """Both InfoNCE directions and soft matching add their blocks into
        one logits gradient: the first into the zero-filled gradient, the
        others through one gathered temporary each. Soft matching is
        recorded first, so its backward runs when the gradient already
        exists: the gradient and dW, then the gradient and the gathered
        block."""
        pairs = self.pairs()
        grad, peak = self.backward(self.soft_match(), *(
            lambda t, d=d: mt.infonce_loss(t, pairs, d) for d in DIRECTIONS))
        assert np.count_nonzero(grad) == self.N * self.M
        assert peak <= 2 * self.BLOCK + self.SLACK
