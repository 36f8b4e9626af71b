import math

import numpy as np
import pytest

from neucalib import autodiff as ad
from neucalib import matching as mt
from neucalib.errors import ParameterError, ShapeError, StateError


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    x = np.array(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


class TestMatmul:
    def test_identity(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        out = ad.matmul(np.eye(2), a)
        np.testing.assert_array_equal(out.value, a)

    def test_selector_row(self):
        out = ad.matmul([[1.0, 0.0]], [[5.0], [7.0]])
        np.testing.assert_array_equal(out.value, [[5.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_grad_vs_central_differences(self):
        # oracle: finite differences with h=1e-6 on sum(A @ B)
        a0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        b0 = np.array([[1.0], [1.0]])

        def f(a):
            return float((a @ b0).sum())

        expected = numeric_grad(f, a0)
        np.testing.assert_allclose(expected, [[1.0, 1.0], [1.0, 1.0]], atol=1e-8)

        tape = ad.Tape()
        a = tape.parameter(a0)
        loss = ad.reduce(ad.matmul(a, b0))
        tape.backward(loss)
        np.testing.assert_allclose(a.grad, expected, rtol=1e-6)


class TestElementwise:
    def test_no_implicit_broadcasting(self):
        with pytest.raises(ShapeError):
            ad.add(np.ones((2, 2)), np.ones((1, 2)))

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
    def test_binary_grads(self, op):
        rng = np.random.default_rng(0)
        a0 = rng.uniform(0.5, 2.0, (3, 2))
        b0 = rng.uniform(0.5, 2.0, (3, 2))
        err = ad.finite_difference_check(
            lambda ps: ad.reduce(ad.mul(op(ps[0], ps[1]), ps[0])), [a0, b0])
        assert err < 1e-6

    @pytest.mark.parametrize("op", [ad.tanh, ad.sigmoid])
    def test_unary_grads(self, op):
        rng = np.random.default_rng(1)
        x0 = rng.uniform(0.2, 1.5, (2, 3))
        err = ad.finite_difference_check(lambda ps: ad.reduce(op(ps[0])), [x0])
        assert err < 1e-6

    def test_scale(self):
        tape = ad.Tape()
        x = tape.parameter([[1.0, 2.0]])
        y = ad.reduce(ad.scale(x, 3.0))
        assert y.item() == pytest.approx(9.0)
        tape.backward(y)
        np.testing.assert_allclose(x.grad, [[3.0, 3.0]])


class TestSoftmaxRows:
    # the row softmax is computed inside the fused soft_match node
    def weights(self, logits):
        logits = np.asarray(logits, dtype=float)
        n, m = logits.shape
        sel = mt.OverlapSelection(np.arange(n), np.arange(m), False, False)
        return mt.soft_match(ad.constant(logits), sel, np.zeros((m, 2)))[0]

    def test_uniform(self):
        out = self.weights([[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(out.value, [[1 / 3] * 3], atol=1e-15)

    def test_single_column(self):
        out = self.weights([[5.0], [-3.0]])
        np.testing.assert_array_equal(out.value, [[1.0], [1.0]])


class TestReduce:
    def test_sum_all(self):
        assert ad.reduce([[1.0, 2.0], [3.0, 4.0]]).item() == 10.0

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ad.reduce(np.zeros((0, 3)))

    def test_grad(self):
        x0 = np.random.default_rng(3).normal(size=(3, 4))
        err = ad.finite_difference_check(
            lambda ps: ad.reduce(ad.mul(ad.reduce(ps[0]), [[-1.7]])), [x0])
        assert err < 1e-6


class TestHuber:
    def test_quadratic_branch(self):
        assert ad.huber([[0.5]], 1.0).item() == pytest.approx(0.125, abs=1e-15)

    def test_linear_branch(self):
        assert ad.huber([[2.0]], 1.0).item() == pytest.approx(1.5, abs=1e-15)

    def test_clamped_gradient(self):
        tape = ad.Tape()
        x = tape.parameter([[3.0]])
        tape.backward(ad.huber(x, 1.0))
        assert x.grad[0, 0] == 1.0

    def test_delta_validation(self):
        with pytest.raises(ParameterError):
            ad.huber([[1.0]], 0.0)

    def test_grad_away_from_kink(self):
        x0 = np.array([[0.4, -0.7, 2.5, -3.1]])
        err = ad.finite_difference_check(lambda ps: ad.huber(ps[0], 1.0), [x0])
        assert err < 1e-6


class TestStructuralOps:
    def test_transpose_and_gathers(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 3))

        def build(ps):
            cols = ad.gather_cols(ps[0], [2, 0, 2])
            picked = ad.gather_cols(ad.transpose(cols), [3, 1, 3])
            return ad.reduce(ad.mul(picked, w))

        assert ad.finite_difference_check(build, [x0]) < 1e-6

    def test_gather_elements(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(3, 3))
        err = ad.finite_difference_check(
            lambda ps: ad.reduce(ad.mul(
                ad.gather_elements(ps[0], [0, 2, 0], [1, 2, 1]),
                np.array([[1.0], [2.0], [3.0]]))), [x0])
        assert err < 1e-6


class TestBackward:
    def test_sum_gradient_is_ones(self):
        tape = ad.Tape()
        x = tape.parameter([[1.0, 2.0, 3.0]])
        tape.backward(ad.reduce(x))
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0, 1.0]])

    def test_elementwise_square(self):
        tape = ad.Tape()
        x = tape.parameter([[1.0, 2.0]])
        tape.backward(ad.reduce(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [[2.0, 4.0]])

    def test_non_scalar_loss_rejected(self):
        tape = ad.Tape()
        x = tape.parameter([[1.0, 2.0]])
        with pytest.raises(ShapeError):
            tape.backward(x)

    def test_second_backward_rejected(self):
        tape = ad.Tape()
        x = tape.parameter([[1.0]])
        loss = ad.reduce(x)
        tape.backward(loss)
        with pytest.raises(StateError):
            tape.backward(loss)

    def test_mixed_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(StateError):
            ad.add(t1.parameter([[1.0]]), t2.parameter([[1.0]]))
        with pytest.raises(StateError):
            ad.record("fused", (t1.parameter([[1.0]]), t2.parameter([[1.0]])), None, [[0.0]])

    def test_record_skips_untracked_inputs(self):
        tape = ad.Tape()
        x = tape.parameter([[2.0]])
        const = ad.record("fused", (ad.constant([[1.0]]),), None, [[5.0]])
        assert const.tape is None and len(tape.nodes) == 1
        y = ad.record("fused", (ad.constant([[1.0]]), x), lambda g: (g, 3.0 * g), [[5.0]])
        tape.backward(y)
        assert x.grad[0, 0] == 3.0 and len(tape.nodes) == 2

    def test_fanout_accumulates(self):
        tape = ad.Tape()
        x = tape.parameter([[3.0]])
        y = ad.add(ad.mul(x, x), ad.scale(x, 2.0))  # x^2 + 2x
        tape.backward(y)
        assert x.grad[0, 0] == pytest.approx(8.0)

    def test_replay_determinism(self):
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(4, 4))

        def run():
            tape = ad.Tape()
            x = tape.parameter(x0)
            y = ad.reduce(ad.mul(ad.sigmoid(ad.matmul(x, x)), ad.tanh(ad.scale(x, 0.1))))
            tape.backward(y)
            return x.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)


class TestFiniteDifferenceCheck:
    def test_square(self):
        err = ad.finite_difference_check(
            lambda ps: ad.reduce(ad.mul(ps[0], ps[0])), [np.array([[3.0]])])
        assert err < 1e-8

    def test_huber_kink_reported_not_asserted(self):
        # x sits exactly on the Huber kink; the subgradient mismatch is
        # expected, we only require the checker to return a finite number.
        err = ad.finite_difference_check(
            lambda ps: ad.huber(ps[0], 1.0), [np.array([[1.0]])])
        assert math.isfinite(err)

    def test_chained_expression(self):
        rng = np.random.default_rng(8)
        x0 = rng.uniform(0.5, 1.5, (2, 2))
        err = ad.finite_difference_check(
            lambda ps: ad.reduce(ad.tanh(ad.add(ad.sigmoid(ps[0]), ad.mul(ps[0], ps[0])))),
            [x0])
        assert err < 1e-6
