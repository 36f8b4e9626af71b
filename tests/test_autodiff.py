import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from neucalib import autodiff as ad
from neucalib.errors import ParameterError, ShapeError, StateError
from tape_probe import finite_difference_check, weighted_sum

const = ad.constant


class TestElementwise:
    def test_no_implicit_broadcasting(self):
        with pytest.raises(ShapeError):
            ad.add(const(np.ones((2, 2))), const(np.ones((1, 2))))

    @pytest.mark.parametrize("op", [ad.add])
    def test_binary_grads(self, op):
        rng = np.random.default_rng(0)
        a0 = rng.uniform(0.5, 2.0, (3, 2))
        b0 = rng.uniform(0.5, 2.0, (3, 2))
        probe = rng.normal(size=(3, 2))
        err = finite_difference_check(
            lambda ps: weighted_sum(op(ps[0], ps[1]), probe), [a0, b0])
        assert err < 1e-6


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestDense:
    ACTS = {"none": lambda z: z, "tanh": np.tanh, "sigmoid": sigmoid}

    @pytest.mark.parametrize("act", list(ACTS))
    def test_value_is_activation_of_affine_map(self, act):
        rng = np.random.default_rng(30)
        x, w, b = rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=(1, 3))
        out = ad.dense(const(x), const(w), const(b), act).value
        # the bias broadcast equals the ones-column product it replaces, bit for bit
        assert np.array_equal(x @ w + b, x @ w + np.ones((6, 1)) @ b)
        np.testing.assert_allclose(out, self.ACTS[act](x @ w + b), rtol=1e-15, atol=1e-300)

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("act", list(ACTS))
    def test_gradients_match_central_differences(self, act, n):
        rng = np.random.default_rng(31 + n)
        x0, w0, b0 = rng.normal(size=(n, 3)), rng.normal(size=(3, 4)), rng.normal(size=(1, 4))
        probe = rng.normal(size=(n, 4))
        err = finite_difference_check(
            lambda ps: weighted_sum(ad.dense(ps[0], ps[1], ps[2], act), probe), [x0, w0, b0])
        assert err < 1e-6

    def test_tanh_saturation(self):
        # |z| of 3 to 6 leaves a derivative of 1e-5 to 1e-2 that differences
        # still resolve; at |z| = 40 tanh is exactly +-1 and the gradient 0
        rng = np.random.default_rng(33)
        x0 = rng.uniform(3.0, 6.0, (4, 1)) * rng.choice([-1.0, 1.0], (4, 1))
        probe = rng.normal(size=(4, 2))
        err = finite_difference_check(
            lambda ps: weighted_sum(ad.dense(ps[0], ps[1], ps[2], "tanh"), probe),
            [x0, [[1.0, -0.9]], [[0.1, -0.2]]])
        assert err < 1e-6
        tape = ad.Tape()
        x = tape.parameter([[40.0], [-40.0]])
        y = ad.dense(x, const([[1.0]]), const([[0.0]]), "tanh")
        np.testing.assert_array_equal(y.value, [[1.0], [-1.0]])
        tape.backward(weighted_sum(y))
        np.testing.assert_array_equal(x.grad, [[0.0], [0.0]])

    def test_sigmoid_branches_at_large_magnitude(self):
        z = np.array([[40.0], [-40.0], [39.5], [-39.5], [800.0], [-800.0]])
        y = ad.dense(const(z), const([[1.0]]), const([[0.0]]), "sigmoid").value[:, 0]
        for zi, yi in zip(z[:, 0], y):
            expect = 1.0 / (1.0 + math.exp(-zi)) if zi >= 0 else math.exp(zi) / (1.0 + math.exp(zi))
            assert yi == pytest.approx(expect, rel=1e-15, abs=0.0)
        # the negative branch keeps full relative precision, so differences
        # of a loss built from it alone resolve its e^z-sized gradient
        err = finite_difference_check(
            lambda ps: weighted_sum(ad.dense(ps[0], ps[1], ps[2], "sigmoid"), [[0.7], [-1.3]]),
            [[[-20.0], [-19.75]], [[2.0]], [[0.1]]])
        assert err < 1e-6
        # the positive branch rounds to exactly 1 there, with a zero gradient
        tape = ad.Tape()
        x = tape.parameter([[40.0], [-40.0]])
        tape.backward(weighted_sum(ad.dense(x, const([[1.0]]), const([[0.0]]), "sigmoid")))
        assert x.grad[0, 0] == 0.0
        assert x.grad[1, 0] == pytest.approx(math.exp(-40.0) / (1.0 + math.exp(-40.0)) ** 2,
                                             rel=1e-13)

    def test_untracked_inputs_record_nothing(self):
        rng = np.random.default_rng(34)
        x, w, b = rng.normal(size=(3, 2)), rng.normal(size=(2, 2)), rng.normal(size=(1, 2))
        tape = ad.Tape()
        wt, bt = tape.parameter(w), tape.parameter(b)
        untracked = ad.dense(const(x), const(w), const(b), "tanh")
        assert untracked.tape is None and len(tape.nodes) == 2
        out = ad.dense(const(x), wt, bt, "tanh")
        assert [node.op for node in tape.nodes] == ["leaf", "leaf", "dense"]
        np.testing.assert_array_equal(out.value, untracked.value)

    def test_rejects_bad_shapes_and_activation(self):
        def ones(*shape):
            return const(np.ones(shape))

        with pytest.raises(ShapeError):
            ad.dense(ones(3, 2), ones(2, 4), ones(3, 4))
        with pytest.raises(ShapeError):
            ad.dense(ones(3, 2), ones(3, 4), ones(1, 4))
        with pytest.raises(ParameterError, match="relu"):
            ad.dense(ones(3, 2), ones(2, 4), ones(1, 4), "relu")


class TestValues:
    # the contract table refuses every bad value; this pins the message
    @pytest.mark.parametrize("make", ["constant"])
    @pytest.mark.parametrize("value", ["1.5"], ids=["string"])
    def test_non_real_value_rejected(self, make, value):
        with pytest.raises(ParameterError, match="tensor value"):
            ad.constant(value)

    @pytest.mark.parametrize("value, shape", [([[2]], (1, 1)), ([[1, 2]], (1, 2)),
                                              (np.ones((3, 2)), (3, 2)), (np.ones((0, 2)), (0, 2))])
    def test_values_become_float_matrices(self, value, shape):
        t = ad.constant(value)
        assert t.shape == shape and t.value.dtype == np.float64 and t.value.flags.c_contiguous

    def test_more_than_two_dimensions_rejected(self):
        with pytest.raises(ShapeError, match="ndim=3"):
            ad.constant(np.ones((1, 1, 1)))

    @pytest.mark.parametrize("value", [2, [1, 2], np.ones(0)], ids=["scalar", "list", "empty"])
    def test_fewer_than_two_dimensions_rejected(self, value):
        # a tensor is a matrix: a scalar or a vector is not made into a row
        with pytest.raises(ShapeError, match="2-D matrices"):
            ad.constant(value)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        tape = ad.Tape()
        x = tape.parameter([[1.0, 2.0, 3.0]])
        tape.backward(weighted_sum(x))
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0, 1.0]])

    def test_elementwise_square(self):
        # x is both operands of one node; the two input gradients add up
        tape = ad.Tape()
        x = tape.parameter([[3.0]])
        tape.backward(ad.dense(x, x, const([[0.0]])))
        assert x.grad[0, 0] == 6.0

    def test_non_scalar_loss_rejected(self):
        tape = ad.Tape()
        x = tape.parameter([[1.0, 2.0]])
        with pytest.raises(ShapeError):
            tape.backward(x)

    def test_second_backward_rejected(self):
        tape = ad.Tape()
        x = tape.parameter([[1.0]])
        loss = weighted_sum(x)
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

    def test_sweep_releases_closures_and_intermediate_gradients(self):
        tape = ad.Tape()
        x, b = tape.parameter([[1.0, -2.0]]), tape.parameter([[0.5, 0.5]])
        w = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        h = ad.dense(x, w, b, "tanh")
        y = ad.add(h, h)
        tape.backward(weighted_sum(y))
        assert all(node.backward_fn is None for node in tape.nodes)
        assert h.grad is None and y.grad is None
        assert x.grad is not None and b.grad is not None

    def test_fanout_accumulates(self):
        tape = ad.Tape()
        x = tape.parameter([[3.0]])
        y = ad.add(ad.dense(x, x, const([[0.0]])), ad.add(x, x))  # x^2 + 2x
        tape.backward(y)
        assert x.grad[0, 0] == pytest.approx(8.0)

    def test_add_inputs_accumulate_into_separate_arrays(self):
        # the sweep reaches the add first and keeps its input gradients as
        # returned; the earlier nodes then add into x's and y's in place
        rng = np.random.default_rng(3)
        wx, wy, ws = (rng.normal(size=(2, 3)) for _ in range(3))
        tape = ad.Tape()
        x, y = tape.parameter(rng.normal(size=(2, 3))), tape.parameter(rng.normal(size=(2, 3)))
        early = ad.add(weighted_sum(x, wx), weighted_sum(y, wy))
        tape.backward(ad.add(early, weighted_sum(ad.add(x, y), ws)))
        np.testing.assert_allclose(x.grad, ws + wx, rtol=1e-15)
        np.testing.assert_allclose(y.grad, ws + wy, rtol=1e-15)
        assert not np.shares_memory(x.grad, y.grad)

    def test_add_hands_each_input_its_own_gradient(self):
        # a backward owns the g it is handed: each probe scales its g in
        # place, so a g that add shared between its inputs would show both
        # scalings in both leaf gradients
        tape = ad.Tape()
        x, y = tape.parameter([[1.0, 2.0]]), tape.parameter([[3.0, 4.0]])

        def probe(t, c):
            def backward(g):
                g *= c
                return (g,)

            return ad.record("probe", (t,), backward, t.value * c)

        tape.backward(weighted_sum(ad.add(probe(x, 2.0), probe(y, 3.0))))
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0]])
        np.testing.assert_array_equal(y.grad, [[3.0, 3.0]])

    @pytest.mark.parametrize("full_first", [False, True])
    def test_blocks_add_into_their_index_block(self, full_first):
        # two row blocks of one input that share row 2; with full_first a
        # full gradient reaches it before them, otherwise the tape zero-fills
        rng = np.random.default_rng(9)
        rows_a, rows_b = np.array([0, 2]), np.array([1, 2, 3])
        va, vb, w = rng.normal(size=(2, 4)), rng.normal(size=(3, 4)), rng.normal(size=(4, 4))
        tape = ad.Tape()
        x = tape.parameter(rng.normal(size=(4, 4)))

        def block(index, values):
            return ad.record("block", (x,),
                             lambda g: (ad.Block(index, g[0, 0] * values, x.shape),), [[0.0]])

        loss = ad.add(block(rows_a, va), block(rows_b, vb))
        if full_first:
            loss = ad.add(loss, weighted_sum(x, w))
        tape.backward(loss)
        want = w.copy() if full_first else np.zeros((4, 4))
        want[rows_b] += vb  # the sweep meets the later block first
        want[rows_a] += va
        np.testing.assert_array_equal(x.grad, want)

    def test_replay_determinism(self):
        rng = np.random.default_rng(7)
        x0, b = rng.normal(size=(4, 4)), const(rng.normal(size=(1, 4)))
        probe = rng.normal(size=(4, 4))

        def run():
            tape = ad.Tape()
            x = tape.parameter(x0)
            y = weighted_sum(ad.dense(ad.dense(x, x, b, "sigmoid"), x, b, "tanh"), probe)
            tape.backward(y)
            return x.grad.copy()

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)


class TestFiniteDifferenceCheck:
    def test_square(self):
        err = finite_difference_check(
            lambda ps: ad.dense(ps[0], ps[0], const([[0.0]])), [np.array([[3.0]])])
        assert err < 1e-8

    def test_chained_expression(self):
        rng = np.random.default_rng(8)
        x0, w0 = rng.uniform(0.5, 1.5, (2, 2)), rng.uniform(-1.0, 1.0, (2, 2))
        b, probe = const(rng.normal(size=(1, 2))), rng.uniform(0.5, 1.5, (2, 2))
        zero = const(np.zeros((1, 2)))

        def build(ps):
            hidden = ad.add(ad.dense(ps[0], ps[1], b, "sigmoid"), ad.dense(ps[0], ps[0], zero))
            return weighted_sum(ad.dense(hidden, ps[1], b, "tanh"), probe)

        assert finite_difference_check(build, [x0, w0]) < 1e-6


def test_every_public_op_has_a_library_caller():
    # an op that only tests call is dead weight; fused nodes go through record
    infrastructure = {"Tensor", "Tape", "constant", "record"}
    public = [name for name, obj in vars(ad).items()
              if not name.startswith("_") and inspect.getmodule(obj) is ad]
    src = Path(ad.__file__).parent
    library = "\n".join(path.read_text() for path in sorted(src.glob("*.py"))
                        if path.name != "autodiff.py")
    assert set(public) >= infrastructure
    dead = [name for name in public if name not in infrastructure
            and not re.search(rf"\bad\.{name}\(", library)]
    assert dead == []
