"""Reverse-mode automatic differentiation over dense float64 matrices.

Every differentiable value is a 2-D matrix (vectors are n x 1 or 1 x n,
scalars are 1 x 1). A :class:`Tape` records one node per operation in
execution order; :meth:`Tape.backward` replays the nodes in reverse
exactly once. Tensors without a tape are constants and may be shared freely.

Every node is a coarse fused op recorded through :func:`record` with a
hand-derived backward. This module defines two of them: :func:`add`, on
equal shapes, and :func:`dense`, whose bias row is the one broadcast. The
other stages (attention, similarity, the losses, matching, Gauss-Newton)
record their own nodes; attention and soft matching share the row softmax
of :func:`softmax_rows` and its backward :func:`softmax_rows_grad`.
Tapes are single-use and rebuilt per training step, so data-dependent
graph structure is fine.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ParameterError, ShapeError, StateError

Array = np.ndarray


def _as_matrix(x) -> Array:
    """Coerce input to a 2-D float64 array (1-D becomes a row vector)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D matrices, got ndim={arr.ndim}")
    return np.ascontiguousarray(arr)


class Tensor:
    """A dense real matrix, optionally tracked on a tape.

    ``value`` is the forward result; ``tape``/``node_id`` are set only for
    tracked tensors. Use :meth:`Tape.parameter` for leaves that need
    gradients and :func:`constant` for fixed data.
    """

    __slots__ = ("value", "tape", "node_id")

    def __init__(self, value, tape: "Tape | None" = None, node_id: int | None = None):
        self.value = _as_matrix(value)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    @property
    def grad(self) -> Array | None:
        """Gradient filled in by the owning tape's backward sweep."""
        if self.tape is None or self.tape.grads is None or self.node_id is None:
            return None
        return self.tape.grads[self.node_id]

    def item(self) -> float:
        if self.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.value[0, 0])

    def __repr__(self):
        tag = "const" if self.tape is None else f"node {self.node_id}"
        return f"Tensor({self.shape[0]}x{self.shape[1]}, {tag})"


def constant(x) -> Tensor:
    """An untracked tensor; participates in ops without receiving gradients."""
    return Tensor(x)


class _Node:
    __slots__ = ("op", "input_ids", "backward_fn")

    def __init__(self, op: str, input_ids: tuple, backward_fn):
        self.op = op
        self.input_ids = input_ids
        self.backward_fn = backward_fn


class Tape:
    """Append-only operation record; topological order equals append order."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.grads: list[Array | None] | None = None
        self.consumed = False

    def parameter(self, value) -> Tensor:
        """Create a tracked leaf. Copies the input array."""
        val = _as_matrix(value).copy()
        return self._record("leaf", (), None, val)

    def _record(self, op: str, inputs: tuple[Tensor, ...], backward_fn, value: Array) -> Tensor:
        ids = tuple(t.node_id if t.tape is self else None for t in inputs)
        self.nodes.append(_Node(op, ids, backward_fn))
        return Tensor(value, tape=self, node_id=len(self.nodes) - 1)

    def backward(self, loss: Tensor) -> None:
        """Reverse sweep from a scalar loss; fills every reachable gradient.

        A tape can be swept only once; rebuild the graph for the next step.
        """
        if self.consumed:
            raise StateError("tape already consumed by a previous backward()")
        if loss.tape is not self:
            raise StateError("loss does not belong to this tape")
        if loss.shape != (1, 1):
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        self.consumed = True
        self.grads = [None] * len(self.nodes)
        self.grads[loss.node_id] = np.ones((1, 1))
        for nid in range(loss.node_id, -1, -1):
            g = self.grads[nid]
            if g is None:
                continue
            node = self.nodes[nid]
            if node.backward_fn is None:
                continue
            input_grads = node.backward_fn(g)
            for in_id, in_grad in zip(node.input_ids, input_grads):
                if in_id is None or in_grad is None:
                    continue
                if self.grads[in_id] is None:
                    self.grads[in_id] = in_grad.copy()
                else:
                    self.grads[in_id] += in_grad


def _tape_of(*tensors: Tensor) -> "Tape | None":
    tape = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise StateError("operands belong to different tapes")
    return tape


def record(op: str, inputs: Sequence[Tensor], backward_fn, value: Array) -> Tensor:
    """Record one fused op whose forward value was computed outside the tape.

    ``backward_fn(g)`` returns one gradient (or None) per input. When no
    input is tracked the result is a constant and nothing is recorded.
    """
    tape = _tape_of(*inputs)
    if tape is None:
        return Tensor(value)
    return tape._record(op, tuple(inputs), backward_fn, value)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of equal shapes; the backward passes g to both inputs."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} vs {b.shape} (no implicit broadcasting)")
    return record("add", (a, b), lambda g: (g, g), a.value + b.value)


def _sigmoid(z: Array) -> Array:
    """Logistic function as 1 / (1 + e) for z >= 0 and e / (1 + e) below,
    with e = exp(-|z|), so that no exp can overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


_ACTIVATIONS = {"none": lambda z: z, "tanh": np.tanh, "sigmoid": _sigmoid}


def dense(x: Tensor, w: Tensor, b: Tensor, act: str = "none") -> Tensor:
    """One dense layer, y = act(x w + b), with the 1 x n bias row broadcast.

    One ``dense`` node that keeps x, w and y. With dz = g, g (1 - y^2) or
    g y (1 - y) for none, tanh and sigmoid: dx = dz w^T, dw = x^T dz and
    db = the column sums of dz.
    """
    if act not in _ACTIVATIONS:
        raise ParameterError(f"dense: unknown activation {act!r}")
    if x.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise ShapeError(f"dense: {x.shape} x {w.shape} + {b.shape}")
    xv, wv = x.value, w.value
    y = _ACTIVATIONS[act](xv @ wv + b.value)

    def backward(g):
        if act == "tanh":
            g = g * (1.0 - y * y)
        elif act == "sigmoid":
            g = g * y * (1.0 - y)
        # a ones-row product sums columns in BLAS blocks, closer than sum(axis=0)
        return g @ wv.T, xv.T @ g, np.ones((1, g.shape[0])) @ g

    return record("dense", (x, w, b), backward, y)


def softmax_rows(s: Array) -> Array:
    """Row softmax of a plain array, each row shifted by its max so that no
    exp can overflow."""
    a = np.exp(s - s.max(axis=1, keepdims=True))
    a /= a.sum(axis=1, keepdims=True)
    return a


def softmax_rows_grad(a: Array, da: Array) -> Array:
    """Gradient at the inputs of a = softmax_rows(s) from da at its output:
    a (da - rowsum(da * a)). Overwrites and returns ``da``."""
    da -= np.einsum("ij,ij->i", da, a)[:, None]
    da *= a
    return da

