"""Reverse-mode automatic differentiation over dense float64 matrices.

Every differentiable value is a 2-D matrix (vectors are n x 1 or 1 x n,
scalars are 1 x 1). A :class:`Tape` records one node per operation in
execution order; :meth:`Tape.backward` replays the nodes in reverse
exactly once. Tensors without a tape are constants and may be shared freely.

Every node is a coarse fused op recorded through :func:`record` with a
hand-derived backward. This module defines two of them: :func:`add`, on
equal shapes, and :func:`dense`, whose bias row is the one broadcast. The
other stages (attention, similarity, the losses, matching, Gauss-Newton)
record their own nodes, and each softmax is written inside its one node:
attention's recomputing kernel in ``encoder``, soft matching's and
InfoNCE's masked one in ``matching``.
Tapes are single-use and rebuilt per training step, so data-dependent
graph structure is fine. :func:`record` states once how a backward hands
its gradients to the tape: the losses that read one row block of the N x M
logits return a :class:`Block` and allocate no N x M array of their own.
Every value and every gradient the tape holds is float64. A node may compute
inside its backward in float32, as attention does with its N x M recompute,
and hands the tape float64 gradients.

Each step allocates and frees the same N x M temporaries again and again.
On glibc, importing this module fixes the allocator's mmap and trim
thresholds, so that freed blocks stay in the process for the next step
instead of going back to the kernel and faulting in again, zero-filled.
Other C libraries are left as they are.
"""

from __future__ import annotations

import ctypes
import platform
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, ShapeError, StateError, real_array

Array = np.ndarray

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Stop glibc from handing each step's freed temporaries back to the kernel.

    By default glibc raises its mmap threshold to the largest block freed so
    far and its trim threshold to twice that. Once a 256 x 256 float64 block
    has been freed, the trim threshold sits near 1 MB, an attention block
    frees more than that at the top of the heap, the heap is trimmed, and the
    next step faults every page back in. Fixing the mmap threshold at glibc's
    64-bit maximum (32 MiB) also turns the dynamic adjustment off; the trim
    threshold goes to the largest C int. ctypes truncates an out-of-range int
    without warning, and a threshold of 0 would trim on every free.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)


_keep_freed_memory()


def _as_matrix(x) -> Array:
    """Real 2-D input as a C-contiguous float64 array."""
    arr = real_array(x, "tensor value", ParameterError)
    if arr.ndim != 2:
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
        """Gradient filled in by the owning tape's backward sweep.

        Only leaves keep theirs: the sweep drops an intermediate node's
        gradient once it has been propagated, so that reads None.
        """
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


class Block(NamedTuple):
    """A gradient that is zero outside some rows of its input: ``values``
    at ``input[index]``, where ``index`` is a strictly increasing row index
    array and ``shape`` is the input's shape."""

    index: Array
    values: Array
    shape: tuple[int, int]


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
        self.grads: list[Array | None] | None = None  # set by the one backward()

    def parameter(self, value) -> Tensor:
        """Create a tracked leaf. Copies the input array."""
        val = _as_matrix(value).copy()
        return self._record("leaf", (), None, val)

    def _record(self, op: str, inputs: tuple[Tensor, ...], backward_fn, value: Array) -> Tensor:
        ids = tuple(t.node_id if t.tape is self else None for t in inputs)
        self.nodes.append(_Node(op, ids, backward_fn))
        return Tensor(value, tape=self, node_id=len(self.nodes) - 1)

    def backward(self, loss: Tensor) -> None:
        """Reverse sweep from a scalar loss; fills every leaf gradient it
        reaches, accumulating as :func:`record` states, and drops each
        intermediate gradient once propagated, so the sweep frees the tape's
        N x M values as it goes. A tape can be swept only once."""
        if self.grads is not None:
            raise StateError("tape already consumed by a previous backward()")
        if loss.tape is not self:
            raise StateError("loss does not belong to this tape")
        if loss.shape != (1, 1):
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        self.grads = [None] * len(self.nodes)
        self.grads[loss.node_id] = np.ones((1, 1))
        for nid in range(len(self.nodes) - 1, -1, -1):
            self._propagate(nid)

    def _propagate(self, nid: int) -> None:
        """Run node ``nid``'s backward and accumulate what it returns; every
        array it touched is released when this returns."""
        node = self.nodes[nid]
        backward_fn, node.backward_fn = node.backward_fn, None
        g = self.grads[nid]
        if g is None or backward_fn is None:
            return
        self.grads[nid] = None
        input_grads = backward_fn(g)
        del backward_fn, g  # the node's kept arrays go before the tape allocates
        for in_id, in_grad in zip(node.input_ids, input_grads):
            if in_id is None or in_grad is None:
                continue
            acc = self.grads[in_id]
            if isinstance(in_grad, Block):
                if acc is None:
                    acc = self.grads[in_id] = np.zeros(in_grad.shape)
                    acc[in_grad.index] = in_grad.values
                else:
                    acc[in_grad.index] += in_grad.values
            elif acc is None:
                self.grads[in_id] = in_grad
            else:
                acc += in_grad


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

    ``backward_fn(g)`` owns ``g`` and may overwrite it. It returns one
    gradient (or None) per input: either an array that nothing else holds,
    which the tape keeps as the input's first gradient or adds into it in
    place, or a :class:`Block` of the input's gradient, which the tape adds
    into its rows (on a zero-filled gradient if it is the first). The tape
    releases ``backward_fn`` and ``g`` before it accumulates. When no input
    is tracked the result is a constant and nothing is recorded.
    """
    tape = _tape_of(*inputs)
    if tape is None:
        return Tensor(value)
    return tape._record(op, tuple(inputs), backward_fn, value)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of equal shapes; the backward passes g to a and a copy to b."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} vs {b.shape} (no implicit broadcasting)")
    return record("add", (a, b), lambda g: (g, g.copy()), a.value + b.value)


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
    if not (isinstance(act, str) and act in _ACTIVATIONS):
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

