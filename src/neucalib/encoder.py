"""Toy feature encoders and one transformer-style bidirectional fusion layer.

The point branch is a two-layer tanh MLP on 3-D coordinates; the pixel
branch is the same on (u, v, texture), where the texture channel is the
camera-frame depth of the nearest projected point and stands in for image
appearance (a coordinate-only pixel branch would make matching
unlearnable). Fusion runs per-modality self-attention, bidirectional
cross-attention, and a feed-forward block, each wrapped in a residual
connection, with sinusoidal position encodings added to the attention
inputs. Positions come from coordinates, never indices, so the whole
encoder commutes with point permutations.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ParameterError
from .scene import SceneSample, pixel_centers

PE_BASE = 10000.0
POINT_INPUT_SCALE = 0.1  # meters -> MLP-friendly range
TEXTURE_SCALE = 0.05  # depth meters -> MLP-friendly range


def sinusoidal_pe(coords: np.ndarray, channels: int) -> np.ndarray:
    """Interleaved sin/cos encodings of each coordinate dimension.

    Each of the d input dimensions gets channels // (2d) geometrically
    spaced frequencies (base 10000); leftover channels stay zero.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2:
        raise ParameterError("coords must be M x d")
    d = coords.shape[1]
    if channels % 2 != 0:
        raise ParameterError(f"position encoding needs an even channel count, got {channels}")
    if channels < 2 * d:
        raise ParameterError(f"need at least {2 * d} channels for {d}-D coordinates")
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
    p: dict[str, np.ndarray] = {}

    def dense(name, rows, cols, bias=True):
        p[name + ".w"] = rng.normal(0.0, 1.0 / np.sqrt(rows), (rows, cols))
        if bias:
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


def fusion_depth(params) -> int:
    return 1 + max((int(k.split(".")[1]) for k in params if k.startswith("fuse.")),
                   default=-1)


def _affine(x: Tensor, p, name: str) -> Tensor:
    out = ad.matmul(x, p[name + ".w"])
    bias = p[name + ".b"]
    ones = ad.constant(np.ones((out.shape[0], 1)))
    return ad.add(out, ad.matmul(ones, bias))


def _mlp(x: Tensor, p, prefix: str) -> Tensor:
    return _affine(ad.tanh(_affine(x, p, prefix + ".l1")), p, prefix + ".l2")


def pixel_texture(sample: SceneSample) -> np.ndarray:
    """Per-pixel depth of the nearest projected point (0 with no overlap)."""
    h, w = sample.grid
    overlap = np.flatnonzero(sample.point_overlap_gt)
    if overlap.size == 0:
        return np.zeros(h * w)
    proj = sample.gt_projection[overlap]
    depth = sample.raw_pose.apply(sample.points[overlap])[:, 2]
    # squared distances as du^2 + dv^2, from the W' column and H' row offsets
    du = np.subtract.outer(np.arange(w, dtype=np.float64), proj[:, 0])
    dv = np.subtract.outer(np.arange(h, dtype=np.float64), proj[:, 1])
    d2 = (dv * dv)[:, None, :] + (du * du)[None, :, :]  # H' x W' x K
    return depth[np.argmin(d2.reshape(h * w, -1), axis=1)]


def pixel_inputs(sample: SceneSample) -> np.ndarray:
    """(u, v, texture) rows, scaled into the tanh-friendly unit range."""
    centers = pixel_centers(sample.grid)
    s = float(max(sample.grid))
    return np.column_stack([centers / s, pixel_texture(sample) * TEXTURE_SCALE])


def encode(sample: SceneSample, p) -> tuple[Tensor, Tensor]:
    """Per-point and per-pixel features, (N x C, H'W' x C), on the tape."""
    f_p = _mlp(ad.constant(sample.points * POINT_INPUT_SCALE), p, "point_enc")
    f_i = _mlp(ad.constant(pixel_inputs(sample)), p, "pixel_enc")
    return f_p, f_i


def attention(query: Tensor, keys: Tensor, p, name: str) -> tuple[Tensor, Tensor]:
    """Single-head scaled dot-product attention; returns (output, weights).

    One ``attention`` node with inputs (query, keys, wq, wk, wv, wo) that
    keeps q, k, v, A and A v. With c = 1/sqrt(C), A = softmax_rows(c q k^T)
    and G = g wo^T: dA = G v^T, dS = c A (dA - rowsum(dA * A)), dq = dS k,
    dk = dS^T q, dv = A^T G. The weights come back untracked.
    """
    ws = [p[f"{name}.{proj}"] for proj in ("wq", "wk", "wv", "wo")]
    wq, wk, wv, wo = (w.value for w in ws)
    x, y = query.value, keys.value
    c = 1.0 / np.sqrt(wq.shape[0])
    q, k, v = x @ wq, y @ wk, y @ wv
    s = (q @ k.T) * c
    a = np.exp(s - s.max(axis=1, keepdims=True))
    a /= a.sum(axis=1, keepdims=True)
    av = a @ v

    def backward(g):
        gv = g @ wo.T
        ds = gv @ v.T
        ds -= np.einsum("ij,ij->i", ds, a)[:, None]
        ds *= a
        dq, dk, dv = c * (ds @ k), c * (ds.T @ q), a.T @ gv
        return (dq @ wq.T, dk @ wk.T + dv @ wv.T, x.T @ dq, y.T @ dk, y.T @ dv, av.T @ g)

    out = ad.record("attention", (query, keys, *ws), backward, av @ wo)
    return out, ad.constant(a)


def fuse(f_p: Tensor, f_i: Tensor, sample: SceneSample, p) -> tuple[Tensor, Tensor]:
    """Self-attention, bidirectional cross-attention, and feed-forward,
    each with a residual connection, repeated for every fusion layer."""
    channels = f_p.shape[1]
    pe_p = ad.constant(sinusoidal_pe(sample.points, channels))
    pe_i = ad.constant(sinusoidal_pe(pixel_centers(sample.grid), channels))
    for layer in range(fusion_depth(p)):
        base = f"fuse.{layer}"
        xp, xi = ad.add(f_p, pe_p), ad.add(f_i, pe_i)
        f_p = ad.add(f_p, attention(xp, xp, p, f"{base}.point.self")[0])
        f_i = ad.add(f_i, attention(xi, xi, p, f"{base}.pixel.self")[0])
        xp, xi = ad.add(f_p, pe_p), ad.add(f_i, pe_i)
        f_p = ad.add(f_p, attention(xp, xi, p, f"{base}.point.cross")[0])
        f_i = ad.add(f_i, attention(xi, xp, p, f"{base}.pixel.cross")[0])
        f_p = ad.add(f_p, _mlp(f_p, p, f"{base}.point.ffn"))
        f_i = ad.add(f_i, _mlp(f_i, p, f"{base}.pixel.ffn"))
    return f_p, f_i
