"""Cross-modal feature matching: learnable similarity, contrastive and
overlap losses, and soft/hard point-to-pixel assignment.

The learnable alignment is a symmetric bilinear form W_f = (B + B^T)/2 in
feature space, divided by a temperature; cosine mode (W_f = identity) is
kept as the ablation baseline. Soft matching predicts each point's image
location as the softmax-weighted mean of candidate pixel centers, which
is what keeps the downstream pose solver differentiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DegenerateBatchError, DomainError, NormalizationError, ParameterError
from .scene import PairSet

PROB_CLAMP = 1e-7  # BCE probability floor/ceiling before the log

ALIGNMENT_MODES = ("learnable", "cosine")


@dataclass
class AlignmentTransform:
    """Symmetric learnable transform plus temperature.

    ``raw`` is the unconstrained B; the effective transform (B + B^T)/2 is
    symmetric by construction, so the similarity matrix transposes cleanly
    between the two modal directions.
    """

    raw: Tensor  # C x C tape parameter
    temperature: float

    def __post_init__(self):
        if self.temperature <= 0:
            raise ParameterError("temperature must be positive")

    def matrix(self) -> Tensor:
        return ad.scale(ad.add(self.raw, ad.transpose(self.raw)), 0.5)


def init_alignment(rng: np.random.Generator, channels: int) -> dict[str, np.ndarray]:
    # start near the identity so early training behaves like cosine mode
    return {"align.b": np.eye(channels) + rng.normal(0.0, 0.01, (channels, channels))}


def init_overlap_heads(rng: np.random.Generator, channels: int) -> dict[str, np.ndarray]:
    return {
        "overlap.point.w": rng.normal(0.0, 1.0 / np.sqrt(channels), (channels, 1)),
        "overlap.point.b": np.zeros((1, 1)),
        "overlap.pixel.w": rng.normal(0.0, 1.0 / np.sqrt(channels), (channels, 1)),
        "overlap.pixel.b": np.zeros((1, 1)),
    }


def normalize_rows(f: Tensor, what: str = "feature") -> Tensor:
    """Unit-normalize each row; zero or non-finite rows are a hard error.

    One ``normalize_rows`` node: with y = f / |f| per row, the row gradient
    is (g - (g . y) y) / |f|.
    """
    norms = np.sqrt((f.value * f.value).sum(axis=1, keepdims=True))  # m x 1
    bad = np.flatnonzero(~np.isfinite(norms[:, 0]))
    if bad.size:
        raise NormalizationError(f"non-finite {what} row at index {bad[0]}")
    zero = np.flatnonzero(norms[:, 0] <= 0.0)
    if zero.size:
        raise NormalizationError(f"zero-norm {what} row at index {zero[0]}")
    out = f.value / norms

    def backward(g):
        return ((g - out * (g * out).sum(axis=1, keepdims=True)) / norms,)

    return ad.record("normalize_rows", (f,), backward, out)


def similarity(f_p: Tensor, f_i: Tensor, transform: AlignmentTransform,
               mode: str = "learnable") -> Tensor:
    """N x M logits between row-normalized features, divided by temperature."""
    if mode not in ALIGNMENT_MODES:
        raise ParameterError(f"unknown alignment mode {mode!r}")
    fp = normalize_rows(f_p, "point feature")
    fi = normalize_rows(f_i, "pixel feature")
    if mode == "learnable":
        logits = ad.matmul(ad.matmul(fp, transform.matrix()), ad.transpose(fi))
    else:
        logits = ad.matmul(fp, ad.transpose(fi))
    return ad.scale(logits, 1.0 / transform.temperature)


def infonce_loss(logits: Tensor, pairs: PairSet, direction: str = "point_to_pixel") -> Tensor:
    """Mean contrastive term over usable (anchor, positive) pairs.

    Point anchors take every pixel as a candidate, pixel anchors every
    overlapping point. Each positive contributes one term whose denominator
    holds that positive plus the anchor's negatives: its candidates outside
    its near list. Anchors lacking a positive or a negative are skipped;
    an empty anchor set is a degenerate batch.

    One ``infonce`` node, built from the pair lists on the anchors x
    candidates block of the logits. Annulus entries (near but not positive)
    are set to -inf before the per-anchor max and the exp, so they weigh
    nothing however large they are. With K terms, D_k the denominator of
    term k and e = exp(shifted logits), the gradient at anchor a is
    e_aj * sum_{k in P(a)} 1 / D_k / K at each negative j and
    (e_ap / D_k - 1) / K at each positive p.
    """
    if pairs.n_pixels != logits.shape[1]:
        raise ParameterError(f"pairs cover {pairs.n_pixels} pixels, logits {logits.shape[1]}")
    pos_pt, pos_px = np.divmod(pairs.positives, pairs.n_pixels)
    near_pt, near_px = np.divmod(pairs.near, pairs.n_pixels)
    cands = pairs.overlap_points
    if direction == "point_to_pixel":
        vals = logits.value  # points x pixels
        pos, near = (pos_pt, pos_px), (near_pt, near_px)
    elif direction == "pixel_to_point":
        vals = logits.value[cands].T  # pixels x overlapping points
        col = np.empty(logits.shape[0], dtype=np.int64)
        col[cands] = np.arange(cands.size)
        pos, near = (pos_px, col[pos_pt]), (near_px, col[near_pt])
    else:
        raise ParameterError(f"unknown InfoNCE direction {direction!r}")

    n_rows, width = vals.shape
    has_pos = np.bincount(pos[0], minlength=n_rows) > 0
    has_neg = np.bincount(near[0], minlength=n_rows) < width
    anchors = np.flatnonzero(has_pos & has_neg)
    if anchors.size == 0:
        raise DegenerateBatchError(f"no usable {direction} anchors")
    row = np.full(n_rows, -1)
    row[anchors] = np.arange(anchors.size)

    def block_index(anchor, col):
        """(row, column) of pairs in the anchor block, for usable anchors."""
        r = row[anchor]
        keep = r >= 0
        return r[keep], col[keep]

    near_at = block_index(*near)
    pos_r, pos_c = block_index(*pos)
    pos_at = np.divmod(np.sort(pos_r * width + pos_c), width)  # row-major term order
    block = vals[anchors]
    pos_vals = block[pos_at]
    block[near_at] = -np.inf
    block[pos_at] = pos_vals
    # per-anchor max over its own positives and negatives keeps every exp
    # below 1; subtracting a constant leaves the gradient exact
    block -= block.max(axis=1, keepdims=True)
    pos_shifted = block[pos_at]
    pos_exp = np.exp(pos_shifted)
    neg_exp = np.exp(block, out=block)
    neg_exp[pos_at] = 0.0
    a_idx = pos_at[0]
    denom = pos_exp + neg_exp.sum(axis=1)[a_idx]
    if np.any(denom <= 0.0):
        raise DomainError(f"{direction} InfoNCE denominator underflowed to zero")
    count = a_idx.size
    value = np.array([[(np.log(denom) - pos_shifted).sum() / count]])
    shape = logits.shape  # the closure holds no Tensor and no logits array

    def backward(g):
        scale = g[0, 0] / count
        grad = neg_exp * (np.bincount(a_idx, weights=1.0 / denom) * scale)[:, None]
        grad[pos_at] += (pos_exp / denom - 1.0) * scale
        full = np.zeros((n_rows, width))
        full[anchors] = grad
        if direction == "point_to_pixel":
            return (full,)
        out = np.zeros(shape)
        out[cands] = full.T
        return (out,)

    return ad.record("infonce", (logits,), backward, value)


def overlap_scores(f_p: Tensor, f_i: Tensor, p) -> tuple[Tensor, Tensor]:
    """Per-entity logistic heads on the fused features, scores in (0, 1)."""

    def head(f, name):
        logits = ad.matmul(f, p[f"overlap.{name}.w"])
        ones = ad.constant(np.ones((f.shape[0], 1)))
        return ad.sigmoid(ad.add(logits, ad.matmul(ones, p[f"overlap.{name}.b"])))

    return head(f_p, "point"), head(f_i, "pixel")


def overlap_bce_loss(s_p: Tensor, s_i: Tensor, point_labels, pixel_labels) -> Tensor:
    """Mean BCE over points plus mean BCE over pixels.

    One ``overlap_bce`` node. Scores are clipped to [PROB_CLAMP,
    1 - PROB_CLAMP] before the logs; the gradient is zero at and beyond
    the clip bounds.
    """
    point_labels = np.asarray(point_labels, dtype=float).reshape(-1, 1)
    pixel_labels = np.asarray(pixel_labels, dtype=float).reshape(-1, 1)
    if s_p.shape[0] != point_labels.shape[0] or s_i.shape[0] != pixel_labels.shape[0]:
        raise ParameterError("overlap label lengths do not match score lengths")
    heads = [(scores.value, labels, np.clip(scores.value, PROB_CLAMP, 1.0 - PROB_CLAMP))
             for scores, labels in ((s_p, point_labels), (s_i, pixel_labels))]
    value = sum(-((y * np.log(s) + (1.0 - y) * np.log(1.0 - s)).sum() / y.shape[0])
                for _, y, s in heads)

    def backward(g):
        grads = []
        for raw, y, s in heads:
            inside = (raw > PROB_CLAMP) & (raw < 1.0 - PROB_CLAMP)
            grads.append(inside * ((1.0 - y) / (1.0 - s) - y / s) * (g[0, 0] / y.shape[0]))
        return tuple(grads)

    return ad.record("overlap_bce", (s_p, s_i), backward, np.array([[value]]))


@dataclass
class OverlapSelection:
    point_indices: np.ndarray
    pixel_indices: np.ndarray
    point_fallback: bool
    pixel_fallback: bool


def threshold_overlap(s_p, s_i, theta_p: float, theta_i: float,
                      gt_point_mask=None, gt_pixel_mask=None) -> OverlapSelection:
    """Index sets of entities whose scores exceed the thresholds.

    When ground-truth masks are supplied, an empty selection falls back to
    the ground truth so the pose stage never starves; the fallback is
    recorded in the result.
    """
    if not (0.0 < theta_p < 1.0 and 0.0 < theta_i < 1.0):
        raise ParameterError("overlap thresholds must lie in (0, 1)")
    sp = s_p.value[:, 0] if isinstance(s_p, Tensor) else np.asarray(s_p, dtype=float).reshape(-1)
    si = s_i.value[:, 0] if isinstance(s_i, Tensor) else np.asarray(s_i, dtype=float).reshape(-1)
    points = np.flatnonzero(sp > theta_p)
    pixels = np.flatnonzero(si > theta_i)
    point_fallback = pixel_fallback = False
    if points.size == 0 and gt_point_mask is not None:
        points = np.flatnonzero(np.asarray(gt_point_mask, dtype=bool))
        point_fallback = True
    if pixels.size == 0 and gt_pixel_mask is not None:
        pixels = np.flatnonzero(np.asarray(gt_pixel_mask, dtype=bool))
        pixel_fallback = True
    return OverlapSelection(points, pixels, point_fallback, pixel_fallback)


def soft_match(logits: Tensor, selection: OverlapSelection, centers: np.ndarray
               ) -> tuple[Tensor, Tensor]:
    """Soft assignment over selected pixels: weights and predicted coords.

    The softmax runs on the (already temperature-scaled) logits. One
    ``soft_match`` node: with W the block's row softmax and dW = g centers^T,
    the block gradient W (dW - rowsum(dW * W)) is scatter-added into the
    N x M logits gradient, repeated indices adding up. Weights are untracked.
    """
    rows, cols = selection.point_indices, selection.pixel_indices
    if rows.size == 0 or cols.size == 0:
        raise DegenerateBatchError("empty overlap selection for matching")
    pix = centers[cols]
    sub = logits.value[np.ix_(rows, cols)]
    w = np.exp(sub - sub.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    n, m = logits.shape

    def backward(g):
        dw = g @ pix.T
        dw -= np.einsum("ij,ij->i", dw, w)[:, None]
        dw *= w
        flat = (rows[:, None] * m + cols[None, :]).ravel()
        return (np.bincount(flat, weights=dw.ravel(), minlength=n * m).reshape(n, m),)

    return ad.constant(w), ad.record("soft_match", (logits,), backward, w @ pix)


def hard_match(logits, selection: OverlapSelection, centers: np.ndarray) -> np.ndarray:
    """Argmax assignment (ties to the lowest pixel index); not differentiable."""
    if selection.point_indices.size == 0 or selection.pixel_indices.size == 0:
        raise DegenerateBatchError("empty overlap selection for matching")
    vals = logits.value if isinstance(logits, Tensor) else np.asarray(logits)
    sub = vals[np.ix_(selection.point_indices, selection.pixel_indices)]
    best = np.argmax(sub, axis=1)
    return centers[selection.pixel_indices[best]]


def match_coords(logits, selection, centers, mode: str = "soft"):
    """Predicted pixel coordinates as a Tensor (soft, on-tape) or array (hard)."""
    if mode == "soft":
        return soft_match(logits, selection, centers)[1]
    if mode == "hard":
        return ad.constant(hard_match(logits, selection, centers))
    raise ParameterError(f"unknown match mode {mode!r}")
