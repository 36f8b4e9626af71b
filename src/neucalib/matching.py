"""Cross-modal feature matching: learnable similarity, contrastive and
overlap losses, and soft/hard point-to-pixel assignment.

One similarity node unit-normalises both feature sets' rows and applies
the symmetric learnable form W_f = (B + B^T)/2 over a temperature; cosine
mode (W_f = identity) is the ablation baseline. Soft matching predicts
each point's image location as the softmax-weighted mean of candidate
pixel centers, which keeps the downstream pose solver differentiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import (DegenerateBatchError, DomainError, NormalizationError, ParameterError,
                     ShapeError, real_array)
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
        if not (self.temperature > 0):
            raise ParameterError(f"temperature must be positive, got {self.temperature}")

    def matrix(self) -> np.ndarray:
        """The effective transform W = (B + B^T) / 2, as a plain array."""
        raw = self.raw.value
        return (raw + raw.T) * 0.5


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


def _unit_rows(f: np.ndarray, what: str):
    """Unit rows u = f / |f| and the pull-back d -> (d - (d . u) u) / |f| of
    a row gradient; zero or non-finite rows are a hard error."""
    norms = np.sqrt((f * f).sum(axis=1, keepdims=True))
    bad = np.flatnonzero(~np.isfinite(norms[:, 0]))
    if bad.size:
        raise NormalizationError(f"non-finite {what} row at index {bad[0]}")
    zero = np.flatnonzero(norms[:, 0] <= 0.0)
    if zero.size:
        raise NormalizationError(f"zero-norm {what} row at index {zero[0]}")
    out = f / norms
    return out, lambda d: (d - out * (d * out).sum(axis=1, keepdims=True)) / norms


def _index_array(idx, size: int, what: str, increasing: bool = False) -> np.ndarray:
    """``idx`` as a 1-D integer array of entries in [0, size), strictly
    increasing if ``increasing``; anything else is a ParameterError."""
    idx = np.asarray(idx)
    ok = idx.ndim == 1 and idx.dtype.kind in "iu"
    if ok and idx.size:
        ok = idx.min() >= 0 and idx.max() < size
        if increasing:
            ok = ok and bool(np.all(idx[1:] > idx[:-1]))
    if not ok:
        order = "strictly increasing " if increasing else ""
        raise ParameterError(f"{what} must be a {order}integer vector in [0, {size}), "
                             f"got {idx.dtype} of shape {idx.shape}")
    return idx


def similarity(f_p: Tensor, f_i: Tensor, transform: AlignmentTransform,
               mode: str = "learnable") -> Tensor:
    """N x M logits between row-normalized features, divided by temperature.

    One ``similarity`` node on the unit rows x, y of f_p, f_i. With c = 1/T,
    logits = c (x W) y^T in learnable mode and c x y^T in cosine mode (no W,
    and B gets no gradient). With G = c g: dx = G y W, dy = G^T (x W) and
    dB = (dW + dW^T) / 2 for dW = x^T G y; dx, dy pull back through the norms.
    """
    if mode not in ALIGNMENT_MODES:
        raise ParameterError(f"unknown alignment mode {mode!r}")
    x, x_back = _unit_rows(f_p.value, "point feature")
    y, y_back = _unit_rows(f_i.value, "pixel feature")
    c = 1.0 / transform.temperature
    w = transform.matrix() if mode == "learnable" else None
    if x.shape[1] != y.shape[1] or (w is not None and w.shape != (x.shape[1],) * 2):
        raise ShapeError(f"similarity: features {x.shape} vs {y.shape}, raw {transform.raw.shape}")
    xw = x if w is None else x @ w

    def backward(g):
        gc = g * c
        gy = gc @ y
        grads = x_back(gy if w is None else gy @ w), y_back(gc.T @ xw)
        if w is None:
            return grads
        dw = x.T @ gy
        return (*grads, (dw + dw.T) * 0.5)

    inputs = (f_p, f_i) if w is None else (f_p, f_i, transform.raw)
    return ad.record("similarity", inputs, backward, (xw @ y.T) * c)


def infonce_loss(logits: Tensor, pairs: PairSet, direction: str = "point_to_pixel") -> Tensor:
    """Mean contrastive term over usable (anchor, positive) pairs.

    Point anchors take every pixel as a candidate, pixel anchors every
    overlapping point. Each positive contributes one term whose denominator
    holds that positive plus the anchor's negatives: its candidates outside
    its near list. Anchors lacking a positive or a negative are skipped;
    an empty anchor set is a degenerate batch.

    One ``infonce`` node, built from the pair lists on the anchors x
    candidates block of the logits. For point anchors that block is the
    anchor rows of the logits; for pixel anchors it is the anchor columns x
    overlapping-point rows, gathered from the transposed logits in one copy.
    The gradient goes back through the same index into one fresh N x M
    array. Pair indices must be integers in [0, N M). Annulus entries (near
    but not positive) are set to -inf before the per-anchor max and the exp,
    so they weigh nothing however large they are. With K terms, D_k the
    denominator of term k and e = exp(shifted logits), the gradient at
    anchor a is e_aj * sum_{k in P(a)} 1 / D_k / K at each negative j and
    (e_ap / D_k - 1) / K at each positive p.
    """
    if pairs.n_pixels != logits.shape[1]:
        raise ParameterError(f"pairs cover {pairs.n_pixels} pixels, logits {logits.shape[1]}")
    cands = pairs.overlap_points
    if cands.size and cands.max() >= logits.shape[0]:
        raise ParameterError(
            f"pairs index point {cands.max()}, logits have {logits.shape[0]} rows")
    n_pairs = logits.value.size
    pos_pt, pos_px = np.divmod(_index_array(pairs.positives, n_pairs, "pairs.positives"),
                               pairs.n_pixels)
    near_pt, near_px = np.divmod(_index_array(pairs.near, n_pairs, "pairs.near"),
                                 pairs.n_pixels)
    if direction == "point_to_pixel":
        orient = np.asarray  # anchors are rows of the logits, candidates all columns
        n_rows, width = logits.shape
        pos, near = (pos_pt, pos_px), (near_pt, near_px)
    elif direction == "pixel_to_point":
        orient = np.transpose  # anchors are columns, candidates the overlapping rows
        n_rows, width = logits.shape[1], cands.size
        col = np.full(logits.shape[0], -1)
        col[cands] = np.arange(cands.size)
        pos, near = (pos_px, col[pos_pt]), (near_px, col[near_pt])
        if (pos[1] < 0).any() or (near[1] < 0).any():
            raise ParameterError("pairs hold a point outside pairs.overlap_points")
    else:
        raise ParameterError(f"unknown InfoNCE direction {direction!r}")

    has_pos = np.bincount(pos[0], minlength=n_rows) > 0
    has_neg = np.bincount(near[0], minlength=n_rows) < width
    anchors = np.flatnonzero(has_pos & has_neg)
    if anchors.size == 0:
        raise DegenerateBatchError(f"no usable {direction} anchors")
    row = np.full(n_rows, -1)
    row[anchors] = np.arange(anchors.size)
    at = anchors if direction == "point_to_pixel" else np.ix_(anchors, cands)

    def block_index(anchor, col):
        """(row, column) of pairs in the anchor block, for usable anchors."""
        r = row[anchor]
        keep = r >= 0
        return r[keep], col[keep]

    near_at = block_index(*near)
    pos_r, pos_c = block_index(*pos)
    pos_at = np.divmod(np.sort(pos_r * width + pos_c), width)  # row-major term order
    block = orient(logits.value)[at]  # a C-ordered copy
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
        grad = neg_exp  # no later node reads the exps, so the gradient takes their block
        grad *= (np.bincount(a_idx, weights=1.0 / denom) * scale)[:, None]
        grad[pos_at] += (pos_exp / denom - 1.0) * scale
        out = np.zeros(shape)
        orient(out)[at] = grad
        return (out,)

    return ad.record("infonce", (logits,), backward, value)


def overlap_scores(f_p: Tensor, f_i: Tensor, p) -> tuple[Tensor, Tensor]:
    """Per-entity logistic heads on the fused features, scores in (0, 1)."""

    def head(f, name):
        return ad.dense(f, p[f"overlap.{name}.w"], p[f"overlap.{name}.b"], "sigmoid")

    return head(f_p, "point"), head(f_i, "pixel")


def overlap_bce_loss(s_p: Tensor, s_i: Tensor, point_labels, pixel_labels) -> Tensor:
    """Mean BCE over points plus mean BCE over pixels.

    One ``overlap_bce`` node. Scores are clipped to [PROB_CLAMP,
    1 - PROB_CLAMP] before the logs; the gradient is zero at and beyond
    the clip bounds.
    """
    point_labels = real_array(point_labels, "point labels", ParameterError).reshape(-1, 1)
    pixel_labels = real_array(pixel_labels, "pixel labels", ParameterError).reshape(-1, 1)
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
    """The points and pixels that the pose stage matches.

    ``point_indices`` and ``pixel_indices`` are strictly increasing integer
    vectors inside the N x M logits, as ``np.flatnonzero`` of a mask gives;
    :func:`match_coords` refuses anything else. A fallback flag is set when
    that side came from the ground-truth mask.
    """

    point_indices: np.ndarray
    pixel_indices: np.ndarray
    point_fallback: bool
    pixel_fallback: bool


def threshold_overlap(s_p: Tensor, s_i: Tensor, theta_p: float, theta_i: float,
                      gt_point_mask, gt_pixel_mask) -> OverlapSelection:
    """Index sets of entities whose n x 1 scores exceed the thresholds.

    An empty selection falls back to the ground-truth mask so the pose
    stage never starves; the fallback is recorded in the result. Each mask
    must be a boolean vector with one entry per score.
    """
    if not (0.0 < theta_p < 1.0 and 0.0 < theta_i < 1.0):
        raise ParameterError("overlap thresholds must lie in (0, 1)")
    masks = [np.asarray(gt_point_mask), np.asarray(gt_pixel_mask)]
    for mask, scores, what in zip(masks, (s_p, s_i), ("point", "pixel")):
        if mask.dtype != bool or mask.shape != (scores.shape[0],):
            raise ParameterError(f"{what} fallback mask must be {scores.shape[0]} booleans, "
                                 f"got {mask.dtype} of shape {mask.shape}")
    points = np.flatnonzero(s_p.value[:, 0] > theta_p)
    pixels = np.flatnonzero(s_i.value[:, 0] > theta_i)
    point_fallback, pixel_fallback = points.size == 0, pixels.size == 0
    if point_fallback:
        points = np.flatnonzero(masks[0])
    if pixel_fallback:
        pixels = np.flatnonzero(masks[1])
    return OverlapSelection(points, pixels, point_fallback, pixel_fallback)


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    """Row softmax of a plain array, each row shifted by its max so that no
    exp can overflow. Overwrites and returns ``s``: pass a fresh temporary,
    so that no two more arrays of its size are allocated."""
    s -= s.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)
    return s


def match_coords(logits: Tensor, selection: OverlapSelection, centers: np.ndarray,
                 mode: str = "soft") -> Tensor:
    """Predicted pixel coordinates of the selected points over the selected
    pixels, from the selected rows x selected columns block of the logits.

    The selection's index sets must be strictly increasing integer vectors
    inside the N x M logits and ``centers`` must be M x 2; anything else is
    a ParameterError. Soft mode predicts the softmax-weighted mean of the
    pixel centers; the softmax runs on the (already temperature-scaled)
    logits. It records one ``soft_match`` node that keeps W, the block's row
    softmax, and its R x 2 value W centers. With dW = g centers^T, the block
    gradient W (dW - rowsum(g * W centers)) is written into the selected
    rows x selected columns of one fresh N x M array; rowsum(g * W centers)
    equals rowsum(dW * W), on R x 2 rather than on the whole block. Hard
    mode takes each row's argmax pixel (ties to the first selected one) as
    a constant.
    """
    if mode not in ("soft", "hard"):
        raise ParameterError(f"unknown match mode {mode!r}")
    n, m = logits.shape
    rows = _index_array(selection.point_indices, n, "point indices", increasing=True)
    cols = _index_array(selection.pixel_indices, m, "pixel indices", increasing=True)
    if rows.size == 0 or cols.size == 0:
        raise DegenerateBatchError("empty overlap selection for matching")
    if np.shape(centers) != (m, 2):
        raise ParameterError(f"centers must be {m} x 2, got shape {np.shape(centers)}")
    pix = centers[cols]
    block = logits.value[np.ix_(rows, cols)]
    if mode == "hard":
        return ad.constant(pix[np.argmax(block, axis=1)])
    w = _softmax_rows(block)
    out = w @ pix

    def backward(g):
        dw = g @ pix.T
        dw -= np.einsum("ij,ij->i", g, out)[:, None]
        dw *= w
        grad = np.zeros((n, m))
        grad[np.ix_(rows, cols)] = dw
        return (grad,)

    return ad.record("soft_match", (logits,), backward, out)
