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
                     ShapeError, index_set, is_count, real_array)
from .scene import PairSet

PROB_CLAMP = 1e-7  # BCE probability floor/ceiling before the log

ALIGNMENT_MODES = ("learnable", "cosine")


@dataclass(frozen=True)
class AlignmentTransform:
    """Symmetric learnable transform plus temperature.

    ``raw`` is the unconstrained B; the effective transform (B + B^T)/2 is
    symmetric by construction, so the similarity matrix transposes cleanly
    between the two modal directions. It is frozen, so its temperature check holds.
    """

    raw: Tensor  # C x C tape parameter
    temperature: float

    def __post_init__(self):
        t = real_array(self.temperature, "temperature", ParameterError)
        if not (t.ndim == 0 and 0.0 < t < np.inf):
            raise ParameterError(f"temperature must be finite and positive, got {t}")

    def matrix(self) -> np.ndarray:
        """The effective transform W = (B + B^T) / 2, as a plain array."""
        raw = self.raw.value
        return (raw + raw.T) * 0.5


def init_alignment(rng: np.random.Generator, channels: int) -> dict[str, np.ndarray]:
    # start near the identity so early training behaves like cosine mode
    if not is_count(channels, 1):
        raise ParameterError(f"channels must be an integer >= 1, got {channels!r}")
    return {"align.b": np.eye(channels) + rng.normal(0.0, 0.01, (channels, channels))}


def init_overlap_heads(rng: np.random.Generator, channels: int) -> dict[str, np.ndarray]:
    if not is_count(channels, 1):
        raise ParameterError(f"channels must be an integer >= 1, got {channels!r}")
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


def similarity(f_p: Tensor, f_i: Tensor, transform: AlignmentTransform,
               mode: str = "learnable") -> Tensor:
    """N x M logits between row-normalized features, divided by temperature.

    One ``similarity`` node on the unit rows x, y of f_p, f_i. With c = 1/T,
    logits = (c x W) y^T in learnable mode and (c x) y^T in cosine mode (no
    W, and B gets no gradient); the node keeps c x W. With gy = c g y:
    dx = gy W, dy = g^T (c x W) and dB = (dW + dW^T) / 2 for dW = x^T gy;
    dx, dy pull back through the norms. c scales only N x C arrays.
    """
    if not (isinstance(mode, str) and mode in ALIGNMENT_MODES):
        raise ParameterError(f"unknown alignment mode {mode!r}")
    x, x_back = _unit_rows(f_p.value, "point feature")
    y, y_back = _unit_rows(f_i.value, "pixel feature")
    c = 1.0 / transform.temperature
    w = transform.matrix() if mode == "learnable" else None
    if x.shape[1] != y.shape[1] or (w is not None and w.shape != (x.shape[1],) * 2):
        raise ShapeError(f"similarity: features {x.shape} vs {y.shape}, raw {transform.raw.shape}")
    xw = (x if w is None else x @ w) * c

    def backward(g):
        gy = g @ y
        gy *= c
        grads = x_back(gy if w is None else gy @ w), y_back(g.T @ xw)
        if w is None:
            return grads
        dw = x.T @ gy
        return (*grads, (dw + dw.T) * 0.5)

    inputs = (f_p, f_i) if w is None else (f_p, f_i, transform.raw)
    return ad.record("similarity", inputs, backward, xw @ y.T)


def infonce_loss(logits: Tensor, pairs: PairSet, direction: str = "point_to_pixel") -> Tensor:
    """Mean contrastive term over usable (anchor, positive) pairs.

    Point anchors take every pixel as a candidate, pixel anchors every
    overlapping point. Each positive contributes one term whose denominator
    holds that positive plus the anchor's negatives: its candidates outside
    its near list. Anchors lacking a positive or a negative are skipped;
    an empty anchor set is a degenerate batch.

    One ``infonce`` node on the overlapping points' rows of the logits, a
    block that holds every candidate pair of both directions: point anchors
    are its rows and pixel anchors its columns, so a direction is the axis
    it reduces along. The pairs, flat indices ``i * M + pixel`` into this
    block for the i-th point of ``overlap_points``, mask it by 1-D takes and
    puts: a pair's point anchor is its index // M and its pixel anchor its
    index % M. The backward writes its gradient over the block of exps and
    hands it to the tape as a :class:`~neucalib.autodiff.Block` of those
    rows. The pairs checked their own rule when built
    (:class:`~neucalib.scene.PairSet`); here ``pairs.n_pixels`` must be M
    and the last overlapping point below N. Annulus entries (near but not
    positive) are -inf for the per-anchor max, so they weigh nothing however
    large they are, and 0 before and after the exp, which runs several times
    slower on -inf. With K terms, D_k the denominator of term k and
    e = exp(shifted logits), the gradient at anchor a is
    e_aj * sum_{k in P(a)} 1 / D_k / K at each negative j and
    (e_ap / D_k - 1) / K at each positive p.
    """
    if not (isinstance(direction, str) and direction in ("point_to_pixel", "pixel_to_point")):
        raise ParameterError(f"unknown InfoNCE direction {direction!r}")
    cands, near, (n, m) = pairs.overlap_points, pairs.near, logits.shape
    if pairs.n_pixels != m or (cands.size and cands[-1] >= n):
        raise ParameterError(f"pairs of {pairs.n_pixels} pixels and points {cands[-1:]} do not "
                             f"fit logits of {n} rows, {m} columns")
    # the block axis along which an anchor's candidates lie
    axis, n_anchors, width = (1, cands.size, m) if direction == "point_to_pixel" \
        else (0, m, cands.size)
    pos_anchor, near_anchor = (pairs.positives // m, near // m) if axis == 1 \
        else (pairs.positives % m, near % m)
    n_pos, n_near = (np.bincount(a, minlength=n_anchors) for a in (pos_anchor, near_anchor))
    keep = ((n_pos > 0) & (n_near < width))[pos_anchor]
    terms, a_idx = pairs.positives[keep], pos_anchor[keep]  # ascending, so in row-major order
    if terms.size == 0:
        raise DegenerateBatchError(f"no usable {direction} anchors")
    block = logits.value[cands]  # a C-ordered copy
    flat = block.reshape(-1)  # a view, for the 1-D takes and puts
    term_vals = flat[terms]
    flat[near] = -np.inf
    flat[terms] = term_vals
    # per-anchor max over its own positives and negatives keeps every exp
    # below 1; subtracting a constant leaves the gradient exact. An unusable
    # anchor may have no candidate left, and any finite shift serves it
    peak = block.max(axis=axis, keepdims=True)
    peak[np.isneginf(peak)] = 0.0
    block -= peak
    term_shifted = flat[terms]
    flat[near] = 0.0
    neg_exp = np.exp(block, out=block)
    flat[near] = 0.0
    term_exp = np.exp(term_shifted)
    denom = term_exp + neg_exp.sum(axis=axis)[a_idx]
    if np.any(denom <= 0.0):
        raise DomainError(f"{direction} InfoNCE denominator underflowed to zero")
    value = np.array([[(np.log(denom) - term_shifted).sum() / terms.size]])

    def backward(g):
        scale = g[0, 0] / terms.size
        grad = neg_exp  # no later node reads the exps, so the gradient takes their block
        weight = np.bincount(a_idx, weights=1.0 / denom, minlength=n_anchors) * scale
        grad *= np.expand_dims(weight, axis)
        flat[terms] = (term_exp / denom - 1.0) * scale  # a positive's exp was zeroed
        return (ad.Block(cands, grad, (n, m)),)  # the closure holds no Tensor and no logits

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
    if not all(((y >= 0.0) & (y <= 1.0)).all() for y in (point_labels, pixel_labels)):
        raise ParameterError("overlap labels must lie in [0, 1]")  # NaN fails the test too
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


@dataclass(frozen=True)
class OverlapSelection:
    """The points and pixels that the pose stage matches.

    It checks its rule where it is built, or raises ``ParameterError``: both
    index fields are index sets (``errors.index_set``); :func:`match_coords`
    checks that they fit its logits. A fallback flag is set when that side
    came from the ground-truth mask.
    """

    point_indices: np.ndarray
    pixel_indices: np.ndarray
    point_fallback: bool
    pixel_fallback: bool

    def __post_init__(self):
        index_set(self.point_indices, "point indices")
        index_set(self.pixel_indices, "pixel indices")


def threshold_overlap(s_p: Tensor, s_i: Tensor, theta_p: float, theta_i: float,
                      gt_point_mask, gt_pixel_mask) -> OverlapSelection:
    """Index sets of entities whose n x 1 scores exceed the thresholds.

    An empty selection falls back to the ground-truth mask so the pose
    stage never starves; the fallback is recorded in the result. Each mask
    must be a bool array with one entry per score.
    """
    thetas = real_array((theta_p, theta_i), "overlap thresholds", ParameterError)
    if not (thetas.shape == (2,) and ((0.0 < thetas) & (thetas < 1.0)).all()):
        raise ParameterError("overlap thresholds must lie in (0, 1)")
    sides = []  # (indices, fallback) of the points, then of the pixels
    for scores, theta, mask, what in ((s_p, theta_p, gt_point_mask, "point"),
                                      (s_i, theta_i, gt_pixel_mask, "pixel")):
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool
                and mask.shape == (scores.shape[0],)):
            raise ParameterError(f"{what} fallback mask must be a bool array of {scores.shape[0]}")
        picked = np.flatnonzero(scores.value[:, 0] > theta)
        sides.append((picked, False) if picked.size else (np.flatnonzero(mask), True))
    (points, point_fallback), (pixels, pixel_fallback) = sides
    return OverlapSelection(points, pixels, point_fallback, pixel_fallback)


def match_coords(logits: Tensor, selection: OverlapSelection, centers: np.ndarray,
                 mode: str = "soft") -> Tensor:
    """Predicted pixel coordinates of the selected points over the selected
    pixels, from the selected rows of the logits.

    The selection checked its index sets when built; here both must be non-
    empty (else a DegenerateBatchError) and inside the N x M logits, and
    ``centers`` M x 2 real numbers (else a ParameterError). Soft mode
    predicts the softmax-weighted mean of the pixel centers; the softmax runs
    on the (already temperature-scaled) logits. Pixels left out of the
    selection are -inf for each row's max and 0 before the exp, so that it
    sees only finite input; their rows of [c | 1] are zero. Each row is
    shifted by its max and exponentiated in place, to e, and one matmul
    e [c | 1] gives e c and the row sums s: the value is e c / s, and W = e / s
    is never formed. It records one ``soft_match`` node that keeps e,
    [c | 1], s and the value. With r = rowsum(g * value), the gradient
    W (g c^T - r) = e * ([g / s | -r / s] [c | 1]^T), zero at left-out
    pixels, is written over e and handed to the tape as an
    :class:`~neucalib.autodiff.Block` of the selected rows. Hard mode takes
    each row's argmax pixel (ties to the first selected one) as a constant.
    """
    if not (isinstance(mode, str) and mode in ("soft", "hard")):
        raise ParameterError(f"unknown match mode {mode!r}")
    n, m = logits.shape
    rows, cols = selection.point_indices, selection.pixel_indices
    if rows.size == 0 or cols.size == 0:
        raise DegenerateBatchError("empty overlap selection for matching")
    centers = real_array(centers, "centers", ParameterError)
    if rows[-1] >= n or cols[-1] >= m or centers.shape != (m, 2):
        raise ParameterError(f"selection reaches point {rows[-1]} and pixel {cols[-1]}, centers "
                             f"have shape {centers.shape}: logits are {n} x {m}")
    left = np.ones(m, dtype=bool)
    left[cols] = False
    block = logits.value[rows]  # a C-ordered copy
    if cols.size < m:  # a full selection masks nothing
        np.copyto(block, -np.inf, where=left)
    if mode == "hard":
        return ad.constant(centers[np.argmax(block, axis=1)])
    pix = np.where(left[:, None], 0.0, np.column_stack([centers, np.ones(m)]))  # [c | 1]
    block -= block.max(axis=1, keepdims=True)
    if cols.size < m:
        np.copyto(block, 0.0, where=left)
    e = np.exp(block, out=block)
    r = e @ pix  # [e c | s]
    s = r[:, 2:]
    out = r[:, :2] / s

    def backward(g):
        gd = np.column_stack([g, -np.einsum("ij,ij->i", g, out)]) / s
        grad = np.multiply(e, gd @ pix.T, out=e)  # no later node reads e
        return (ad.Block(rows, grad, (n, m)),)

    return ad.record("soft_match", (logits,), backward, out)
