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
from .errors import DegenerateBatchError, NormalizationError, ParameterError
from .scene import PairSet

PROB_CLAMP = 1e-7  # BCE probability floor/ceiling before the log

ALIGNMENT_MODES = ("learnable", "cosine")
MATCH_MODES = ("soft", "hard")


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
    """Unit-normalize each row; zero rows are a hard error."""
    norms_sq = ad.reduce(ad.mul(f, f), "sum", "cols")  # m x 1
    zero = np.flatnonzero(norms_sq.value[:, 0] <= 0.0)
    if zero.size:
        raise NormalizationError(f"zero-norm {what} row at index {zero[0]}")
    ones_row = ad.constant(np.ones((1, f.shape[1])))
    return ad.div(f, ad.matmul(ad.sqrt(norms_sq), ones_row))


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

    Each positive contributes one term whose denominator holds that
    positive plus the anchor's negatives. Anchors lacking a positive or a
    negative are skipped (counted in the pair set); an empty anchor set is
    a degenerate batch.
    """
    if direction == "point_to_pixel":
        l, pos, neg = logits, pairs.pos_mask, pairs.neg_mask
    elif direction == "pixel_to_point":
        l, pos, neg = ad.transpose(logits), pairs.pos_mask.T, pairs.neg_mask.T
    else:
        raise ParameterError(f"unknown InfoNCE direction {direction!r}")

    usable = pos.any(axis=1) & neg.any(axis=1)
    anchors = np.flatnonzero(usable)
    if anchors.size == 0:
        raise DegenerateBatchError(f"no usable {direction} anchors")

    vals = l.value
    # per-anchor max over its own positives and negatives keeps every exp
    # below 1; subtracting a constant leaves the gradient exact
    row_max = np.where(pos | neg, vals, -np.inf).max(axis=1)
    shift = np.where(np.isfinite(row_max), row_max, 0.0)[:, None]

    shifted = ad.sub(l, ad.constant(np.broadcast_to(shift, vals.shape).copy()))
    exp_all = ad.exp(shifted)
    neg_sums = ad.matmul(ad.mul(exp_all, ad.constant(neg.astype(float))),
                         ad.constant(np.ones((vals.shape[1], 1))))  # rows x 1

    a_idx, p_idx = np.nonzero(pos[anchors])
    a_idx = anchors[a_idx]
    pos_shifted = ad.gather_elements(shifted, a_idx, p_idx)  # K x 1
    pos_exp = ad.exp(pos_shifted)
    denom = ad.add(pos_exp, ad.gather_rows(neg_sums, a_idx))
    terms = ad.sub(ad.log(denom), pos_shifted)
    return ad.reduce(terms, "mean")


def overlap_scores(f_p: Tensor, f_i: Tensor, p) -> tuple[Tensor, Tensor]:
    """Per-entity logistic heads on the fused features, scores in (0, 1)."""

    def head(f, name):
        logits = ad.matmul(f, p[f"overlap.{name}.w"])
        ones = ad.constant(np.ones((f.shape[0], 1)))
        return ad.sigmoid(ad.add(logits, ad.matmul(ones, p[f"overlap.{name}.b"])))

    return head(f_p, "point"), head(f_i, "pixel")


def overlap_bce_loss(s_p: Tensor, s_i: Tensor, point_labels, pixel_labels) -> Tensor:
    """Mean BCE over points plus mean BCE over pixels."""
    point_labels = np.asarray(point_labels, dtype=float).reshape(-1, 1)
    pixel_labels = np.asarray(pixel_labels, dtype=float).reshape(-1, 1)
    if s_p.shape[0] != point_labels.shape[0] or s_i.shape[0] != pixel_labels.shape[0]:
        raise ParameterError("overlap label lengths do not match score lengths")

    def bce(scores, labels):
        s = ad.clip(scores, PROB_CLAMP, 1.0 - PROB_CLAMP)
        y = ad.constant(labels)
        one_minus_y = ad.constant(1.0 - labels)
        ones = ad.constant(np.ones_like(labels))
        term = ad.add(ad.mul(y, ad.log(s)),
                      ad.mul(one_minus_y, ad.log(ad.sub(ones, s))))
        return ad.negate(ad.reduce(term, "mean"))

    return ad.add(bce(s_p, point_labels), bce(s_i, pixel_labels))


@dataclass
class OverlapSelection:
    point_indices: np.ndarray
    pixel_indices: np.ndarray
    point_fallback: bool
    pixel_fallback: bool


def threshold_overlap(s_p, s_i, theta_p: float, theta_i: float,
                      gt_point_mask=None, gt_pixel_mask=None,
                      min_points: int = 1) -> OverlapSelection:
    """Index sets of entities whose scores exceed the thresholds.

    When ground-truth masks are supplied, a selection that is empty (or has
    fewer points than ``min_points``) falls back to the ground truth so the
    pose stage never starves; the fallback is recorded in the result.
    """
    if not (0.0 < theta_p < 1.0 and 0.0 < theta_i < 1.0):
        raise ParameterError("overlap thresholds must lie in (0, 1)")
    sp = s_p.value[:, 0] if isinstance(s_p, Tensor) else np.asarray(s_p, dtype=float).reshape(-1)
    si = s_i.value[:, 0] if isinstance(s_i, Tensor) else np.asarray(s_i, dtype=float).reshape(-1)
    points = np.flatnonzero(sp > theta_p)
    pixels = np.flatnonzero(si > theta_i)
    point_fallback = pixel_fallback = False
    if points.size < min_points and gt_point_mask is not None:
        points = np.flatnonzero(np.asarray(gt_point_mask, dtype=bool))
        point_fallback = True
    if pixels.size == 0 and gt_pixel_mask is not None:
        pixels = np.flatnonzero(np.asarray(gt_pixel_mask, dtype=bool))
        pixel_fallback = True
    return OverlapSelection(points, pixels, point_fallback, pixel_fallback)


def soft_match(logits: Tensor, selection: OverlapSelection, centers: np.ndarray
               ) -> tuple[Tensor, Tensor]:
    """Soft assignment over selected pixels: weights and predicted coords.

    The softmax runs on the (already temperature-scaled) logits.
    """
    if selection.point_indices.size == 0 or selection.pixel_indices.size == 0:
        raise DegenerateBatchError("empty overlap selection for matching")
    sub = ad.gather_cols(ad.gather_rows(logits, selection.point_indices),
                         selection.pixel_indices)
    weights = ad.softmax_rows(sub)
    coords = ad.matmul(weights, ad.constant(centers[selection.pixel_indices]))
    return weights, coords


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
