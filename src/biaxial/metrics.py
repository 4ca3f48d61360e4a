"""Training objectives (masked forecast loss, weighted BCE) and ranking metrics.

The losses operate on autodiff tensors so they can be minimized; the AUC
metrics are plain numpy evaluation code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from biaxial import autodiff as ad
from biaxial.autodiff import Tensor

PROB_CLAMP = 1e-7


class UndefinedMetricError(ValueError):
    """Raised when a ranking metric is undefined for the given labels."""


@dataclass
class MetricReport:
    """AUC scores on one evaluation set (fractions in [0, 1])."""
    auc_roc: float
    auc_pr: float
    n_pos: int
    n_neg: int
    prevalence: float


def masked_forecast_loss(pred: Tensor, target: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean over patients of the squared Frobenius norm of masked residuals.

    Only cells where `mask` is true contribute; an all-false mask
    contributes zero for that patient. Shapes are (batch, D, H).
    """
    if pred.shape != target.shape or pred.shape != mask.shape:
        raise ValueError(
            f"shape mismatch: pred {pred.shape}, target {target.shape}, mask {mask.shape}"
        )
    n = pred.shape[0]
    if n == 0:
        raise ValueError("masked forecast loss over an empty batch")
    diff = ad.sub(pred, ad.tensor(np.asarray(target, dtype=np.float64)))
    masked_sq = ad.mul(ad.mul(diff, diff), ad.tensor(mask.astype(np.float64)))
    return ad.mul(ad.sum_reduce(masked_sq), ad.tensor(1.0 / n))


def _clamp_probs(probs: Tensor, lo: float = PROB_CLAMP) -> Tensor:
    # clip realized as mask multiplies so the gradient passes through
    # in-range coordinates and is zero elsewhere
    hi = 1.0 - lo
    inside = ((probs.data > lo) & (probs.data < hi)).astype(np.float64)
    below = (probs.data <= lo).astype(np.float64)
    above = (probs.data >= hi).astype(np.float64)
    return ad.add(ad.mul(probs, ad.tensor(inside)),
                  ad.tensor(below * lo + above * hi))


def weighted_bce(probs: Tensor, labels: np.ndarray, pos_weight: float = 1.0) -> Tensor:
    """Class-weighted binary cross-entropy over probabilities.

    pos_weight scales the positive-label term only; pos_weight = 1 is the
    plain mean BCE. Probabilities are clamped to [1e-7, 1 - 1e-7] before
    the logs.
    """
    n = probs.shape[0] if probs.ndim else probs.size
    if n == 0:
        raise ValueError("binary cross-entropy over an empty batch")
    if pos_weight <= 0:
        raise ValueError("pos_weight must be positive")
    y = np.asarray(labels, dtype=np.float64)
    p = _clamp_probs(probs)
    pos_term = ad.mul(ad.log(p), ad.tensor(pos_weight * y))
    neg_term = ad.mul(ad.log(ad.sub(ad.tensor(np.ones_like(y)), p)), ad.tensor(1.0 - y))
    return ad.mul(ad.sum_reduce(ad.add(pos_term, neg_term)), ad.tensor(-1.0 / n))


def pos_weight_for(labels) -> float:
    """n_neg / n_pos of a training split (the weighted-loss default);
    undefined unless the split holds both classes."""
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        missing = "positive" if n_pos == 0 else "negative"
        raise UndefinedMetricError(f"cannot derive pos_weight: no {missing} labels")
    return n_neg / n_pos


def _binary_labels(labels) -> np.ndarray:
    y = np.asarray(labels)
    bad = y[~np.isin(y, (0, 1))]
    if bad.size:
        raise ValueError(f"labels must be 0 or 1, got {bad[0]}")
    return y


def auc_roc(scores, labels) -> float:
    """P(score_pos > score_neg) + 0.5 * P(tie), via the rank statistic."""
    s = np.asarray(scores, dtype=np.float64)
    y = _binary_labels(labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC-ROC undefined: {n_pos} positives, {n_neg} negatives"
        )
    order = np.argsort(s, kind="mergesort")
    sorted_s = s[order]
    # midranks: the run of equal scores at sorted positions i..j gets (i + j) / 2 + 1
    first = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    last = np.r_[first[1:], len(s)] - 1
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    rank_sum_pos = ranks[y == 1].sum()
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auc_pr(scores, labels) -> float:
    """Area under the precision-recall curve with stepwise interpolation.

    Thresholds sweep the distinct scores from high to low; each recall
    increment contributes its precision (right-continuous steps, the
    average-precision convention). Ties share one threshold bucket, so
    constant scores yield the prevalence.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = _binary_labels(labels)
    n_pos = int((y == 1).sum())
    if n_pos == 0:
        raise UndefinedMetricError("AUC-PR undefined: no positive labels")
    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    y_sorted = y[order]
    tp = np.cumsum(y_sorted == 1)
    predicted = np.arange(1, len(s) + 1)
    # bucket boundaries: last index of each distinct score
    distinct = np.ones(len(s), dtype=bool)
    distinct[:-1] = s_sorted[:-1] != s_sorted[1:]
    tp_b = tp[distinct]
    pred_b = predicted[distinct]
    precision = tp_b / pred_b
    recall = tp_b / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * precision).sum())


def evaluate_probs(probs, labels) -> MetricReport:
    """Bundle both AUCs plus class counts for one scored evaluation set."""
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    return MetricReport(
        auc_roc=auc_roc(probs, labels),
        auc_pr=auc_pr(probs, labels),
        n_pos=n_pos,
        n_neg=n_neg,
        prevalence=n_pos / max(n_pos + n_neg, 1),
    )

