"""Evaluation metrics: `scores`, a model's one record of its accuracy,
precision/recall and confusion counts, per-class accuracy and AUC, with
explicit undefined markers; conditional accuracy; the all-pairs AUC counted
exactly; an ensemble bias estimator; and the conditional risk of a
prediction under label uncertainty."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loss_core import LossParams, hard_labels, loss_and_grad_vec


def conditional_accuracy(preds, truth, on_class: int) -> float:
    """Accuracy restricted to instances whose true label is ``on_class``."""
    if on_class not in (0, 1):
        raise ValueError("on_class must be 0 or 1")
    preds = np.asarray(preds)
    truth = np.asarray(truth)
    mask = truth == on_class
    if not mask.any():
        raise ValueError(f"undefined conditional accuracy: no instances of class {on_class}")
    return float(np.mean(preds[mask] == on_class))


def auc_brute(scores_pos, scores_neg) -> float:
    """All-pairs AUC definition; ties count one half. Quadratic, used as the
    oracle for `auc`."""
    scores_pos = np.asarray(scores_pos, dtype=float)
    scores_neg = np.asarray(scores_neg, dtype=float)
    if scores_pos.size == 0 or scores_neg.size == 0:
        raise ValueError("both classes must be non-empty")
    wins = 0.0
    for p in scores_pos:
        wins += np.sum(p > scores_neg) + 0.5 * np.sum(p == scores_neg)
    return float(wins / (scores_pos.size * scores_neg.size))


def auc(scores_pos, scores_neg) -> float:
    """The all-pairs AUC, counted exactly: for each positive score, the
    negatives below it and, at one half each, the negatives tied with it,
    found by binary search in the sorted negatives. Every count is an
    integer or a half-integer, so the sum is exact."""
    scores_pos = np.asarray(scores_pos, dtype=float)
    scores_neg = np.sort(np.asarray(scores_neg, dtype=float))
    if scores_pos.size == 0 or scores_neg.size == 0:
        raise ValueError("both classes must be non-empty")
    if np.isnan(scores_pos).any() or np.isnan(scores_neg).any():
        raise ValueError("scores must not be NaN")  # a NaN has no order to count
    below = np.searchsorted(scores_neg, scores_pos, "left")
    tied = np.searchsorted(scores_neg, scores_pos, "right") - below
    return float((below.sum() + 0.5 * tied.sum()) / (scores_pos.size * scores_neg.size))


def scores(probs, truth) -> dict:
    """A model's probabilities `probs` scored against the 0/1 labels `truth`, all from
    one count of tp/fp/tn/fn with class 1 positive and `hard_labels(probs)` the
    predictions; `None` marks a ratio a missing class leaves undefined."""
    probs, truth = np.asarray(probs), np.asarray(truth)
    if probs.shape != truth.shape or probs.size == 0:
        raise ValueError("probs and truth must be equal-length and non-empty")
    if not np.isin(truth, (0, 1)).all():
        raise ValueError("truth must hold only 0 and 1")
    if not ((probs >= 0) & (probs <= 1)).all():  # so that a NaN fails it
        raise ValueError("probs must be probabilities in [0, 1], not NaN")
    preds, pos, neg = hard_labels(probs), truth == 1, truth == 0
    tp, fp = int(np.sum(preds & pos)), int(np.sum(preds & neg))
    tn, fn = int(np.sum(~preds & neg)), int(np.sum(~preds & pos))
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    class0 = tn / (tn + fp) if tn + fp > 0 else None
    return {
        "accuracy": (tp + tn) / (tp + fp + tn + fn),
        "precision": precision, "recall": recall, "tp": tp, "fp": fp, "tn": tn, "fn": fn,
        "conditional_accuracy_class0": class0,
        "conditional_accuracy_class1": recall,  # tp / (tp + fn)
        "auc": None if class0 is None or recall is None else auc(probs[pos], probs[neg]),
    }


@dataclass(frozen=True)
class LabelConfidence:
    """Distribution over the true label of one instance."""

    p0: float
    p1: float

    def __post_init__(self):
        # written so that a NaN fails it
        if not (self.p0 >= 0 and self.p1 >= 0 and abs(self.p0 + self.p1 - 1.0) <= 1e-12):
            raise ValueError(f"confidence must be a distribution, got ({self.p0}, {self.p1})")


def bias_estimate(ensemble_preds, truth) -> float:
    """Squared deviation of the ensemble-expected prediction from the target,
    averaged over the evaluation set.

    ``ensemble_preds`` is (models x instances); order of models is irrelevant.
    """
    preds = np.asarray(ensemble_preds, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if preds.ndim != 2 or preds.shape[0] < 2:
        raise ValueError("ensemble must contain at least 2 models")
    if preds.shape[1] != truth.size:
        raise ValueError("evaluation sets differ between ensemble and truth")
    return float(np.mean((preds.mean(axis=0) - truth) ** 2))


def conditional_risk(y, p0, p1, params: LossParams) -> np.ndarray:
    """Expected loss of predicting probabilities ``y`` under uncertainty
    about the true labels, whose distributions are (p0, p1) per instance
    (arrays, or floats shared by every instance): p0 * L(y, 0) + p1 * L(y, 1)."""
    return (p0 * loss_and_grad_vec(y, 0, params)[0]
            + p1 * loss_and_grad_vec(y, 1, params)[0])
