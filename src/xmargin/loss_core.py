"""Loss kernels for binary classification.

Implements the Xtreme Margin loss (a tunable margin loss over predicted
probabilities), plus binary cross-entropy and hinge baselines. Every loss
comes with a per-instance generalized derivative with respect to the
predicted probability, with explicit branch bookkeeping for the piecewise
Xtreme Margin definition. `loss_and_grad_vec` is the one implementation of
the losses; the per-instance functions are checked length-1 calls into it.

Conventions: labels are 0/1 with '1' the default class; ``y`` is always the
predicted probability of the default class.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

# clamp applied to probabilities before logarithms in BCE
BCE_CLIP = 1e-7


class LossFamily(enum.Enum):
    XTREME_MARGIN = "xtreme_margin"
    BCE = "bce"
    HINGE = "hinge"


class Branch(enum.Enum):
    """Which piece of the Xtreme Margin definition fired."""

    CORRECT_NON_DEFAULT = "correct_non_default"
    CORRECT_DEFAULT = "correct_default"
    MISCLASSIFIED = "misclassified"
    # measure-zero case: `hard_labels` calls the prediction correct but
    # the distance condition routes it through the misclassification penalty
    SIGMA_BOUNDARY = "sigma_boundary"


@dataclass(frozen=True)
class LossParams:
    """Tunable hyperparameters of the loss.

    lambda1 weights correct non-default-class (label 0) predictions,
    lambda2 weights correct default-class (label 1) predictions. Both are
    stored but ignored for the BCE and hinge families.
    """

    lambda1: float = 1.0
    lambda2: float = 1.0
    family: LossFamily = LossFamily.XTREME_MARGIN

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class LossValue:
    value: float
    subgradient_dy: float
    branch: Branch


def _check_prob(y: float) -> None:
    if not (isinstance(y, (int, float, np.floating, np.integer))
            and math.isfinite(float(y)) and 0.0 <= float(y) <= 1.0):
        raise ValueError(f"probability must be finite in [0, 1], got {y!r}")


def _check_label(y_true) -> None:
    if y_true not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y_true!r}")


def gamma(y: float, y_true: int, params: LossParams) -> float:
    """Extreme margin term: lambda * (2y - 1)^2 on correct predictions,
    with lambda chosen by the true class; 0 where |y - y_true| >= 0.5 (a
    misclassification, or y = 0.5, where the term is 0 either way)."""
    _check_prob(y)
    _check_label(y_true)
    if abs(float(y) - y_true) >= 0.5:
        return 0.0
    lam = params.lambda1 if y_true == 0 else params.lambda2
    return lam * (2.0 * float(y) - 1.0) ** 2


def xtreme_margin_loss(y: float, y_true: int, params: LossParams) -> LossValue:
    """Evaluate the Xtreme Margin loss 1 / (1 + sigma + gamma) for one
    instance, recording the active branch and the branch derivative.

    On the misclassified (and boundary) piece the value algebraically
    equals e^{|y_true - y|}; the overall range is (0, e]. The family in
    ``params`` is ignored.
    """
    value, deriv = loss_and_grad(y, y_true, _margin(params))
    return LossValue(value=value, subgradient_dy=deriv,
                     branch=branches([y], [y_true])[0])


def xtreme_margin_subgrad(y: float, y_true: int, params: LossParams) -> float:
    """Derivative of the active Xtreme Margin piece with respect to y (the
    family in ``params`` is ignored).

    Correct piece: d/dy 1/(1 + lam*(2y-1)^2) = -4*lam*(2y-1)/(1+lam*(2y-1)^2)^2.
    Misclassified/boundary piece: d/dy e^{|y_true - y|} = e^{|y_true-y|} * sign(y - y_true).
    At exact branch switches the selected branch's one-sided derivative is
    returned.
    """
    return loss_and_grad(y, y_true, _margin(params))[1]


def loss_and_grad(y: float, y_true: int, params: LossParams) -> tuple[float, float]:
    """(value, d value / d y) for one instance: a checked length-1 call into
    `loss_and_grad_vec`, dispatching on the loss family."""
    _check_prob(y)
    _check_label(y_true)
    vals, grads = loss_and_grad_vec([float(y)], [y_true], params)
    return float(vals[0]), float(grads[0])


def _margin(params: LossParams) -> LossParams:
    if params.family is LossFamily.XTREME_MARGIN:
        return params
    return replace(params, family=LossFamily.XTREME_MARGIN)


# ---------------------------------------------------------------------------
# vectorized kernels: the one implementation of every loss, used by the
# training loop, the bulk range checks and the scalar functions above
# ---------------------------------------------------------------------------

# indexed by 2 * far + agree, as `branches` computes them
_BRANCHES = np.array([Branch.CORRECT_NON_DEFAULT, Branch.CORRECT_DEFAULT,
                      Branch.MISCLASSIFIED, Branch.SIGMA_BOUNDARY], dtype=object)


def hard_labels(y) -> np.ndarray:
    """Each probability's predicted class as a bool array: True (class 1) iff y >= 0.5."""
    return np.asarray(y) >= 0.5


def branches(y, y_true) -> np.ndarray:
    """The Xtreme Margin piece each instance is in, as an object array of
    `Branch`: |y - y_true| >= 0.5 selects the exponential piece, where
    `hard_labels` tells SIGMA_BOUNDARY from MISCLASSIFIED; otherwise the
    true class names the correct piece."""
    y = np.asarray(y, dtype=float)
    yt = np.asarray(y_true, dtype=float)
    far = np.abs(y - yt) >= 0.5
    agree = np.where(far, hard_labels(y) == (yt == 1.0), yt == 1.0)
    return _BRANCHES[2 * far + agree]


def xtreme_margin_loss_vec(y: np.ndarray, y_true: np.ndarray,
                           lambda1: float, lambda2: float) -> np.ndarray:
    """Vectorized Xtreme Margin loss values for probability/label arrays."""
    return loss_and_grad_vec(y, y_true, LossParams(lambda1, lambda2))[0]


def loss_and_grad_vec(y: np.ndarray, y_true: np.ndarray,
                      params: LossParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (values, d/dy) for a batch, dispatching on the family.

    The Xtreme Margin pieces are chosen as `branches` chooses them; at a
    branch switch the selected piece's one-sided derivative is returned.
    """
    y = np.asarray(y, dtype=float)
    yt = np.asarray(y_true, dtype=float)
    if params.family is LossFamily.BCE:
        p = np.clip(y, BCE_CLIP, 1.0 - BCE_CLIP)
        vals = -(yt * np.log(p) + (1.0 - yt) * np.log1p(-p))
        grads = -(yt / p) + (1.0 - yt) / (1.0 - p)
        return vals, grads
    if params.family is LossFamily.HINGE:
        t = 2.0 * yt - 1.0
        s = 2.0 * y - 1.0
        margin = 1.0 - t * s
        active = margin > 0.0
        return np.where(active, margin, 0.0), np.where(active, -2.0 * t, 0.0)

    # Where |y - y_true| >= 0.5 gamma is 0, so the value 1/(1 + e^{-gap} - 1)
    # is e^{gap}; elsewhere sigma is 0 and the prediction is correct.
    diff = y - yt
    gap = np.abs(diff)
    correct, misclassified, d_correct, d_misclassified = pieces(y, yt, params, diff, gap)
    sigma_active = gap >= 0.5
    return (np.where(sigma_active, misclassified, correct),
            np.where(sigma_active, d_misclassified, d_correct))


def pieces(y, y_true, params: LossParams, diff=None, gap=None) -> tuple[np.ndarray, ...]:
    """(correct, misclassified, d_correct, d_misclassified) at every instance,
    active or not: 1/(1 + lam*(2y-1)^2), lam chosen by the true class, and
    e^{|y_true - y|}, with their derivatives d/dy. At y == y_true, where the
    correct piece is the active one, the exponential piece's derivative is
    the one from the right, +1. A caller that has diff = y - y_true and
    gap = |diff| passes both; otherwise they are computed here."""
    if diff is None:
        diff = np.subtract(y, y_true)
        gap = np.abs(diff)
    egap = np.exp(gap)
    lam = np.where(y_true == 0.0, params.lambda1, params.lambda2)
    m = 2.0 * y - 1.0
    lam_m = lam * m
    denom = 1.0 + lam_m * m
    return 1.0 / denom, egap, -4.0 * lam_m / (denom * denom), np.copysign(egap, diff)
