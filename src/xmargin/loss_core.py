"""Loss kernels for binary classification.

Implements the Xtreme Margin loss (a tunable margin loss over predicted
probabilities), plus binary cross-entropy and hinge baselines. Every loss
comes with a per-instance generalized derivative with respect to the
predicted probability, with explicit branch bookkeeping for the piecewise
Xtreme Margin definition.

Conventions: labels are 0/1 with '1' the default class; ``y`` is always the
predicted probability of the default class.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

E = math.e

# clamp applied to probabilities before logarithms in BCE
BCE_CLIP = 1e-7


class LossFamily(enum.Enum):
    XTREME_MARGIN = "xtreme_margin"
    BCE = "bce"
    HINGE = "hinge"

    @classmethod
    def parse(cls, name: str) -> "LossFamily":
        key = name.strip().lower().replace("-", "_")
        aliases = {
            "xtreme_margin": cls.XTREME_MARGIN,
            "xm": cls.XTREME_MARGIN,
            "xtrememargin": cls.XTREME_MARGIN,
            "bce": cls.BCE,
            "binary_cross_entropy": cls.BCE,
            "binarycrossentropy": cls.BCE,
            "hinge": cls.HINGE,
        }
        if key not in aliases:
            raise ValueError(f"unknown loss family: {name!r}")
        return aliases[key]


class Branch(enum.Enum):
    """Which piece of the Xtreme Margin definition fired."""

    CORRECT_NON_DEFAULT = "correct_non_default"
    CORRECT_DEFAULT = "correct_default"
    MISCLASSIFIED = "misclassified"
    # measure-zero case: the 0.5 threshold calls the prediction correct but
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


@dataclass(frozen=True)
class PredictionRecord:
    """One instance: predicted probability, true label, derived hard label."""

    y: float
    y_true: int
    y_pred: int = field(init=False)

    def __post_init__(self):
        _check_prob(self.y)
        _check_label(self.y_true)
        object.__setattr__(self, "y_pred", predict_label(self.y))


def _check_prob(y: float) -> None:
    if not (isinstance(y, (int, float, np.floating, np.integer))
            and math.isfinite(float(y)) and 0.0 <= float(y) <= 1.0):
        raise ValueError(f"probability must be finite in [0, 1], got {y!r}")


def _check_label(y_true) -> None:
    if y_true not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y_true!r}")


def predict_label(y: float) -> int:
    """Threshold a probability into a hard label; 0.5 goes to class 1."""
    _check_prob(y)
    return 1 if y >= 0.5 else 0


def sigma(y: float, y_true: int) -> float:
    """Misclassification penalty term: 0 when |y - y_true| < 0.5, else
    e^{-|y_true - y|} - 1 (a value in (1/e - 1, 0])."""
    _check_prob(y)
    _check_label(y_true)
    gap = abs(float(y) - y_true)
    if gap < 0.5:
        return 0.0
    return math.exp(-gap) - 1.0


def indicator_terms(y_true: int, y_pred: int) -> tuple[int, int]:
    """(i1, i2): i1 flags a correct non-default prediction, i2 a correct
    default prediction. At most one is set."""
    _check_label(y_true)
    _check_label(y_pred)
    i1 = 1 if (y_true == y_pred and y_true == 0) else 0
    i2 = 1 if (y_true == y_pred and y_true == 1) else 0
    return i1, i2


def gamma(y: float, y_true: int, params: LossParams) -> float:
    """Extreme margin term: lambda * (2y - 1)^2 on correct predictions,
    with lambda chosen by the true class; 0 on misclassifications."""
    _check_prob(y)
    _check_label(y_true)
    i1, i2 = indicator_terms(y_true, predict_label(y))
    m = (2.0 * float(y) - 1.0) ** 2
    return i1 * params.lambda1 * m + i2 * params.lambda2 * m


def _branch_of(y: float, y_true: int) -> Branch:
    gap = abs(float(y) - y_true)
    if gap < 0.5:
        return Branch.CORRECT_NON_DEFAULT if y_true == 0 else Branch.CORRECT_DEFAULT
    # distance condition fires; the threshold rule may still call it correct
    if predict_label(y) == y_true:
        return Branch.SIGMA_BOUNDARY
    return Branch.MISCLASSIFIED


def xtreme_margin_loss(y: float, y_true: int, params: LossParams) -> LossValue:
    """Evaluate the Xtreme Margin loss 1 / (1 + sigma + gamma) for one
    instance, recording the active branch and the branch derivative.

    On the misclassified (and boundary) piece the value algebraically
    equals e^{|y_true - y|}; the overall range is (0, e].
    """
    _check_prob(y)
    _check_label(y_true)
    branch = _branch_of(y, y_true)
    value = 1.0 / (1.0 + sigma(y, y_true) + gamma(y, y_true, params))
    return LossValue(value=value,
                     subgradient_dy=xtreme_margin_subgrad(y, y_true, params),
                     branch=branch)


def xtreme_margin_subgrad(y: float, y_true: int, params: LossParams) -> float:
    """Derivative of the active piece with respect to y.

    Correct piece: d/dy 1/(1 + lam*(2y-1)^2) = -4*lam*(2y-1)/(1+lam*(2y-1)^2)^2.
    Misclassified/boundary piece: d/dy e^{|y_true - y|} = e^{|y_true-y|} * sign(y - y_true).
    At exact branch switches the selected branch's one-sided derivative is
    returned.
    """
    _check_prob(y)
    _check_label(y_true)
    yf = float(y)
    branch = _branch_of(yf, y_true)
    if branch in (Branch.MISCLASSIFIED, Branch.SIGMA_BOUNDARY):
        gap = abs(y_true - yf)
        sign = 1.0 if yf > y_true else -1.0
        return math.exp(gap) * sign
    lam = params.lambda1 if y_true == 0 else params.lambda2
    m = 2.0 * yf - 1.0
    denom = 1.0 + lam * m * m
    return -4.0 * lam * m / (denom * denom)


def bce_loss(y: float, y_true: int) -> tuple[float, float]:
    """Binary cross-entropy with its derivative d/dy.

    The probability is clamped to [BCE_CLIP, 1 - BCE_CLIP] before the
    logarithms, so no infinities can escape.
    """
    _check_prob(y)
    _check_label(y_true)
    p = min(max(float(y), BCE_CLIP), 1.0 - BCE_CLIP)
    value = -(y_true * math.log(p) + (1 - y_true) * math.log(1.0 - p))
    deriv = -(y_true / p) + (1 - y_true) / (1.0 - p)
    return value, deriv


def hinge_loss(y: float, y_true: int) -> tuple[float, float]:
    """Margin hinge loss on the signed score s = 2y - 1 with target
    t = 2*y_true - 1: max(0, 1 - t*s). Subgradient 0 at the kink."""
    _check_prob(y)
    _check_label(y_true)
    t = 2.0 * y_true - 1.0
    s = 2.0 * float(y) - 1.0
    margin = 1.0 - t * s
    if margin > 0.0:
        return margin, -2.0 * t
    return 0.0, 0.0


def loss_and_grad(y: float, y_true: int, params: LossParams) -> tuple[float, float]:
    """Dispatch on the loss family; returns (value, d value / d y)."""
    if params.family is LossFamily.XTREME_MARGIN:
        lv = xtreme_margin_loss(y, y_true, params)
        return lv.value, lv.subgradient_dy
    if params.family is LossFamily.BCE:
        return bce_loss(y, y_true)
    return hinge_loss(y, y_true)


def batch_loss(records: Sequence[PredictionRecord], params: LossParams) -> float:
    """Arithmetic mean of per-instance loss values over a non-empty batch."""
    if len(records) == 0:
        raise ValueError("batch_loss requires a non-empty batch")
    return float(np.mean([loss_and_grad(r.y, r.y_true, params)[0] for r in records]))


# ---------------------------------------------------------------------------
# vectorized kernels (used by the training loop and the bulk range checks)
# ---------------------------------------------------------------------------

def xtreme_margin_loss_vec(y: np.ndarray, y_true: np.ndarray,
                           lambda1: float, lambda2: float) -> np.ndarray:
    """Vectorized Xtreme Margin loss values for probability/label arrays."""
    return loss_and_grad_vec(y, y_true, LossParams(lambda1, lambda2))[0]


def loss_and_grad_vec(y: np.ndarray, y_true: np.ndarray,
                      params: LossParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (values, d/dy) for a batch, dispatching on the family.

    Matches the scalar functions branch for branch, including the one-sided
    derivative convention at branch switches.
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

    # One pass over shared intermediates. Where |y - y_true| >= 0.5 (the
    # misclassified and sigma-boundary pieces) gamma is 0, so the value
    # 1/(1 + e^{-gap} - 1) is e^{gap}; elsewhere sigma is 0 and the
    # prediction is correct, so the value is 1/(1 + lam*(2y-1)^2).
    gap = np.abs(y - yt)
    sigma_active = gap >= 0.5
    egap = np.exp(gap)
    lam = np.where(yt == 0.0, params.lambda1, params.lambda2)
    m = 2.0 * y - 1.0
    lam_m = lam * m
    denom = 1.0 + lam_m * m
    vals = np.where(sigma_active, egap, 1.0 / denom)
    grads = np.where(sigma_active, np.where(y > yt, egap, -egap),
                     -4.0 * lam_m / (denom * denom))
    return vals, grads
