"""Scalar reference implementation of the losses, kept apart from
`xmargin.loss_core` so the vectorized kernel is checked against code it
does not share.

The Xtreme Margin value is the paper's 1 / (1 + sigma + gamma), built here
from its own scalar terms: the misclassification penalty sigma, the
threshold rule and the indicators I(y_true = y_pred) that switch gamma on.
Its derivative is the per-piece formula, and BCE and hinge use `math.log`,
`math.log1p` and plain branches. Only the package's parameter types and the BCE clamp
are imported.
"""

import math

from xmargin.loss_core import BCE_CLIP, Branch, LossFamily, LossParams


def _prob(y) -> float:
    y = float(y)
    if not (math.isfinite(y) and 0.0 <= y <= 1.0):
        raise ValueError(f"probability must be finite in [0, 1], got {y!r}")
    return y


def predict_label(y: float) -> int:
    """Threshold a probability into a hard label; 0.5 goes to class 1."""
    return 1 if _prob(y) >= 0.5 else 0


def sigma(y: float, y_true: int) -> float:
    """0 when |y - y_true| < 0.5, else e^{-|y_true - y|} - 1."""
    gap = abs(_prob(y) - y_true)
    if gap < 0.5:
        return 0.0
    return math.exp(-gap) - 1.0


def indicator_terms(y_true: int, y_pred: int) -> tuple[int, int]:
    """(i1, i2): a correct non-default (label 0) and a correct default
    (label 1) prediction. At most one is set."""
    return int(y_true == y_pred == 0), int(y_true == y_pred == 1)


def gamma(y: float, y_true: int, params: LossParams) -> float:
    """i1 * lambda1 * (2y - 1)^2 + i2 * lambda2 * (2y - 1)^2."""
    i1, i2 = indicator_terms(y_true, predict_label(y))
    m = (2.0 * _prob(y) - 1.0) ** 2
    return i1 * params.lambda1 * m + i2 * params.lambda2 * m


def _branch_of(y: float, y_true: int) -> Branch:
    gap = abs(float(y) - y_true)
    if gap < 0.5:
        return Branch.CORRECT_NON_DEFAULT if y_true == 0 else Branch.CORRECT_DEFAULT
    # distance condition fires; the threshold rule may still call it correct
    if predict_label(y) == y_true:
        return Branch.SIGMA_BOUNDARY
    return Branch.MISCLASSIFIED


def xtreme_margin_value(y: float, y_true: int, params: LossParams) -> float:
    return 1.0 / (1.0 + sigma(y, y_true) + gamma(y, y_true, params))


def xtreme_margin_subgrad(y: float, y_true: int, params: LossParams) -> float:
    yf = float(y)
    if _branch_of(yf, y_true) in (Branch.MISCLASSIFIED, Branch.SIGMA_BOUNDARY):
        gap = abs(y_true - yf)
        sign = 1.0 if yf > y_true else -1.0
        return math.exp(gap) * sign
    lam = params.lambda1 if y_true == 0 else params.lambda2
    m = 2.0 * yf - 1.0
    denom = 1.0 + lam * m * m
    return -4.0 * lam * m / (denom * denom)


def bce_loss(y: float, y_true: int) -> tuple[float, float]:
    p = min(max(float(y), BCE_CLIP), 1.0 - BCE_CLIP)
    value = -(y_true * math.log(p) + (1 - y_true) * math.log1p(-p))
    deriv = -(y_true / p) + (1 - y_true) / (1.0 - p)
    return value, deriv


def hinge_loss(y: float, y_true: int) -> tuple[float, float]:
    t = 2.0 * y_true - 1.0
    s = 2.0 * float(y) - 1.0
    margin = 1.0 - t * s
    if margin > 0.0:
        return margin, -2.0 * t
    return 0.0, 0.0


def loss_and_grad(y: float, y_true: int, params: LossParams) -> tuple[float, float]:
    if params.family is LossFamily.XTREME_MARGIN:
        return (xtreme_margin_value(y, y_true, params),
                xtreme_margin_subgrad(y, y_true, params))
    if params.family is LossFamily.BCE:
        return bce_loss(y, y_true)
    return hinge_loss(y, y_true)
