"""Scalar reference implementation of the losses, kept apart from
`xmargin.loss_core` so the vectorized kernel is checked against code it
does not share.

The Xtreme Margin value is the paper's 1 / (1 + sigma + gamma), built from
the package's scalar `sigma` and `gamma` terms; its derivative is the
per-piece formula, and BCE and hinge use `math.log` and plain branches.
"""

import math

from xmargin.loss_core import (BCE_CLIP, Branch, LossFamily, LossParams, gamma,
                               predict_label, sigma)


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
    value = -(y_true * math.log(p) + (1 - y_true) * math.log(1.0 - p))
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
