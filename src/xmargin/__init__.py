"""Binary-classification training toolkit built around the Xtreme Margin
tunable loss, with subgradient/RMSprop training, a repeated stratified CV
harness, class-conditional metrics, and a reproduction CLI."""

__version__ = "0.1.0"

from .loss_core import (Branch, LossFamily, LossParams, LossValue, branches,
                        gamma, xtreme_margin_loss, xtreme_margin_subgrad)

__all__ = [
    "Branch", "LossFamily", "LossParams", "LossValue", "branches", "gamma",
    "xtreme_margin_loss", "xtreme_margin_subgrad", "__version__",
]
