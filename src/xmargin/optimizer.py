"""Parameter-update strategies and the training loop.

Provides the plain negative-subgradient update with constant step size,
an RMSprop-style adaptive update, and a direct check of the subgradient
inequality f(theta) >= f(theta0) + g^T (theta - theta0).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .loss_core import LossParams, loss_and_grad_vec
from .network import Gradients, MlpModel, Mode, backward, forward, predict_proba


class Method(enum.Enum):
    SUBGRADIENT = "subgradient"
    RMSPROP = "rmsprop"

    @classmethod
    def parse(cls, name: str) -> "Method":
        key = name.strip().lower().replace("-", "_")
        aliases = {
            "subgradient": cls.SUBGRADIENT,
            "subgradient_descent": cls.SUBGRADIENT,
            "sgd_sub": cls.SUBGRADIENT,
            "rmsprop": cls.RMSPROP,
        }
        if key not in aliases:
            raise ValueError(f"unknown optimizer method: {name!r}")
        return aliases[key]


@dataclass
class OptimizerConfig:
    method: Method = Method.RMSPROP
    alpha: float = 0.001
    decay: float = 0.9
    epsilon_stab: float = 1e-8
    # subgradient steps are not descent steps, so retain the best iterate
    track_best: bool = True

    def __post_init__(self):
        # alpha == 0 is tolerated as an explicit null step (used by
        # do-nothing baselines); negative steps are rejected
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and non-negative")
        if not (0.0 < self.decay < 1.0):
            raise ValueError("decay must be in (0, 1)")
        if not (self.epsilon_stab > 0):
            raise ValueError("epsilon_stab must be positive")


@dataclass
class TrainState:
    model: MlpModel
    config: OptimizerConfig
    t: int = 0
    accumulators: np.ndarray | None = None  # laid out like model.flat
    best_loss: float = math.inf
    best_params: np.ndarray | None = None   # a copy of model.flat

    def _flat_grad(self, grads) -> np.ndarray:
        """The [(dW, db), ...] bundle as one vector laid out like the model's
        `flat`; raises, before anything is updated, on a shape mismatch or a
        non-finite entry."""
        arrays = [g for pair in grads for g in pair]
        shapes = [p.shape for p in self.model.parameters()]
        if [g.shape for g in arrays] != shapes:
            raise ValueError(f"gradient shapes do not match parameter shapes {shapes}")
        flat = (grads.flat if isinstance(grads, Gradients)
                else np.concatenate([g.ravel() for g in arrays], dtype=float))
        if not np.isfinite(flat).all():
            raise ValueError("non-finite gradient; step rejected")
        return flat

    def note_loss(self, loss: float) -> None:
        if self.config.track_best and loss < self.best_loss:
            self.best_loss = loss
            self.best_params = self.model.flat.copy()

    def best_model(self) -> MlpModel:
        if self.best_params is None:
            return self.model
        out = self.model.copy()
        out.flat[...] = self.best_params
        return out


def subgradient_step(state: TrainState, grads, alpha: float) -> TrainState:
    """theta <- theta - alpha * g for every parameter; increments t."""
    g = state._flat_grad(grads)
    state.model.flat -= alpha * g
    state.t += 1
    return state


def rmsprop_step(state: TrainState, grads, config: OptimizerConfig) -> TrainState:
    """v <- decay*v + (1-decay)*g^2; theta <- theta - alpha*g/(sqrt(v)+eps)."""
    g = state._flat_grad(grads)
    if state.accumulators is None:
        state.accumulators = np.zeros_like(g)
    v = state.accumulators
    v *= config.decay
    v += (1.0 - config.decay) * g * g
    state.model.flat -= config.alpha * g / (np.sqrt(v) + config.epsilon_stab)
    state.t += 1
    return state


def verify_subgradient(f, theta0: np.ndarray, g: np.ndarray,
                       probes, tol: float = 1e-9) -> tuple[bool, float]:
    """Check the subgradient inequality at every probe point.

    Returns (all probes passed within tol, most negative slack), where
    slack = f(theta) - f(theta0) - g.(theta - theta0).
    """
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    g = np.atleast_1d(np.asarray(g, dtype=float))
    probes = [np.atleast_1d(np.asarray(p, dtype=float)) for p in probes]
    if not probes:
        raise ValueError("probes must be non-empty")
    f0 = float(f(theta0))
    if not math.isfinite(f0):
        raise ValueError("f(theta0) is non-finite")
    worst = math.inf
    for theta in probes:
        fv = float(f(theta))
        if not math.isfinite(fv):
            raise ValueError("non-finite probe evaluation")
        slack = fv - f0 - float(g @ (theta - theta0))
        worst = min(worst, slack)
    return worst >= -tol, worst


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    eval_acc: float


@dataclass
class TrainResult:
    model: MlpModel          # best-so-far iterate when tracked, else final
    final_model: MlpModel
    history: list[EpochRecord] = field(default_factory=list)


def _accuracy(model: MlpModel, X: np.ndarray, y: np.ndarray) -> float:
    preds = (predict_proba(model, X) >= 0.5).astype(int)
    return float(np.mean(preds == y))


def train(model: MlpModel, X: np.ndarray, y: np.ndarray, loss: LossParams,
          config: OptimizerConfig, epochs: int, batch_size: int,
          rng: np.random.Generator,
          eval_X: np.ndarray | None = None,
          eval_y: np.ndarray | None = None) -> TrainResult:
    """Mini-batch training loop.

    Shuffles each epoch with the provided generator; every batch runs a
    Train-mode forward pass, the mean batch loss, reverse-mode gradients,
    and one optimizer step. Any non-finite loss aborts with a diagnostic.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.shape[0] == 0:
        raise ValueError("training data must be non-empty")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")

    state = TrainState(model=model, config=config)
    n = X.shape[0]
    history = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            xb, yb = X[idx], y[idx]
            trace = forward(state.model, xb, Mode.TRAIN, rng)
            vals, dvals = loss_and_grad_vec(trace.output, yb, loss)
            batch_mean = float(np.mean(vals))
            if not math.isfinite(batch_mean):
                raise FloatingPointError(
                    f"non-finite training loss at epoch {epoch}, step {state.t}")
            grads = backward(trace, state.model, dvals / len(idx))
            if config.method is Method.SUBGRADIENT:
                subgradient_step(state, grads, config.alpha)
            else:
                rmsprop_step(state, grads, config)
            state.note_loss(batch_mean)
            epoch_losses.append(batch_mean)
        train_acc = _accuracy(state.model, X, y)
        eval_acc = (_accuracy(state.model, eval_X, eval_y)
                    if eval_X is not None else float("nan"))
        history.append(EpochRecord(epoch, float(np.mean(epoch_losses)),
                                   train_acc, eval_acc))
    return TrainResult(model=state.best_model(), final_model=state.model,
                       history=history)
