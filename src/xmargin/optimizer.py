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
    """Optimizer state of one model, or of a stacked model (one row of
    `accumulators`, `best_loss` and `best_params` per model)."""

    model: MlpModel
    config: OptimizerConfig
    t: int = 0                              # optimizer steps taken
    accumulators: np.ndarray | None = None  # laid out like model.flat
    best_loss: float | np.ndarray = math.inf
    best_params: np.ndarray | None = None   # a copy of model.flat
    # work arrays shaped like model.flat, reused by every step: allocating
    # them per step costs page faults once the model is stacked
    scratch: list[np.ndarray] = field(default_factory=list, repr=False)

    def _flat_grad(self, grads) -> np.ndarray:
        """The [(dW, db), ...] bundle as one array laid out like the model's
        `flat`; raises, before anything is updated, on a shape mismatch or a
        non-finite entry."""
        arrays = [g for pair in grads for g in pair]
        shapes = [p.shape for p in self.model.parameters()]
        if [g.shape for g in arrays] != shapes:
            raise ValueError(f"gradient shapes do not match parameter shapes {shapes}")
        lead = self.model.flat.shape[:-1]
        flat = (grads.flat if isinstance(grads, Gradients)
                else np.concatenate([g.reshape(lead + (-1,)) for g in arrays],
                                    axis=-1, dtype=float))
        if not np.isfinite(flat).all():
            raise ValueError("non-finite gradient; step rejected")
        return flat

    def note_loss(self, loss: float | np.ndarray) -> None:
        """Snapshot each model whose minibatch loss is a new low; every
        snapshot is a new array, so earlier ones are never overwritten."""
        if not self.config.track_best:
            return
        better = np.less(loss, self.best_loss)
        if better.any():
            self.best_loss = np.where(better, loss, self.best_loss)
            kept = self.model.flat if self.best_params is None else self.best_params
            self.best_params = np.where(better[..., None], self.model.flat, kept)

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
    if not state.scratch:
        state.scratch = [np.empty_like(g), np.empty_like(g)]
    v, (tmp, step) = state.accumulators, state.scratch
    v *= config.decay
    np.multiply(1.0 - config.decay, g, out=tmp)
    tmp *= g
    v += tmp
    np.sqrt(v, out=tmp)
    tmp += config.epsilon_stab
    np.multiply(config.alpha, g, out=step)
    step /= tmp
    state.model.flat -= step
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
    """One epoch: the mean of its minibatch losses, and the accuracy on the
    training and evaluation sets after it. Both accuracies are NaN unless
    the caller passed evaluation data (they cost a full inference pass)."""

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
    """Mini-batch training of one model: `train_models` with a single
    model, raising the error it failed with."""
    evals = None if eval_X is None else [(eval_X, eval_y)]
    (out,) = train_models([model], [X], [y], loss, config, epochs, batch_size,
                          [rng], evals)
    if isinstance(out, Exception):
        raise out
    return out


def _draw_masks(u: np.ndarray, n: int, batch_size: int, masks, b: int) -> None:
    """Lay model b's epoch of dropout draws `u` into the per-layer
    (keep probability, (B, rows, width) boolean keep-mask) pairs. Drawing a
    minibatch's masks layer by layer, as `forward` does, takes rows*width
    values per layer in turn, so minibatch j's block of `u` holds each
    layer's rows back to back."""
    per_row = sum(hit.shape[-1] for _, hit in masks)
    full = n // batch_size
    head = u[:full * batch_size * per_row].reshape(full, batch_size * per_row)
    tail = u[full * batch_size * per_row:]
    rest = n - full * batch_size
    off = 0
    for keep, hit in masks:
        w = hit.shape[-1]
        np.less(head[:, batch_size * off:batch_size * (off + w)]
                .reshape(full * batch_size, w), keep, out=hit[b, :full * batch_size])
        np.less(tail[rest * off:rest * (off + w)].reshape(rest, w), keep,
                out=hit[b, full * batch_size:n])
        off += w


def train_models(models: list[MlpModel], Xs, ys, loss: LossParams,
                 config: OptimizerConfig, epochs: int, batch_size: int,
                 rngs: list[np.random.Generator],
                 evals: list[tuple[np.ndarray, np.ndarray]] | None = None
                 ) -> list[TrainResult | Exception]:
    """Mini-batch training of models of one architecture as one stack.

    Model b trains on (Xs[b], ys[b]). Its generator rngs[b] shuffles it each
    epoch and draws its dropout masks, the same draws in the same order as
    when the model trains alone. Every step runs one Train-mode forward pass
    over all models, each model's mean minibatch loss, reverse-mode
    gradients and one optimizer step over the (B, P) parameters. Models
    with fewer training rows pad their last minibatch with zero-weight rows
    and sit out a step in which they have no rows left.

    A model whose input, loss or gradient is non-finite stops training and
    its entry in the returned list is that error; every other entry is a
    TrainResult, whose final model is the input model, updated in place.
    With `evals` (one (X, y) per model) each epoch records accuracies.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not len(models) == len(Xs) == len(ys) == len(rngs):
        raise ValueError("need one training set and one generator per model")
    n_models = len(models)
    Xs = [np.asarray(X, dtype=float) for X in Xs]
    ys = [np.asarray(y, dtype=float) for y in ys]
    d = models[0].input_dim
    outcomes: list = [None] * n_models
    for b, X in enumerate(Xs):
        if X.ndim != 2 or X.shape[0] == 0:
            outcomes[b] = ValueError("training data must be non-empty")
        elif X.shape[1] != d:
            outcomes[b] = ValueError(f"input dim {X.shape[1]} != model input dim {d}")
        elif len(ys[b]) != X.shape[0]:
            outcomes[b] = ValueError("training labels do not match training rows")
        elif not np.isfinite(X).all():
            outcomes[b] = ValueError("non-finite input")
    alive = np.array([o is None for o in outcomes])
    if not alive.any():
        return outcomes

    stack = MlpModel.stack(models)
    state = TrainState(model=stack, config=config)
    grads = None  # every step's gradient goes into the first step's arrays
    n = np.array([X.shape[0] if ok else 0 for X, ok in zip(Xs, alive)])
    n_steps = -(-int(n.max()) // batch_size)
    span = n_steps * batch_size
    batches = -(-n // batch_size)  # minibatches per epoch, per model
    # real rows of each model in each step
    counts = np.clip(n[:, None] - batch_size * np.arange(n_steps), 0, batch_size)
    # per dropout layer: its keep probability and this epoch's keep-masks
    masks = {i: (1.0 - l.dropout_rate,
                 np.zeros((n_models, span, l.weights.shape[-2]), dtype=bool))
             for i, l in enumerate(stack.layers) if l.dropout_rate > 0.0}
    per_row = sum(hit.shape[-1] for _, hit in masks.values())
    draws = np.empty(int(n.max()) * per_row)  # one model's epoch of dropout draws

    step_rows = counts.T.tolist()  # per step, each model's real rows

    def fail(b: int, exc: Exception) -> None:
        outcomes[b] = exc
        alive[b] = False
        counts[b] = 0
        step_rows[:] = counts.T.tolist()
        stack.flat[b] = 0.0  # keeps the dead model's rows finite from here on

    def step(grads) -> None:
        if config.method is Method.SUBGRADIENT:
            subgradient_step(state, grads, config.alpha)
        else:
            rmsprop_step(state, grads, config)

    history = [[] for _ in range(n_models)]
    losses = np.empty((n_models, n_steps))
    for epoch in range(1, epochs + 1):
        order = np.empty((n_models, span), dtype=int)
        for b in np.flatnonzero(alive):
            order[b, :n[b]] = rngs[b].permutation(n[b])
            if masks:
                u = draws[:n[b] * per_row]
                rngs[b].random(out=u)
                _draw_masks(u, n[b], batch_size, list(masks.values()), b)

        for s, per_model in enumerate(step_rows):
            width = max(per_model)
            if width == 0:
                continue
            lo = s * batch_size
            # each model's rows, gathered from its own matrix; padding is 0
            xb = np.zeros((n_models, width, d))
            yb = np.zeros((n_models, width))
            for b, rows_b in enumerate(per_model):
                if rows_b:
                    np.take(Xs[b], order[b, lo:lo + rows_b], axis=0, out=xb[b, :rows_b])
                    np.take(ys[b], order[b, lo:lo + rows_b], out=yb[b, :rows_b])
            layer_masks = [None] * len(stack.layers)
            for i, (keep, hit) in masks.items():
                layer_masks[i] = hit[:, lo:lo + width] / keep
            trace = forward(stack, xb, Mode.TRAIN, masks=layer_masks)
            vals, dvals = loss_and_grad_vec(trace.output, yb, loss)
            cnt = counts[:, s]
            # padding rows weigh 0; each model's mean is over its real rows
            real = np.arange(width) < cnt[:, None]
            used = np.maximum(cnt, 1)
            batch_mean = np.where(real, vals, 0.0).sum(axis=-1) / used
            dvals = np.where(real, dvals, 0.0) / used[:, None]
            rows = None if cnt.all() else cnt > 0  # the models taking this step
            # losses are bounded, so their sum is finite exactly when each is
            if not math.isfinite(batch_mean.sum()):
                for b in np.flatnonzero(~np.isfinite(batch_mean) & (cnt > 0)):
                    fail(b, FloatingPointError(
                        f"non-finite training loss at epoch {epoch}, "
                        f"step {(epoch - 1) * batches[b] + s}"))
                rows = cnt > 0
            grads = backward(trace, stack, dvals, out=grads)
            held = None
            if rows is not None:
                # a zero gradient leaves parameters as they are; RMSprop
                # accumulators would still decay, so they are put back
                grads.flat[~rows] = 0.0
                if state.accumulators is not None:
                    held = state.accumulators[~rows]
            try:
                step(grads)
            except ValueError:
                bad = ~np.isfinite(grads.flat).all(axis=-1)
                for b in np.flatnonzero(bad):
                    fail(b, ValueError("non-finite gradient; step rejected"))
                grads.flat[bad] = 0.0
                step(grads)
            if held is not None:
                state.accumulators[~rows] = held
            if not alive.any():
                return outcomes
            state.note_loss(batch_mean if rows is None
                            else np.where(rows, batch_mean, np.inf))
            losses[:, s] = batch_mean

        for b in np.flatnonzero(alive):
            train_acc = eval_acc = float("nan")
            if evals is not None:
                current = models[b].copy()
                current.flat[...] = stack.flat[b]
                train_acc = _accuracy(current, Xs[b], ys[b])
                eval_acc = _accuracy(current, *evals[b])
            history[b].append(EpochRecord(epoch, float(losses[b, :batches[b]].mean()),
                                          train_acc, eval_acc))

    for b in np.flatnonzero(alive):
        models[b].flat[...] = stack.flat[b]
        best = models[b]
        if state.best_params is not None:
            best = models[b].copy()
            best.flat[...] = state.best_params[b]
        outcomes[b] = TrainResult(model=best, final_model=models[b], history=history[b])
    return outcomes
