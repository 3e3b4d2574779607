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
from .metrics import scores
from .network import MlpModel, Mode, backward, dropout_keep, forward, predict_proba


class Method(enum.Enum):
    SUBGRADIENT = "subgradient"
    RMSPROP = "rmsprop"


# RMSprop's constants as the rule was introduced (Tieleman & Hinton, 2012,
# lecture 6.5): the accumulator's decay, and the stabiliser added to its root
DECAY = 0.9
EPSILON = 1e-8


@dataclass
class OptimizerConfig:
    method: Method = Method.RMSPROP
    alpha: float = 0.001

    def __post_init__(self):
        # alpha == 0 is tolerated as an explicit null step (used by
        # do-nothing baselines); negative steps are rejected
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and non-negative")


@dataclass
class TrainState:
    """Optimizer state of one model, or of a stacked model (one row of
    `accumulators`, `best_loss` and `best_params` per model).

    Besides the model's own `flat`, a stacked RMSprop run holds three arrays
    shaped like it: the accumulators, the best-iterate snapshot and one work
    array. The snapshot is one buffer for the whole run, overwritten in
    place row by row, and never aliases `model.flat`."""

    model: MlpModel
    config: OptimizerConfig
    accumulators: np.ndarray | None = None  # laid out like model.flat
    best_loss: float | np.ndarray = math.inf
    best_params: np.ndarray | None = None   # laid out like model.flat
    # work array shaped like model.flat, reused by every step: allocating
    # it per step costs page faults once the model is stacked
    scratch: np.ndarray | None = field(default=None, repr=False)

    def note_loss(self, loss: float | np.ndarray) -> None:
        """Snapshot each model whose minibatch loss is a new low: its row of
        `best_params` is overwritten in place with its current parameters,
        and the other rows keep their earlier snapshots."""
        better = np.less(loss, self.best_loss)
        if better.any():
            self.best_loss = np.where(better, loss, self.best_loss)
            if self.best_params is None:
                self.best_params = self.model.flat.copy()
            else:
                np.copyto(self.best_params, self.model.flat, where=better[..., None])


def subgradient_step(state: TrainState, g: np.ndarray) -> TrainState:
    """theta <- theta - alpha * g, for the finite gradient `g` laid out like
    `state.model.flat`. The step overwrites `g`."""
    np.multiply(state.config.alpha, g, out=g)
    state.model.flat -= g
    return state


def rmsprop_step(state: TrainState, g: np.ndarray) -> TrainState:
    """v <- DECAY*v + (1-DECAY)*g^2; theta <- theta - alpha*g/(sqrt(v)+EPSILON),
    for the finite gradient `g` laid out like `state.model.flat`. The step is
    finished in `g`, which it overwrites, so one work array is enough."""
    if state.accumulators is None:
        state.accumulators = np.zeros_like(g)
    if state.scratch is None:
        state.scratch = np.empty_like(g)
    v, tmp = state.accumulators, state.scratch
    v *= DECAY
    np.multiply(1.0 - DECAY, g, out=tmp)
    tmp *= g
    v += tmp
    np.sqrt(v, out=tmp)
    tmp += EPSILON
    np.multiply(state.config.alpha, g, out=g)
    g /= tmp
    state.model.flat -= g
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
    model: MlpModel          # best-so-far iterate
    history: list[EpochRecord] = field(default_factory=list)


def train(model: MlpModel, X: np.ndarray, y: np.ndarray, loss: LossParams,
          config: OptimizerConfig, epochs: int, batch_size: int,
          rng: np.random.Generator,
          eval_X: np.ndarray | None = None,
          eval_y: np.ndarray | None = None) -> TrainResult:
    """Mini-batch training of one model: `train_models` with a single model."""
    evals = None if eval_X is None else [(eval_X, eval_y)]
    (out,) = train_models([model], [X], [y], loss, config, epochs, batch_size,
                          [rng], evals)
    return out


def train_models(models: list[MlpModel], Xs, ys, loss: LossParams,
                 config: OptimizerConfig, epochs: int, batch_size: int,
                 rngs: list[np.random.Generator],
                 evals: list[tuple[np.ndarray, np.ndarray]] | None = None
                 ) -> list[TrainResult]:
    """Mini-batch training of models of one architecture as one stack.

    Model b trains on (Xs[b], ys[b]). Each epoch its generator rngs[b]
    shuffles it, then draws the uniforms of the epoch's dropout masks as one
    (training rows, dropout units) block, `kept` as `forward` lays it out;
    consecutive draws from one generator are the rows of one block, so this
    equals a draw per minibatch. The epoch's shuffled rows, labels and keep
    flags are laid out once in (B, longest training set, ...) arrays, and
    minibatch s is their columns s*batch_size onwards. Every step runs one
    Train-mode forward pass over all models, each model's mean minibatch
    loss, reverse-mode gradients and one optimizer step over the (B, P)
    parameters. Models with fewer training rows pad their last minibatch
    with zero-weight rows and sit out a step in which they have no rows left.
    Each step's views of the epoch arrays, its per-model divisors and its
    padding mask are made once per call; a mask applies only to a step with
    padding rows, so a step in which every model fills the width has none.

    The stack fails as a whole. A model's bad input raises ValueError before
    any training; a non-finite minibatch loss (FloatingPointError) or
    gradient (ValueError) raises before the step, so no model takes it. The
    error names the model by its index in `models`, the lowest one when
    several fail on one step, a loss before a gradient of the same model.
    Each returned TrainResult's model is a row of the stack's best-iterate
    snapshot. The input models end as the final iterates, or as the last
    iterates before a failed step: their parameters are rows of the stack's
    (B, P) array, and their own buffers are let go when training starts.
    A model whose parameters a finite step made non-finite raises
    FloatingPointError after the epoch, before it is scored. With `evals`
    (one (X, y) per model, checked like the training sets before any
    training) each epoch records accuracies.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not models:
        raise ValueError("need at least one model")
    if not len(models) == len(Xs) == len(ys) == len(rngs):
        raise ValueError("need one training set and one generator per model")
    if evals is not None and len(evals) != len(models):
        raise ValueError("need one eval set per model")
    n_models = len(models)
    Xs = [np.asarray(X, dtype=float) for X in Xs]
    ys = [np.asarray(y, dtype=float) for y in ys]
    d = models[0].input_dim
    sets = [(b, "training", X, y) for b, (X, y) in enumerate(zip(Xs, ys))]
    if evals is not None:
        sets += [(b, "eval", np.asarray(X, dtype=float), y) for b, (X, y) in enumerate(evals)]
    for b, name, X, y in sets:
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError(f"model {b}: {name} data must be non-empty")
        if X.shape[1] != d:
            raise ValueError(f"model {b}: input dim {X.shape[1]} != model input dim {d}")
        if len(y) != X.shape[0]:
            raise ValueError(f"model {b}: {name} labels do not match {name} rows")
        if not np.isin(y, (0, 1)).all():
            raise ValueError(f"model {b}: {name} labels must be 0 or 1")
        if not np.isfinite(X).all():
            raise ValueError(f"model {b}: non-finite input")

    stack = MlpModel.stack(models)
    for b, model in enumerate(models):
        model.bind(stack.flat[b])
    state = TrainState(model=stack, config=config)
    grads = np.empty_like(stack.flat)  # every step's gradient goes into this array
    # read from the module's names on each call, so a rebinding of them is
    # seen; the step overwrites the gradient, and the next backward refills it
    step = subgradient_step if config.method is Method.SUBGRADIENT else rmsprop_step
    n = np.array([X.shape[0] for X in Xs])
    n_max = int(n.max())
    batches = -(-n // batch_size)  # minibatches per epoch, per model
    # real rows of each model in each step; the longest model fills every step
    counts = np.clip(n[:, None] - np.arange(0, n_max, batch_size), 0, batch_size)
    widths = counts.max(axis=0).tolist()
    keep = dropout_keep(stack)
    # a shorter model's rows past its own are padding: they stay zero, their
    # keep flags are never drawn, and `real` weighs them 0 in each step's mean
    X_epoch = np.zeros((n_models, n_max, d))
    y_epoch = np.zeros((n_models, n_max))
    kept = np.zeros((n_models, n_max, keep.size), dtype=bool)
    real = np.arange(n_max) < n[:, None]
    # one entry per step of an epoch: the step's views of the epoch arrays,
    # valid in every epoch since those are refilled in place; the divisor of
    # each model's mean, as a (B,) and a (B, 1) array; the models sitting out
    # (None when every model takes the step); and the step's padding mask,
    # None when no model has fewer rows than the step's width
    plan = []
    for s, width in enumerate(widths):
        batch = np.s_[:, s * batch_size:s * batch_size + width]
        used = np.maximum(counts[:, s], 1)
        idle = counts[:, s] == 0
        plan.append((X_epoch[batch], y_epoch[batch], kept[batch], used, used[:, None],
                     idle if idle.any() else None,
                     real[batch] if (counts[:, s] < width).any() else None))

    history = [[] for _ in range(n_models)]
    losses = np.empty(counts.shape)
    # an overflowing model is reported once, by the checks below, not also
    # by numpy warnings from the arithmetic that produced its inf or nan
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, epochs + 1):
            for b in range(n_models):
                order = rngs[b].permutation(n[b])
                Xs[b].take(order, axis=0, out=X_epoch[b, :n[b]])
                ys[b].take(order, out=y_epoch[b, :n[b]])
                np.less(rngs[b].random((n[b], keep.size)), keep, out=kept[b, :n[b]])

            for s, (X_s, y_s, kept_s, used, used_col, idle, pad) in enumerate(plan):
                trace = forward(stack, X_s, Mode.TRAIN, kept=kept_s)
                vals, dvals = loss_and_grad_vec(trace.output, y_s, loss)
                if pad is not None:
                    vals = np.where(pad, vals, 0.0)
                    dvals = np.where(pad, dvals, 0.0)
                batch_mean = vals.sum(axis=-1) / used
                dvals /= used_col
                backward(trace, stack, dvals, out=grads)
                # losses are bounded, so their sum is finite exactly when each is
                if not (np.isfinite(grads).all() and math.isfinite(batch_mean.sum())):
                    finite = np.isfinite(grads).all(axis=-1)
                    for b in np.flatnonzero(counts[:, s]):  # the models taking the step
                        if not math.isfinite(batch_mean[b]):
                            raise FloatingPointError(
                                f"model {b}: non-finite training loss at epoch {epoch}, "
                                f"step {(epoch - 1) * batches[b] + s}")
                        if not finite[b]:
                            raise ValueError(f"model {b}: non-finite gradient; step rejected")
                held = None
                if idle is not None:
                    # a model sitting out scores no loss (its history reads only
                    # the steps it took) and keeps its parameters; RMSprop
                    # accumulators would still decay, so they are put back
                    batch_mean[idle] = np.inf
                    grads[idle] = 0.0
                    if state.accumulators is not None:
                        held = state.accumulators[idle]
                # the snapshot pairs each loss with the parameters that scored it
                state.note_loss(batch_mean)
                step(state, grads)
                if held is not None:
                    state.accumulators[idle] = held
                losses[:, s] = batch_mean

            # a finite step can overflow the parameters: every run checks them
            # once an epoch, before the epoch is scored
            bad = np.flatnonzero(~np.isfinite(stack.flat).all(axis=-1))
            if bad.size:
                raise FloatingPointError(
                    f"model {bad[0]}: non-finite parameters after epoch {epoch}")
            for b in range(n_models):
                train_acc = eval_acc = float("nan")
                if evals is not None:
                    train_acc, eval_acc = (scores(predict_proba(models[b], X), y)["accuracy"]
                                           for X, y in ((Xs[b], ys[b]), evals[b]))
                history[b].append(EpochRecord(epoch, float(losses[b, :batches[b]].mean()),
                                              train_acc, eval_acc))

    # every model took a first step with a finite loss, so the snapshot exists
    results = []
    for b, model in enumerate(models):
        best = model.copy()
        best.bind(state.best_params[b])
        results.append(TrainResult(model=best, history=history[b]))
    return results
