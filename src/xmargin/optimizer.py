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
from .metrics import accuracy
from .network import MlpModel, Mode, backward, dropout_keep, forward, predict_proba


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
    """Mini-batch training of one model: `train_models` with a single
    model, raising the error it failed with."""
    evals = None if eval_X is None else [(eval_X, eval_y)]
    (out,) = train_models([model], [X], [y], loss, config, epochs, batch_size,
                          [rng], evals)
    if isinstance(out, Exception):
        raise out
    return out


def train_models(models: list[MlpModel], Xs, ys, loss: LossParams,
                 config: OptimizerConfig, epochs: int, batch_size: int,
                 rngs: list[np.random.Generator],
                 evals: list[tuple[np.ndarray, np.ndarray]] | None = None
                 ) -> list[TrainResult | Exception]:
    """Mini-batch training of models of one architecture as one stack.

    Model b trains on (Xs[b], ys[b]). Each epoch its generator rngs[b]
    shuffles it, then draws the uniforms of the epoch's dropout masks as one
    (training rows, dropout units) block, `kept` as `forward` lays it out;
    minibatch s takes that block's rows s*batch_size onwards. Consecutive
    draws from one generator are the rows of one block, so this equals a
    draw per minibatch. Every step runs one Train-mode forward pass
    over all models, each model's mean minibatch loss, reverse-mode
    gradients and one optimizer step over the (B, P) parameters. Models
    with fewer training rows pad their last minibatch with zero-weight rows
    and sit out a step in which they have no rows left.

    A model whose input, loss or gradient is non-finite stops training and
    its entry in the returned list is that error; it keeps the parameters it
    had then. Every other entry is a TrainResult whose model is a row of the
    stack's best-iterate snapshot. The input models end as the final
    iterates: their parameters are rows of the stack's (B, P) array, and
    their own buffers are let go when training starts.
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
    for b in np.flatnonzero(alive):
        models[b].bind(stack.flat[b])
    state = TrainState(model=stack, config=config)
    grads = None  # every step's gradient goes into the first step's arrays
    # read from the module's names on each call, so a rebinding of them is
    # seen; the step overwrites the gradient, and the next backward refills it
    step = subgradient_step if config.method is Method.SUBGRADIENT else rmsprop_step
    n = np.array([X.shape[0] if ok else 0 for X, ok in zip(Xs, alive)])
    n_steps = -(-int(n.max()) // batch_size)
    span = n_steps * batch_size
    batches = -(-n // batch_size)  # minibatches per epoch, per model
    # real rows of each model in each step
    counts = np.clip(n[:, None] - batch_size * np.arange(n_steps), 0, batch_size)
    keep = dropout_keep(stack)
    # each epoch's dropout keep flags, drawn per model right after its shuffle;
    # a padding row's flags are never drawn, and its zero weight voids them
    kept = np.zeros((n_models, span, keep.size), dtype=bool)

    step_rows = counts.T.tolist()  # per step, each model's real rows

    def fail(b: int, exc: Exception) -> None:
        outcomes[b] = exc
        alive[b] = False
        counts[b] = 0
        step_rows[:] = counts.T.tolist()
        models[b].bind(stack.flat[b].copy())
        stack.flat[b] = 0.0  # keeps the dead model's rows finite from here on

    history = [[] for _ in range(n_models)]
    losses = np.empty((n_models, n_steps))
    for epoch in range(1, epochs + 1):
        order = np.empty((n_models, span), dtype=int)
        for b in np.flatnonzero(alive):
            order[b, :n[b]] = rngs[b].permutation(n[b])
            np.less(rngs[b].random((n[b], keep.size)), keep, out=kept[b, :n[b]])

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
                    idx = order[b, lo:lo + rows_b]
                    Xs[b].take(idx, axis=0, out=xb[b, :rows_b])
                    ys[b].take(idx, out=yb[b, :rows_b])
            trace = forward(stack, xb, Mode.TRAIN, kept=kept[:, lo:lo + width])
            vals, dvals = loss_and_grad_vec(trace.output, yb, loss)
            cnt = counts[:, s]
            if min(per_model) < width:
                # padding rows weigh 0; each model's mean is over its real rows
                real = np.arange(width) < cnt[:, None]
                vals = np.where(real, vals, 0.0)
                dvals = np.where(real, dvals, 0.0)
            used = np.maximum(cnt, 1)
            batch_mean = vals.sum(axis=-1) / used
            dvals /= used[:, None]
            grads = backward(trace, stack, dvals, out=grads)
            # losses are bounded, so their sum is finite exactly when each is
            if not (np.isfinite(grads.flat).all() and math.isfinite(batch_mean.sum())):
                finite = np.isfinite(grads.flat).all(axis=-1)
                for b in np.flatnonzero(cnt > 0):
                    if not math.isfinite(batch_mean[b]):
                        fail(b, FloatingPointError(
                            f"non-finite training loss at epoch {epoch}, "
                            f"step {(epoch - 1) * batches[b] + s}"))
                    elif not finite[b]:
                        fail(b, ValueError("non-finite gradient; step rejected"))
                if not alive.any():
                    return outcomes
            rows = cnt > 0  # the models taking this step (`fail` zeroes a count)
            held = None
            if not rows.all():
                # a model sitting out scores no loss (its history reads only
                # the steps it took) and keeps its parameters; RMSprop
                # accumulators would still decay, so they are put back
                batch_mean[~rows] = np.inf
                grads.flat[~rows] = 0.0
                if state.accumulators is not None:
                    held = state.accumulators[~rows]
            # the snapshot pairs each loss with the parameters that scored it
            state.note_loss(batch_mean)
            step(state, grads.flat)
            if held is not None:
                state.accumulators[~rows] = held
            losses[:, s] = batch_mean

        for b in np.flatnonzero(alive):
            train_acc = eval_acc = float("nan")
            if evals is not None:
                train_acc, eval_acc = (accuracy(predict_proba(models[b], X) >= 0.5, y)
                                       for X, y in ((Xs[b], ys[b]), evals[b]))
            history[b].append(EpochRecord(epoch, float(losses[b, :batches[b]].mean()),
                                          train_acc, eval_acc))

    # every model still alive took a first step with a finite loss, so the
    # snapshot exists
    for b in np.flatnonzero(alive):
        best = models[b].copy()
        best.bind(state.best_params[b])
        outcomes[b] = TrainResult(model=best, history=history[b])
    return outcomes
