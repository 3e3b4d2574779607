"""Small feedforward network with manual forward/backward passes.

Supports ReLU/Sigmoid activations and inverted dropout; a model's parameters
live in one flat vector with per-layer views. The forward pass records what
the backward pass needs (pre- and post-dropout activations, dropout
masks) for plain reverse-mode accumulation of any scalar loss.

A stacked model (`MlpModel.stack`) holds B models of one architecture as a
(B, P) flat array; forward and backward then carry a leading model axis and
run every model with batched matmuls.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class Activation(enum.Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"


class Mode(enum.Enum):
    TRAIN = "train"
    INFER = "infer"


def sigmoid(z):
    # one exp of -|z|, which lies in [0, 1], so nothing overflows:
    # s = 1/(1+e) is sigmoid(|z|) and e*s is sigmoid(-|z|), down to
    # sigmoid(-745) = 5e-324
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    s = 1.0 / (1.0 + e)
    return np.where(z < 0, e * s, s)


@dataclass
class Layer:
    weights: np.ndarray  # (out, in)
    biases: np.ndarray   # (out,)
    activation: Activation
    dropout_rate: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.weights.shape[:-1] != self.biases.shape:
            raise ValueError("weights/biases shape mismatch")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("non-finite parameters")


@dataclass
class MlpModel:
    layers: list[Layer]
    # every layer's weights then biases, in order; each Layer.weights and
    # Layer.biases is a view into it, so writes through either reach both.
    # A stacked model has one such row per model: flat is (B, P), weights
    # (B, out, in) and biases (B, out).
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    # the last array `views` cut and its views, reused while it is passed again
    _cut: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        lead = self.layers[0].biases.shape[:-1]
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weights.shape[-1] != prev.weights.shape[-2]:
                raise ValueError("incompatible consecutive layer dimensions")
        last = self.layers[-1]
        if last.weights.shape[-2] != 1 or last.activation is not Activation.SIGMOID:
            raise ValueError("final layer must have width 1 and sigmoid activation")
        self.bind(np.concatenate([p.reshape(lead + (-1,)) for p in self.parameters()],
                                 axis=-1, dtype=float))

    def bind(self, flat: np.ndarray) -> None:
        """Make `flat`, laid out like this model's parameters, the model's
        buffer: `flat` and every layer's weights and biases become views of
        it, and the model lets go of its old buffer."""
        self.flat = flat
        for layer, (w, b) in zip(self.layers, self.views(flat)):
            layer.weights, layer.biases = w, b

    @classmethod
    def stack(cls, models: list["MlpModel"]) -> "MlpModel":
        """One stacked model whose row b is a copy of models[b]'s `flat`."""
        first = models[0]
        if any([(l.weights.shape, l.activation, l.dropout_rate) for l in m.layers]
               != [(l.weights.shape, l.activation, l.dropout_rate) for l in first.layers]
               for m in models):
            raise ValueError("stacked models must share one architecture")
        flat = np.stack([m.flat for m in models])
        if not np.isfinite(flat).all():
            raise ValueError("non-finite parameters")
        stacked = first.copy()
        stacked.bind(flat)
        return stacked

    def views(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weights, biases) views of an array laid out like `flat`
        (rows of a (B, P) array give (B, out, in) and (B, out) views).

        The model keeps the last array it cut, and its views, in one slot:
        given that same array object again (as `backward` is given a stack's
        one gradient array on every step) it returns the same list; given
        another, it cuts that one and the slot holds it instead."""
        if vec is self._cut[0]:
            return self._cut[1]
        out, pos = [], 0
        lead = vec.shape[:-1]
        for l in self.layers:
            n_out, n_in = l.weights.shape[-2:]
            out.append((vec[..., pos:pos + n_out * n_in].reshape(lead + (n_out, n_in)),
                        vec[..., pos + n_out * n_in:pos + n_out * (n_in + 1)]))
            pos += n_out * (n_in + 1)
        self._cut = (vec, out)
        return out

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[-1]

    def copy(self) -> "MlpModel":
        # the new model copies these views into a buffer of its own
        return MlpModel([Layer(l.weights, l.biases, l.activation, l.dropout_rate)
                         for l in self.layers])

    def parameters(self) -> list[np.ndarray]:
        return [p for l in self.layers for p in (l.weights, l.biases)]


@dataclass
class ForwardTrace:
    """Per-layer bookkeeping from one forward pass over a batch."""

    inputs: np.ndarray                 # (n, d), or (B, n, d) for a stacked model
    raw_activations: list[np.ndarray]  # before dropout, each (n, width) or (B, n, width)
    activations: list[np.ndarray]      # after dropout
    masks: list[np.ndarray | None]     # inverted-dropout masks, None where none applied
    output: np.ndarray = field(init=False)  # (n,) or (B, n) probabilities

    def __post_init__(self):
        self.output = self.activations[-1][..., 0]


def forward_single_layer(weights: np.ndarray, x: np.ndarray) -> float:
    """Bias-free single-layer network: sigmoid of the weighted feature sum."""
    w = np.asarray(weights, dtype=float)
    xv = np.asarray(x, dtype=float)
    if w.shape != xv.shape:
        raise ValueError(f"weight/input length mismatch: {w.shape} vs {xv.shape}")
    return float(sigmoid(np.array([w @ xv]))[0])


# rows per block of `predict_proba`
INFER_ROWS = 4096


def dropout_keep(model: MlpModel) -> np.ndarray:
    """The keep probability of each dropout unit: the units of the layers
    with dropout, layer by layer, in order."""
    return np.array([1.0 - l.dropout_rate for l in model.layers if l.dropout_rate > 0.0
                     for _ in range(l.weights.shape[-2])])


def forward(model: MlpModel, x: np.ndarray, mode: Mode = Mode.INFER,
            kept: np.ndarray | None = None,
            tiles: list[np.ndarray] | None = None) -> ForwardTrace:
    """Run the network over one instance (1-D input) or a batch (2-D).

    A stacked model takes a (B, n, d) batch per model, or one (n, d) batch
    that every model sees, and returns (B, n) outputs.

    Train mode applies inverted dropout after each activation and needs
    `kept`, a boolean (..., rows, units) array of the dropout units kept,
    laid out as `dropout_keep(model)`. Each dropout layer's mask is its own
    columns of `kept` over its keep probability. Infer mode is
    deterministic and applies no masks.

    `tiles`, which only `predict_proba` passes, holds each layer's bias
    repeated over at least this batch's rows, (..., rows, out); a layer then
    adds the tile's first rows, a contiguous add with the same bits as the
    broadcast of its (..., out) bias that is added without them. Training
    passes none, as its biases change on every step.
    """
    xa = np.atleast_2d(np.asarray(x, dtype=float))
    if xa.shape[-1] != model.input_dim:
        raise ValueError(f"input dim {xa.shape[-1]} != model input dim {model.input_dim}")
    if not np.isfinite(xa).all():
        raise ValueError("non-finite input")
    if mode is Mode.TRAIN and kept is None:
        raise ValueError("Train mode requires the dropout keep flags")

    raw, act, used = [], [], []
    a, col, rows = xa, 0, xa.shape[-2]
    for i, layer in enumerate(model.layers):
        # activation(a @ W^T + b), computed in the matmul's own array
        h = np.matmul(a, layer.weights.swapaxes(-1, -2))
        h += layer.biases[..., None, :] if tiles is None else tiles[i][..., :rows, :]
        h = np.maximum(h, 0.0, out=h) if layer.activation is Activation.RELU else sigmoid(h)
        raw.append(h)
        mask = None
        if mode is Mode.TRAIN and layer.dropout_rate > 0.0:
            width = h.shape[-1]
            mask = np.multiply(kept[..., col:col + width], 1.0 / (1.0 - layer.dropout_rate))
            col += width
            h = h * mask
        act.append(h)
        used.append(mask)
        a = h
    return ForwardTrace(inputs=xa, raw_activations=raw, activations=act, masks=used)


def backward(trace: ForwardTrace, model: MlpModel, dloss_dy: float | np.ndarray,
             out: np.ndarray | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reverse-mode accumulation of d(loss)/d(parameters).

    ``dloss_dy`` is the loss derivative with respect to each instance's
    output probability (scalar for a single instance, shaped like
    `trace.output` for a batch); gradients are summed over the batch (per
    model, for a stacked model), so pre-scale by 1/n for a mean loss.
    The gradient is written into `out`, an array laid out like `model.flat`
    (a fresh one when None), and returned as its per-layer [(dW, db), ...]
    views.
    """
    if len(trace.raw_activations) != len(model.layers):
        raise ValueError("trace/model layer count mismatch")
    seed = np.asarray(dloss_dy, dtype=float)
    if seed.size == 1:
        seed = np.full(trace.output.shape, seed.item())
    if seed.size != trace.output.size:
        raise ValueError("dloss_dy length does not match the traced batch")

    grads = model.views(np.empty_like(model.flat) if out is None else out)
    # running dLoss/d(post-dropout activation), (..., n, width)
    delta = seed.reshape(trace.output.shape)[..., None]
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        if trace.masks[i] is not None:
            delta = delta * trace.masks[i]
        if layer.activation is Activation.RELU:
            # subderivative 0 at the kink: max(z, 0) > 0 exactly where z > 0
            dz = delta * (trace.raw_activations[i] > 0.0)
        else:
            a = trace.raw_activations[i]
            dz = delta * (a * (1.0 - a))
        dw, db = grads[i]
        np.matmul(dz.swapaxes(-1, -2),
                  trace.inputs if i == 0 else trace.activations[i - 1], out=dw)
        dz.sum(axis=-2, out=db)
        if i > 0:
            delta = dz @ layer.weights
    return grads


def _glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def build_mlp(input_dim: int, spec: list[tuple[int, Activation, float]],
              seed: int | np.random.SeedSequence) -> MlpModel:
    """Build a seeded model from (width, activation, dropout_rate) triples."""
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    rng = np.random.default_rng(seed)
    layers = []
    fan_in = input_dim
    for width, activation, rate in spec:
        layers.append(Layer(
            weights=_glorot_uniform(rng, width, fan_in),
            biases=np.zeros(width),
            activation=activation,
            dropout_rate=rate,
        ))
        fan_in = width
    return MlpModel(layers=layers)


def build_experiment_model(input_dim: int, seed: int | np.random.SeedSequence) -> MlpModel:
    """The fixed experiment architecture:
    64 relu + drop .25, 32 sigmoid + drop .25, 16 relu + drop .25,
    8 relu, 1 sigmoid."""
    return build_mlp(input_dim, [
        (64, Activation.RELU, 0.25),
        (32, Activation.SIGMOID, 0.25),
        (16, Activation.RELU, 0.25),
        (8, Activation.RELU, 0.0),
        (1, Activation.SIGMOID, 0.0),
    ], seed)


def build_boundary_model(input_dim: int, seed: int | np.random.SeedSequence) -> MlpModel:
    """Shallow net used for 2-feature decision-boundary pictures."""
    return build_mlp(input_dim, [
        (8, Activation.RELU, 0.0),
        (4, Activation.RELU, 0.0),
        (1, Activation.SIGMOID, 0.0),
    ], seed)


def predict_proba(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """`forward(model, X, Mode.INFER).output` of each block of `INFER_ROWS`
    rows, joined ((B, n) for a stacked model), so only one block's trace is
    held rather than a per-layer trace of every row. Up to `INFER_ROWS` rows
    this is forward's output; past that a row can differ from an unblocked
    `forward` in its last bits, as BLAS may round a row by how many rows
    share its matmul. Past one block, each layer's bias is tiled once per
    call over a block's rows, and every block adds it from that tile (the
    last, short block its first rows)."""
    x = np.atleast_2d(np.asarray(X, dtype=float))
    # one block adds the broadcast bias: a tile made for it alone costs more
    # than it saves (4096 rows through the boundary model: 470 us against 327 us)
    tiles = None if x.shape[-2] <= INFER_ROWS else [
        np.repeat(l.biases[..., None, :], INFER_ROWS, axis=-2) for l in model.layers]
    # one block even for 0 rows, so an empty input gives an empty (..., 0) output
    return np.concatenate([forward(model, x[..., lo:lo + INFER_ROWS, :], tiles=tiles).output
                           for lo in range(0, max(x.shape[-2], 1), INFER_ROWS)], axis=-1)
