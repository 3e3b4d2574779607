"""Small feedforward network with manual forward/backward passes.

Supports ReLU/Sigmoid activations and inverted dropout; a model's parameters
live in one flat vector with per-layer views. The forward pass records what
the backward pass needs (pre-activations, pre- and post-dropout activations,
dropout masks) for plain reverse-mode accumulation of any scalar loss.

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
    # 1/(1+e^-z) = e^{-log(1+e^-z)}: branch-free, exact in both tails
    return np.exp(-np.logaddexp(0.0, -np.asarray(z, dtype=float)))


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
    seed: int = 0
    # every layer's weights then biases, in order; each Layer.weights and
    # Layer.biases is a view into it, so writes through either reach both.
    # A stacked model has one such row per model: flat is (B, P), weights
    # (B, out, in) and biases (B, out).
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lead = self.layers[0].biases.shape[:-1]
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.weights.shape[-1] != prev.weights.shape[-2]:
                raise ValueError("incompatible consecutive layer dimensions")
        last = self.layers[-1]
        if last.weights.shape[-2] != 1 or last.activation is not Activation.SIGMOID:
            raise ValueError("final layer must have width 1 and sigmoid activation")
        self.flat = np.concatenate([p.reshape(lead + (-1,)) for p in self.parameters()],
                                   axis=-1, dtype=float)
        for layer, (w, b) in zip(self.layers, self.views(self.flat)):
            layer.weights, layer.biases = w, b

    @classmethod
    def stack(cls, models: list["MlpModel"]) -> "MlpModel":
        """One stacked model whose row b is a copy of models[b]'s `flat`."""
        first = models[0]
        if any([(l.weights.shape, l.activation, l.dropout_rate) for l in m.layers]
               != [(l.weights.shape, l.activation, l.dropout_rate) for l in first.layers]
               for m in models):
            raise ValueError("stacked models must share one architecture")
        return cls(layers=[Layer(np.stack([m.layers[i].weights for m in models]),
                                 np.stack([m.layers[i].biases for m in models]),
                                 l.activation, l.dropout_rate)
                           for i, l in enumerate(first.layers)],
                   seed=first.seed)

    def views(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weights, biases) views of an array laid out like `flat`
        (rows of a (B, P) array give (B, out, in) and (B, out) views)."""
        out, pos = [], 0
        lead = vec.shape[:-1]
        for l in self.layers:
            n_out, n_in = l.weights.shape[-2:]
            out.append((vec[..., pos:pos + n_out * n_in].reshape(lead + (n_out, n_in)),
                        vec[..., pos + n_out * n_in:pos + n_out * (n_in + 1)]))
            pos += n_out * (n_in + 1)
        return out

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[-1]

    def copy(self) -> "MlpModel":
        # the new model copies these views into a buffer of its own
        return MlpModel(
            layers=[Layer(l.weights, l.biases, l.activation, l.dropout_rate)
                    for l in self.layers],
            seed=self.seed,
        )

    def parameters(self) -> list[np.ndarray]:
        return [p for l in self.layers for p in (l.weights, l.biases)]


@dataclass
class ForwardTrace:
    """Per-layer bookkeeping from one forward pass over a batch."""

    inputs: np.ndarray                 # (n, d), or (B, n, d) for a stacked model
    pre_activations: list[np.ndarray]  # each (n, width) or (B, n, width)
    raw_activations: list[np.ndarray]  # before dropout
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


def forward(model: MlpModel, x: np.ndarray, mode: Mode = Mode.INFER,
            rng: np.random.Generator | None = None,
            masks: list[np.ndarray | None] | None = None) -> ForwardTrace:
    """Run the network over one instance (1-D input) or a batch (2-D).

    A stacked model takes a (B, n, d) batch per model, or one (n, d) batch
    that every model sees, and returns (B, n) outputs.

    Train mode applies inverted dropout after each activation, with masks
    drawn from the provided generator or, when given, taken from `masks`
    (one per layer, None where the layer has no dropout); Infer mode is
    deterministic and applies no masks.
    """
    xa = np.atleast_2d(np.asarray(x, dtype=float))
    if xa.shape[-1] != model.input_dim:
        raise ValueError(f"input dim {xa.shape[-1]} != model input dim {model.input_dim}")
    if not np.isfinite(xa).all():
        raise ValueError("non-finite input")
    if mode is Mode.TRAIN and rng is None and masks is None:
        raise ValueError("Train mode requires a random generator")

    pre, raw, act, used = [], [], [], []
    a = xa
    for i, layer in enumerate(model.layers):
        z = np.matmul(a, layer.weights.swapaxes(-1, -2)) + layer.biases[..., None, :]
        h = np.maximum(z, 0.0) if layer.activation is Activation.RELU else sigmoid(z)
        pre.append(z)
        raw.append(h)
        mask = None
        if mode is Mode.TRAIN and layer.dropout_rate > 0.0:
            if masks is not None:
                mask = masks[i]
            else:
                keep = 1.0 - layer.dropout_rate
                mask = (rng.random(h.shape) < keep) / keep
            h = h * mask
        act.append(h)
        used.append(mask)
        a = h
    return ForwardTrace(inputs=xa, pre_activations=pre, raw_activations=raw,
                        activations=act, masks=used)


class Gradients(list):
    """Per-layer [(dW, db), ...] whose arrays are views of `flat`, one
    vector laid out like `MlpModel.flat`."""

    def __init__(self, pairs, flat: np.ndarray):
        super().__init__(pairs)
        self.flat = flat


def backward(trace: ForwardTrace, model: MlpModel,
             dloss_dy: float | np.ndarray, out: Gradients | None = None) -> Gradients:
    """Reverse-mode accumulation of d(loss)/d(parameters).

    ``dloss_dy`` is the loss derivative with respect to each instance's
    output probability (scalar for a single instance, shaped like
    `trace.output` for a batch); gradients are summed over the batch (per
    model, for a stacked model), so pre-scale by 1/n for a mean loss.
    Returns [(dW, db), ...] per layer, as views of one array laid out like
    `model.flat`: a fresh one, or `out` (an earlier result for this model)
    overwritten.
    """
    if len(trace.pre_activations) != len(model.layers):
        raise ValueError("trace/model layer count mismatch")
    seed = np.asarray(dloss_dy, dtype=float)
    if seed.size == 1:
        seed = np.full(trace.output.shape, seed.item())
    if seed.size != trace.output.size:
        raise ValueError("dloss_dy length does not match the traced batch")

    grads = out
    if grads is None:
        flat = np.empty_like(model.flat)
        grads = Gradients(model.views(flat), flat)
    # running dLoss/d(post-dropout activation), (..., n, width)
    delta = seed.reshape(trace.output.shape)[..., None]
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        if trace.masks[i] is not None:
            delta = delta * trace.masks[i]
        if layer.activation is Activation.RELU:
            # subderivative 0 at the kink
            dz = delta * (trace.pre_activations[i] > 0.0)
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
              seed: int) -> MlpModel:
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
    return MlpModel(layers=layers, seed=seed)


def build_experiment_model(input_dim: int, seed: int) -> MlpModel:
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


def build_boundary_model(input_dim: int, seed: int) -> MlpModel:
    """Shallow net used for 2-feature decision-boundary pictures."""
    return build_mlp(input_dim, [
        (8, Activation.RELU, 0.0),
        (4, Activation.RELU, 0.0),
        (1, Activation.SIGMOID, 0.0),
    ], seed)


def predict_proba(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Deterministic inference probabilities for a batch ((B, n) for a
    stacked model)."""
    return forward(model, X, Mode.INFER).output


CHECKPOINT_MAGIC = "xmargin-checkpoint v1"


def save_model(model: MlpModel, path) -> None:
    """Flat text checkpoint: header, per-layer shape lines, then row-major
    parameters at full double precision."""
    lines = [CHECKPOINT_MAGIC, f"seed {model.seed}", f"layers {len(model.layers)}"]
    for l in model.layers:
        lines.append(f"layer {l.weights.shape[0]} {l.weights.shape[1]} "
                     f"{l.activation.value} {l.dropout_rate!r}")
    for l in model.layers:
        for arr in (l.weights, l.biases):
            lines.append(" ".join(repr(float(v)) for v in arr.ravel()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> MlpModel:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a model checkpoint: {path}")
    try:
        seed = int(lines[1].split()[1])
        n_layers = int(lines[2].split()[1])
        layers = []
        for i in range(n_layers):
            _, out_d, in_d, act, rate = lines[3 + i].split()
            w, b = (np.array([float(v) for v in lines[3 + n_layers + 2 * i + k].split()])
                    for k in (0, 1))
            layers.append(Layer(w.reshape(int(out_d), int(in_d)), b, Activation(act),
                                float(rate)))
        return MlpModel(layers=layers, seed=seed)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed model checkpoint {path}: {exc}") from exc
