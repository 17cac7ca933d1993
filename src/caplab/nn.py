"""Minimal dense-network engine with exact reverse-mode gradients.

Arrays are plain numpy float64 throughout (row-major, shape-carrying), which
is the package's tensor representation. A model is a stack of affine layers
with relu or identity activations; the last layer is always identity so its
outputs are logits. The backward pass works from a cotangent vector on the
logits, which covers every gradient this package needs:

    cross-entropy w.r.t. parameters   -> cotangent (softmax(logits) - y)
    cross-entropy w.r.t. the input    -> same cotangent through grad_input
    squared distance to a center      -> cotangent 2 * (logits - center)

All public entry points accept a single sample of shape (d,) or a batch of
rows (B, d); batch semantics are per-row application of the single-sample
contract. Internally everything runs on 2-D arrays through one code path,
so results are deterministic and bit-reproducible for identical inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NumericsError, ShapeError

ACTIVATIONS = ("relu", "identity")

MODEL_FORMAT_VERSION = 1

# Floor applied to the predicted probability of the true class so that
# cross-entropy stays finite even for a collapsed softmax.
PROB_FLOOR = 1e-300


@dataclass
class Layer:
    """One affine layer: weight [out x in], bias [out], then an activation."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str = "identity"

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ShapeError(f"layer weight must be 2-D, got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(
                f"layer bias shape {self.bias.shape} does not match weight rows "
                f"{self.weight.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


@dataclass
class MlpModel:
    """Fully-connected network; immutable during evaluation, mutated only by
    the optimizer between evaluations."""

    layers: list[Layer]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("model needs at least one layer")
        for k in range(1, len(self.layers)):
            if self.layers[k].in_dim != self.layers[k - 1].out_dim:
                raise ShapeError(
                    f"layer {k} expects input of width {self.layers[k].in_dim}, "
                    f"but layer {k - 1} emits {self.layers[k - 1].out_dim}"
                )
        if self.layers[-1].activation != "identity":
            raise ValueError("final layer must use the identity activation (logits)")

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list [W0, b0, W1, b1, ...] (live views, not copies)."""
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out


@dataclass
class ForwardTrace:
    """Activations retained from a forward pass for the paired backward.

    ``inputs[k]`` is the input to layer k (so inputs[0] is the network input)
    and ``preacts[k]`` is layer k's pre-activation. Both are stored as 2-D
    (batch, width) arrays; ``squeeze`` records whether the original input was
    a single (d,) vector.
    """

    inputs: list[np.ndarray] = field(default_factory=list)
    preacts: list[np.ndarray] = field(default_factory=list)
    squeeze: bool = False

    @property
    def batch_size(self) -> int:
        return self.inputs[0].shape[0]


def _as_rows(x: np.ndarray, width: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != width:
        raise ShapeError(f"{what}: layer 0 expects input of width {width}, got shape {x.shape}")
    return x, squeeze


def forward(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, ForwardTrace]:
    """Evaluate the network; return (logits, trace).

    ``x`` may be one sample (d,) or a batch (B, d); logits come back with the
    matching shape ((c,) or (B, c)). The trace retains what the backward pass
    needs, so a forward is never recomputed for its gradient.
    """
    a, squeeze = _as_rows(x, model.input_dim, "forward")
    if not np.isfinite(a).all():
        raise ValueError("forward: input contains non-finite values")
    trace = ForwardTrace(squeeze=squeeze)
    for layer in model.layers:
        trace.inputs.append(a)
        z = a @ layer.weight.T + layer.bias
        trace.preacts.append(z)
        if layer.activation == "relu":
            a = np.maximum(z, 0.0)
        else:
            a = z
    logits = a[0] if squeeze else a
    return logits, trace


def _backward(
    model: MlpModel, trace: ForwardTrace, cotangent: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Reverse pass for sum over batch rows of <cotangent_row, logits_row>.

    Returns (parameter gradients in ``parameters()`` order, input gradient).
    Relu uses subgradient 0 at exactly 0, so a pre-activation of 0.0 blocks
    the gradient.
    """
    if len(trace.inputs) != len(model.layers):
        raise ShapeError("trace does not match model: layer count differs")
    cot = np.asarray(cotangent, dtype=np.float64)
    if cot.ndim == 1:
        cot = cot.reshape(1, -1)
    want = (trace.batch_size, model.output_dim)
    if cot.shape != want:
        raise ShapeError(f"cotangent shape {cot.shape} does not match logits shape {want}")

    delta = cot
    weight_grads: list[np.ndarray] = []
    bias_grads: list[np.ndarray] = []
    for k in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[k]
        if trace.inputs[k].shape[1] != layer.in_dim:
            raise ShapeError(f"trace does not match model at layer {k}")
        if layer.activation == "relu":
            delta = delta * (trace.preacts[k] > 0.0)
        weight_grads.append(delta.T @ trace.inputs[k])
        bias_grads.append(delta.sum(axis=0))
        delta = delta @ layer.weight

    grads: list[np.ndarray] = []
    for dw, db in zip(reversed(weight_grads), reversed(bias_grads)):
        grads.append(dw)
        grads.append(db)
    return grads, delta


def grad_params(model: MlpModel, trace: ForwardTrace, cotangent: np.ndarray) -> list[np.ndarray]:
    """Exact gradients of <cotangent, logits> w.r.t. every weight and bias.

    For a batched trace the result is the sum over rows. The list mirrors
    ``model.parameters()`` order.
    """
    grads, _ = _backward(model, trace, cotangent)
    return grads


def grad_input(model: MlpModel, trace: ForwardTrace, cotangent: np.ndarray) -> np.ndarray:
    """Exact gradient of <cotangent, logits> w.r.t. the network input."""
    _, gx = _backward(model, trace, cotangent)
    return gx[0] if trace.squeeze else gx


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max subtraction), rowwise for batches."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise NumericsError("softmax: non-finite logits")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def one_hot(index: int, n_classes: int) -> np.ndarray:
    if not 0 <= index < n_classes:
        raise ValueError(f"class index {index} outside [0, {n_classes})")
    y = np.zeros(n_classes, dtype=np.float64)
    y[index] = 1.0
    return y


def label_index(y: np.ndarray) -> int:
    """Validate a one-hot label vector and return its class index."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("label vector must be 1-D")
    ones = np.flatnonzero(y == 1.0)
    if len(ones) != 1 or not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("label vector must have exactly one entry 1 and the rest 0")
    return int(ones[0])


def cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    """-log p[true class] for a single probability vector and one-hot label.

    The probability is floored at 1e-300 so the loss is finite even when the
    softmax has fully collapsed.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("probs must be a 1-D distribution")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("probs is not a probability distribution")
    k = label_index(y)
    if k >= len(p):
        raise ValueError(f"label index {k} outside distribution of length {len(p)}")
    return float(-np.log(max(p[k], PROB_FLOOR)))


def cross_entropy_rows(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Rowwise -log p[label]; labels are class indices."""
    p = np.asarray(probs, dtype=np.float64)
    idx = np.asarray(labels)
    picked = p[np.arange(p.shape[0]), idx]
    return -np.log(np.maximum(picked, PROB_FLOOR))


def predict_classes(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index."""
    logits, _ = forward(model, np.atleast_2d(np.asarray(x, dtype=np.float64)))
    return np.argmax(logits, axis=1)


def init_mlp(seed: int, dims: Sequence[int], hidden_activation: str = "relu") -> MlpModel:
    """Build a seeded MLP with He-scaled normal weights and zero biases.

    ``dims`` lists layer widths input-first, e.g. [2, 32, 32, 3]. Hidden
    layers use ``hidden_activation``; the final layer is identity.
    """
    dims = [int(d) for d in dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"dims must list at least [input, output] positive widths, got {dims}")
    rng = np.random.default_rng(int(seed))
    layers = []
    for k in range(len(dims) - 1):
        fan_in, fan_out = dims[k], dims[k + 1]
        w = rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in)
        b = np.zeros(fan_out)
        act = hidden_activation if k < len(dims) - 2 else "identity"
        layers.append(Layer(weight=w, bias=b, activation=act))
    return MlpModel(layers=layers)


def model_to_dict(model: MlpModel) -> dict:
    """Checkpoint document. Floats serialize via shortest round-trip decimal
    repr (at most 17 significant digits), so save/load is value-exact for
    finite 64-bit floats."""
    layers = []
    for layer in model.layers:
        if not (np.isfinite(layer.weight).all() and np.isfinite(layer.bias).all()):
            raise ValueError("cannot serialize a model with non-finite parameters")
        layers.append(
            {
                "rows": layer.out_dim,
                "cols": layer.in_dim,
                "activation": layer.activation,
                "weights": layer.weight.reshape(-1).tolist(),
                "bias": layer.bias.tolist(),
            }
        )
    return {
        "version": MODEL_FORMAT_VERSION,
        "dims": {"input": model.input_dim, "output": model.output_dim},
        "layers": layers,
    }


def model_from_dict(doc: dict) -> MlpModel:
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    layers = []
    for k, rec in enumerate(doc["layers"]):
        rows, cols = int(rec["rows"]), int(rec["cols"])
        w = np.asarray(rec["weights"], dtype=np.float64)
        if w.size != rows * cols:
            raise ShapeError(f"layer {k}: expected {rows * cols} weights, got {w.size}")
        layers.append(
            Layer(
                weight=w.reshape(rows, cols),
                bias=np.asarray(rec["bias"], dtype=np.float64),
                activation=str(rec["activation"]),
            )
        )
    model = MlpModel(layers=layers)
    dims = doc.get("dims", {})
    if int(dims.get("input", model.input_dim)) != model.input_dim or int(
        dims.get("output", model.output_dim)
    ) != model.output_dim:
        raise ShapeError("checkpoint dims do not match its layers")
    return model


def save_model(model: MlpModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model_to_dict(model), f, sort_keys=True)
        f.write("\n")


def load_model(path: str) -> MlpModel:
    with open(path, "r", encoding="utf-8") as f:
        return model_from_dict(json.load(f))
