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
The forward trace is the list of layer inputs, each 2-D, and nothing else:
the backward pass reads a relu layer's mask off the next layer's input.
The input gradient is one row exactly when its cotangent is one (c,) vector.
Each pass builds its layer arrays in place in buffers it allocated itself; no
pass writes into an array its caller passed. Relu masks are applied in place:
the output layer is identity, so each lands on a fresh ``delta @ W`` product.

Each public pass is its entry check followed by one private unchecked core
(``_forward_rows``, ``_input_grad_rows``), the pass's only implementation.
The ascent loops (the corner search, PGD and FGSM) check their inputs once
per call and then call the cores on every step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import _COUNT, NumericsError, ShapeError

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


def _as_rows(x: np.ndarray, width: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != width:
        raise ShapeError(f"{what}: layer 0 expects input of width {width}, got shape {x.shape}")
    return x, squeeze


def forward(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Evaluate the network; return (logits, trace).

    ``x`` may be one sample (d,) or a batch (B, d); logits come back with the
    matching shape ((c,) or (B, c)). ``trace[k]`` is the input to layer k as
    a 2-D (B, width) array, so ``trace[0]`` is the network input. It is what
    the backward pass needs, so a forward is never recomputed for its
    gradient. A relu layer k's mask is read from ``trace[k + 1] = max(z, 0)``:
    ``max(z, 0) > 0`` is ``z > 0`` for every float64 z (signed zeros,
    infinities and NaN included), and the last layer is identity, so every
    relu layer has a next input.
    """
    a, squeeze = _input_rows(model, x)
    logits, trace = _forward_rows(model, a)
    return (logits[0] if squeeze else logits), trace


def _input_rows(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """forward's entry check: x as 2-D rows and whether it was one (d,)
    sample; ShapeError unless it has the model's input width, ValueError
    unless it is finite."""
    a, squeeze = _as_rows(x, model.input_dim, "forward")
    if not np.isfinite(a).all():
        raise ValueError("forward: input contains non-finite values")
    return a, squeeze


def _forward_rows(model: MlpModel, a: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """forward's core on (B, d) rows that passed ``_input_rows``: (B, c)
    logits and the trace, with no check."""
    trace = []
    for layer in model.layers:
        trace.append(a)
        # the GEMM output is fresh, so the bias add and relu run in place
        a = a @ layer.weight.T
        a += layer.bias
        if layer.activation == "relu":
            np.maximum(a, 0.0, out=a)
    return a, trace


def _cotangent_rows(
    model: MlpModel, trace: list[np.ndarray], cotangent: np.ndarray
) -> np.ndarray:
    """The cotangent as (batch, logits) rows, checked against the trace."""
    if len(trace) != len(model.layers):
        raise ShapeError("trace does not match model: layer count differs")
    for k, layer in enumerate(model.layers):
        if trace[k].shape[1] != layer.in_dim:
            raise ShapeError(f"trace does not match model at layer {k}")
    cot = np.asarray(cotangent, dtype=np.float64)
    if cot.ndim == 1:
        cot = cot.reshape(1, -1)
    want = (trace[0].shape[0], model.output_dim)
    if cot.shape != want:
        raise ShapeError(f"cotangent shape {cot.shape} does not match logits shape {want}")
    return cot


def grad_params(
    model: MlpModel, trace: list[np.ndarray], cotangent: np.ndarray
) -> list[np.ndarray]:
    """Exact gradients of <cotangent, logits> w.r.t. every weight and bias.

    For a batched trace the result is the sum over rows. The list mirrors
    ``model.parameters()`` order. Relu uses subgradient 0 at exactly 0, so a
    pre-activation of 0.0 blocks the gradient. The pass stops at layer 0
    and forms no input gradient; that is ``grad_input``.
    """
    delta = _cotangent_rows(model, trace, cotangent)
    grads: list[np.ndarray] = []
    for k in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[k]
        if layer.activation == "relu":
            np.multiply(delta, trace[k + 1] > 0.0, out=delta)
        grads[:0] = [delta.T @ trace[k], delta.sum(axis=0)]
        if k:
            delta = delta @ layer.weight
    return grads


def grad_input(model: MlpModel, trace: list[np.ndarray], cotangent: np.ndarray) -> np.ndarray:
    """Exact gradient of <cotangent, logits> w.r.t. the network input.

    The input-only reverse pass: the same relu masks and ``delta @ W``
    products as ``grad_params``, so the same bits, without the weight and
    bias gradients that corner search and the attacks do not use. It returns
    one (d,) row if the cotangent is one (c,) vector, else (B, d) rows.
    """
    delta = _input_grad_rows(model, trace, _cotangent_rows(model, trace, cotangent))
    return delta[0] if np.ndim(cotangent) == 1 else delta


def _input_grad_rows(model: MlpModel, trace: list[np.ndarray], delta: np.ndarray) -> np.ndarray:
    """grad_input's core: (B, d) input-gradient rows for (B, c) cotangent
    rows that match the trace, with no check. It writes nothing into
    ``delta``: the output layer is identity, so the first mask lands on a
    fresh product."""
    for k in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[k]
        if layer.activation == "relu":
            np.multiply(delta, trace[k + 1] > 0.0, out=delta)
        delta = delta @ layer.weight
    return delta


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max subtraction), rowwise for batches."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(z).all():
        raise NumericsError("softmax: non-finite logits")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_rows(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Rowwise -log p[label]; labels are class indices."""
    p = np.asarray(probs, dtype=np.float64)
    idx = np.asarray(labels)
    picked = p[np.arange(p.shape[0]), idx]
    return -np.log(np.maximum(picked, PROB_FLOOR))


def init_mlp(seed: int, dims: Sequence[int], hidden_activation: str = "relu") -> MlpModel:
    """Build a seeded MLP with He-scaled normal weights and zero biases.

    ``dims`` lists layer widths input-first, e.g. [2, 32, 32, 3]. Hidden
    layers use ``hidden_activation``; the final layer is identity.
    """
    if len(dims) < 2:
        raise ValueError(f"dims must list at least [input, output] widths, got {dims}")
    for d in dims:
        _COUNT.check(d, "dims")
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


def _checkpoint_numbers(value, n: int, field: str) -> np.ndarray:
    """A checkpoint list of n finite numbers as float64; errors name the field."""
    if not isinstance(value, list) or any(type(v) not in (int, float) for v in value):
        raise ValueError(f"checkpoint {field}: expected a list of numbers")
    if len(value) != n:
        raise ShapeError(f"checkpoint {field}: expected {n} values, got {len(value)}")
    try:
        arr = np.array(value, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"checkpoint {field}: value outside the float64 range") from None
    bad = ~np.isfinite(arr)
    if bad.any():
        raise ValueError(f"checkpoint {field}[{int(np.argmax(bad))}]: non-finite value")
    return arr


def _checkpoint_int(rec: dict, key: str, field: str) -> int:
    value = rec.get(key)
    if type(value) is not int or value < 1:
        raise ValueError(f"checkpoint {field}.{key}: expected a positive integer, got {value!r}")
    return value


def model_from_dict(doc: dict) -> MlpModel:
    """Rebuild a model from a checkpoint document, checking its structure,
    types, lengths and that every parameter is finite. Errors are
    ``ValueError``/``ShapeError`` naming the field, e.g. ``layers[1].bias``."""
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint: expected a JSON object, got {type(doc).__name__}")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    recs = doc.get("layers")
    if not isinstance(recs, list) or not recs:
        raise ValueError("checkpoint layers: expected a non-empty list of layers")
    layers = []
    for k, rec in enumerate(recs):
        field = f"layers[{k}]"
        if not isinstance(rec, dict):
            raise ValueError(f"checkpoint {field}: expected an object")
        rows = _checkpoint_int(rec, "rows", field)
        cols = _checkpoint_int(rec, "cols", field)
        activation = rec.get("activation")
        if activation not in ACTIVATIONS:
            raise ValueError(
                f"checkpoint {field}.activation: expected one of {ACTIVATIONS}, got {activation!r}"
            )
        w = _checkpoint_numbers(rec.get("weights"), rows * cols, f"{field}.weights")
        b = _checkpoint_numbers(rec.get("bias"), rows, f"{field}.bias")
        layers.append(Layer(weight=w.reshape(rows, cols), bias=b, activation=activation))
    model = MlpModel(layers=layers)
    dims = doc.get("dims", {})
    if not isinstance(dims, dict):
        raise ValueError("checkpoint dims: expected an object")
    if dims.get("input", model.input_dim) != model.input_dim or dims.get(
        "output", model.output_dim
    ) != model.output_dim:
        raise ShapeError("checkpoint dims do not match its layers")
    return model


def save_model(model: MlpModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(model_to_dict(model), f, sort_keys=True)
        f.write("\n")


def load_model(path: str) -> MlpModel:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except RecursionError:
            raise ValueError("checkpoint: JSON nested too deeply") from None
    return model_from_dict(doc)
