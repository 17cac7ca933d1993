"""Reference implementations that the tests compare the library against:
single-sample versions of batched paths, the full reverse pass, the corner
search loop written step by step, and a CSV writer. The library itself does
not use them."""

import csv

import numpy as np

from caplab import (
    CornerConfig,
    Dataset,
    MlpModel,
    NumericsError,
    ParticleSet,
    ShapeError,
    forward,
    grad_input,
    project,
)
from caplab.nn import PROB_FLOOR, _cotangent_rows
from caplab.polytope import _uniform_particles


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


def empirical_center(model: MlpModel, x: np.ndarray, particles: ParticleSet) -> np.ndarray:
    """Mean logit vector (1/N) sum_n f(x + e_n), reduced in ascending particle
    index order so the result is reproducible bit-for-bit."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (particles.dim,):
        raise ShapeError(f"sample shape {x.shape} does not match particle dim {particles.dim}")
    logits, _ = forward(model, x[None, :] + particles.particles)
    return mean_ascending(logits, axis=0)


def mean_ascending(values: np.ndarray, axis: int) -> np.ndarray:
    """Mean along ``axis`` as an explicit loop: slice 0, then slices 1, 2, ...
    added one at a time, then one division."""
    n = values.shape[axis]
    moved = np.moveaxis(values, axis, 0)
    acc = moved[0].astype(np.float64, copy=True)
    for k in range(1, n):
        acc += moved[k]
    return acc / n


def corner_search_reference(model: MlpModel, X: np.ndarray, ids, cfg: CornerConfig):
    """corner_search_batch written the long way: ``project`` on every step,
    the looped center, and the residual formed twice per step (once for the
    history, once more as the next step's cotangent). Returns (particles,
    corner logits, centers, objective history)."""
    X = np.asarray(X, dtype=np.float64)
    B, d = X.shape
    N, T, eta, budget = cfg.n_particles, cfg.steps, cfg.eta, cfg.budget

    P = _uniform_particles(cfg.seed, ids, 0, 0, N, d, budget.epsilon)
    Xb = X[:, None, :]
    P = project(P, budget, Xb)

    logits, trace = forward(model, (Xb + P).reshape(B * N, d))
    c = logits.shape[1]
    L = logits.reshape(B, N, c)
    centers = mean_ascending(L, axis=1)
    history = np.empty((B, T), dtype=np.float64)

    for t in range(T):
        resid = L - centers[:, None, :]
        g = grad_input(model, trace, 2.0 * resid.reshape(B * N, c)).reshape(B, N, d)
        if not np.isfinite(g).all():
            raise NumericsError("non-finite ascent gradient")
        P = project(P + eta * g, budget, Xb)
        logits, trace = forward(model, (Xb + P).reshape(B * N, d))
        L = logits.reshape(B, N, c)
        centers = mean_ascending(L, axis=1)
        history[:, t] = ((L - centers[:, None, :]) ** 2).sum(axis=2).mean(axis=1)

    return P, L, centers, history


def forward_out_of_place(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """``forward`` with each layer step in a new array: ``z = a @ W.T + b``,
    then ``a = np.maximum(z, 0)`` for relu. Returns (logits, trace)."""
    a = np.asarray(x, dtype=np.float64)
    squeeze = a.ndim == 1
    if squeeze:
        a = a.reshape(1, -1)
    trace = []
    for layer in model.layers:
        trace.append(a)
        z = a @ layer.weight.T + layer.bias
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
    return (a[0] if squeeze else a), trace


def preactivations(model: MlpModel, trace: list[np.ndarray]) -> list[np.ndarray]:
    """Each layer's pre-activation ``trace[k] @ W.T + b``, recomputed from
    the trace (the forward pass keeps only the layer inputs)."""
    return [a @ layer.weight.T + layer.bias for a, layer in zip(trace, model.layers)]


def backward(
    model: MlpModel, trace: list[np.ndarray], cotangent: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """The full reverse pass for sum over rows of <cotangent_row, logits_row>:
    (parameter gradients in ``parameters()`` order, input gradient as rows).
    ``grad_params`` and ``grad_input`` each compute one half of it. Relu
    masks come from the recomputed pre-activations ``z > 0``, not from the
    next layer's input as in the library."""
    delta = _cotangent_rows(model, trace, cotangent)
    preacts = preactivations(model, trace)
    weight_grads: list[np.ndarray] = []
    bias_grads: list[np.ndarray] = []
    for k in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[k]
        if layer.activation == "relu":
            delta = delta * (preacts[k] > 0.0)
        weight_grads.append(delta.T @ trace[k])
        bias_grads.append(delta.sum(axis=0))
        delta = delta @ layer.weight

    grads: list[np.ndarray] = []
    for dw, db in zip(reversed(weight_grads), reversed(bias_grads)):
        grads.append(dw)
        grads.append(db)
    return grads, delta


def save_csv(dataset: Dataset, path: str) -> None:
    """Write features plus a trailing label column (load_csv's default
    layout), floats in shortest round-trip repr, so a reload is value-exact."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        for i in range(dataset.n_samples):
            writer.writerow([repr(float(v)) for v in dataset.features[i]] + [int(dataset.labels[i])])
