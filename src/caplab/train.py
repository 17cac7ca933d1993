"""Trainers: corner-confinement ("cap"), plain cross-entropy ("clean"), and
PGD adversarial training ("vanilla_at"), sharing one SGD-with-momentum loop.

The cap objective for one sample is

    CE(softmax(f(x)), y) + lambda * sum_n ||f(x + e*_n) - C*||^2

where the perturbations e*_n and center C* come from the corner search run
against the current parameters, and are treated as constants in the backward
pass (two-phase scheme: locate corners, then pull them in). The regularizer
is a sum over the N particles, not a mean. Batch loss is the mean over
samples, so lambda keeps its per-sample scale at any batch size.

Particles are re-initialized fresh every time a sample is visited, from the
Philox stream under the global seed's key named by (sample id, epoch,
STREAM_PARTICLES); the epoch probe draws as (probe row, epoch, STREAM_PROBE)
and runs mean_diameter's blocks of 16 samples.
Nothing here consumes a shared random stream, so runs are bit-reproducible.

``train`` returns one ``EpochRecord`` per epoch and writes no file; the CLI
writes the run files.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attacks import AttackConfig, attack, clean_accuracy
from .data import Dataset
from .errors import _COUNT, _INDEX, _NONNEGATIVE, _POSITIVE, NumericsError, ShapeError
from .nn import MlpModel, cross_entropy_rows, forward, grad_params, softmax
from .polytope import CornerConfig, _block_diameters, corner_search_batch
from .seeding import STREAM_ATTACK, STREAM_PARTICLES, STREAM_PROBE, STREAM_SHUFFLE, derive_seed

BASELINE_KINDS = ("cap", "clean", "vanilla_at")


def _check_lr_drops(drops: tuple[tuple[int, float], ...], field: str = "") -> None:
    """The lr_drops rule: integer epochs >= 1 in strictly increasing order,
    each with a finite divisor > 0."""
    name = f"{field} " if field else ""
    try:
        epochs = [operator.index(e) for e, _ in drops]
    except TypeError:
        raise ValueError(f"{name}epochs must be integers") from None
    if epochs != sorted(set(epochs)) or any(e < 1 for e in epochs):
        raise ValueError(f"{name}epochs must be positive and strictly increasing")
    if not all(math.isfinite(d) for _, d in drops):
        raise ValueError(f"{name}divisors must be finite")
    if any(d <= 0 for _, d in drops):
        raise ValueError(f"{name}divisors must be > 0")


@dataclass(frozen=True)
class TrainConfig:
    baseline_kind: str
    epochs: int
    lr: float
    lr_drops: tuple[tuple[int, float], ...]  # (1-based epoch, divisor), applied at epoch start
    polytope: CornerConfig
    seed: int = 0
    lam: float = 0.6
    batch_size: int = 128
    momentum: float = 0.9
    weight_decay: float = 0.0005
    attack: Optional[AttackConfig] = None
    probe_size: int = 0  # 0 disables the per-epoch probe diameter metric

    def __post_init__(self) -> None:
        if self.baseline_kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline_kind {self.baseline_kind!r}")
        _INDEX.check(self.epochs, "epochs")
        _POSITIVE.check(self.lr, "lr")
        _check_lr_drops(self.lr_drops, "lr_drops")
        _INDEX.check(self.seed, "seed")
        _NONNEGATIVE.check(self.lam, "lambda")
        _COUNT.check(self.batch_size, "batch_size")
        _NONNEGATIVE.check(self.momentum, "momentum")
        _NONNEGATIVE.check(self.weight_decay, "weight_decay")
        _INDEX.check(self.probe_size, "probe_size")
        if self.baseline_kind == "vanilla_at" and self.attack is None:
            raise ValueError("vanilla_at requires an attack config")


@dataclass
class EpochRecord:
    epoch: int
    clean_acc: float
    ce_term: float
    reg_term: float
    mean_diameter: Optional[float]
    lr: float


def sgd_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    velocities: list[np.ndarray],
    lr: float,
    cfg: TrainConfig,
) -> None:
    """Classical SGD with momentum and coupled weight decay; updates
    ``params`` and their momentum buffers ``velocities`` in place:

        v <- momentum * v + (grad + weight_decay * param)
        param <- param - lr * v
    """
    if len(params) != len(grads) or len(params) != len(velocities):
        raise ShapeError("params, grads and momentum buffers must align")
    for p, g, v in zip(params, grads, velocities):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        v *= cfg.momentum
        v += g + cfg.weight_decay * p
        p -= lr * v


def _ce_gradients(
    model: MlpModel, X: np.ndarray, labels: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Mean-over-batch cross-entropy gradients; returns (grads, per-row CE)."""
    logits, trace = forward(model, X)
    probs = softmax(logits)
    ce_rows = cross_entropy_rows(probs, labels)
    cot = probs
    cot[np.arange(X.shape[0]), labels] -= 1.0
    cot /= X.shape[0]
    return grad_params(model, trace, cot), ce_rows


def _batch_gradients(
    model: MlpModel,
    X: np.ndarray,
    labels: np.ndarray,
    sample_ids: np.ndarray,
    cfg: TrainConfig,
    search: CornerConfig,
    epoch: int,
    batch_index: int,
) -> tuple[list[np.ndarray], float, float]:
    """Mean-loss gradients for one minibatch; returns (grads, ce_sum, reg_sum).
    ``search`` is the cap term's corner search, keyed by the run seed."""
    if cfg.baseline_kind == "vanilla_at":
        atk = dataclasses.replace(
            cfg.attack, seed=derive_seed(cfg.seed, STREAM_ATTACK, epoch, batch_index)
        )
        X = attack(model, X, labels, atk)
    grads, ce_rows = _ce_gradients(model, X, labels)
    if cfg.baseline_kind != "cap" or cfg.lam == 0.0:
        # lam = 0 contributes exactly nothing, so the corner search is skipped.
        return grads, float(ce_rows.sum()), 0.0

    B = X.shape[0]
    _, L, centers, _, corner_trace = corner_search_batch(
        model, X, sample_ids, search, epoch, STREAM_PARTICLES
    )
    resid = L - centers[:, None, :]
    reg_rows = (resid**2).sum(axis=(1, 2))
    cot = (2.0 * cfg.lam / B) * resid.reshape(-1, model.output_dim)
    reg_grads = grad_params(model, corner_trace, cot)
    grads = [a + b for a, b in zip(grads, reg_grads)]
    return grads, float(ce_rows.sum()), float(cfg.lam * reg_rows.sum())


def _check_fit(model: MlpModel, dataset: Dataset, name: str = "model") -> None:
    """Raise ShapeError, naming the model ``name``, unless it takes the
    dataset's feature width and has an output for each of its classes."""
    if dataset.dim != model.input_dim or dataset.class_count > model.output_dim:
        raise ShapeError(
            f"{name} [{model.input_dim}->{model.output_dim}] does not fit dataset "
            f"[d={dataset.dim}, c={dataset.class_count}]"
        )


def train(model: MlpModel, dataset: Dataset, cfg: TrainConfig) -> list[EpochRecord]:
    """Run the configured trainer on ``model`` in place; returns one record
    per epoch.

    Per epoch: seeded shuffle, minibatch gradient steps (mean loss over the
    batch), then the epoch metrics. Learning-rate drops apply at the start
    of their 1-based epoch. With epochs = 0 the model is left unchanged and
    no record is returned.
    """
    _check_fit(model, dataset)
    params = model.parameters()
    velocities = [np.zeros_like(p) for p in params]
    lr = cfg.lr
    records = []
    probe = dataset.features[: cfg.probe_size] if cfg.probe_size > 0 else None
    search = dataclasses.replace(cfg.polytope, seed=cfg.seed)  # keyed by the run seed

    for epoch in range(1, cfg.epochs + 1):
        for drop_epoch, divisor in cfg.lr_drops:
            if drop_epoch == epoch:
                lr /= divisor
        perm = np.random.default_rng(derive_seed(cfg.seed, STREAM_SHUFFLE, epoch)).permutation(
            dataset.n_samples
        )
        ce_sum = 0.0
        reg_sum = 0.0
        for b in range(0, len(perm), cfg.batch_size):
            idx = perm[b : b + cfg.batch_size]
            try:
                grads, ce_part, reg_part = _batch_gradients(
                    model,
                    dataset.features[idx],
                    dataset.labels[idx],
                    idx,
                    cfg,
                    search,
                    epoch,
                    b // cfg.batch_size,
                )
            except NumericsError as exc:
                raise NumericsError(
                    f"epoch {epoch}, batch {b // cfg.batch_size}: {exc}"
                ) from exc
            loss = (ce_part + reg_part) / len(idx)
            if not np.isfinite(loss):
                raise NumericsError(
                    f"non-finite loss at epoch {epoch}, batch {b // cfg.batch_size}"
                )
            sgd_step(params, grads, velocities, lr, cfg)
            ce_sum += ce_part
            reg_sum += reg_part

        records.append(
            EpochRecord(
                epoch=epoch,
                clean_acc=clean_accuracy(model, dataset),
                ce_term=ce_sum / dataset.n_samples,
                reg_term=reg_sum / dataset.n_samples,
                mean_diameter=(
                    float(np.mean(_block_diameters(model, probe, search, epoch, STREAM_PROBE)))
                    if probe is not None
                    else None
                ),
                lr=lr,
            )
        )

    return records
