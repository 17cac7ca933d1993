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
Philox stream of the global seed's key at counter (0, sample id, epoch,
STREAM_PARTICLES); the epoch probe uses (0, probe row, epoch, STREAM_PROBE).
Nothing here consumes a shared random stream, so runs are bit-reproducible.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .attacks import AttackConfig, attack, clean_accuracy
from .data import Dataset
from .errors import NumericsError, ShapeError
from .nn import MlpModel, cross_entropy_rows, forward, grad_params, softmax
from .polytope import CornerConfig, corner_search_batch, max_pairwise_distance
from .seeding import (
    STREAM_ATTACK,
    STREAM_PARTICLES,
    STREAM_PROBE,
    STREAM_SHUFFLE,
    derive_seed,
    stream_counters,
)

BASELINE_KINDS = ("cap", "clean", "vanilla_at")


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
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("momentum and weight_decay must be >= 0")
        if self.probe_size < 0:
            raise ValueError("probe_size must be >= 0")
        epochs_seen = [e for e, _ in self.lr_drops]
        if epochs_seen != sorted(set(epochs_seen)):
            raise ValueError("lr_drops epochs must be strictly increasing")
        if any(div <= 0 for _, div in self.lr_drops):
            raise ValueError("lr_drops divisors must be > 0")
        if self.baseline_kind == "vanilla_at" and self.attack is None:
            raise ValueError("vanilla_at requires an attack config")


@dataclass
class OptimizerState:
    """Per-parameter momentum buffers plus the current learning rate."""

    velocities: list[np.ndarray]
    lr: float


@dataclass
class EpochRecord:
    epoch: int
    clean_acc: float
    ce_term: float
    reg_term: float
    mean_diameter: Optional[float]
    lr: float


@dataclass
class TrainReport:
    config: TrainConfig
    records: list[EpochRecord] = field(default_factory=list)


def init_optimizer(model: MlpModel, cfg: TrainConfig) -> OptimizerState:
    return OptimizerState(velocities=[np.zeros_like(p) for p in model.parameters()], lr=cfg.lr)


def sgd_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: OptimizerState,
    cfg: TrainConfig,
) -> tuple[list[np.ndarray], OptimizerState]:
    """Classical SGD with momentum and coupled weight decay, in place:

        v <- momentum * v + (grad + weight_decay * param)
        param <- param - lr * v
    """
    if len(params) != len(grads) or len(params) != len(state.velocities):
        raise ShapeError("params, grads and momentum buffers must align")
    for p, g, v in zip(params, grads, state.velocities):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        v *= cfg.momentum
        v += g + cfg.weight_decay * p
        p -= state.lr * v
    return params, state


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
    epoch: int,
    batch_index: int,
) -> tuple[list[np.ndarray], float, float]:
    """Mean-loss gradients for one minibatch; returns (grads, ce_sum, reg_sum)."""
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
    counters = stream_counters(sample_ids, epoch, STREAM_PARTICLES)
    search = dataclasses.replace(cfg.polytope, seed=cfg.seed)  # keyed by the run seed
    _, L, centers, _, corner_trace = corner_search_batch(model, X, counters, search)
    resid = L - centers[:, None, :]
    reg_rows = (resid**2).sum(axis=(1, 2))
    cot = (2.0 * cfg.lam / B) * resid.reshape(-1, model.output_dim)
    reg_grads = grad_params(model, corner_trace, cot)
    grads = [a + b for a, b in zip(grads, reg_grads)]
    return grads, float(ce_rows.sum()), float(cfg.lam * reg_rows.sum())


def _probe_mean_diameter(model: MlpModel, probe: np.ndarray, cfg: TrainConfig, epoch: int) -> float:
    counters = stream_counters(np.arange(probe.shape[0]), epoch, STREAM_PROBE)
    search = dataclasses.replace(cfg.polytope, seed=cfg.seed)
    _, L, _, _, _ = corner_search_batch(model, probe, counters, search)
    return float(np.mean([max_pairwise_distance(L[i]) for i in range(L.shape[0])]))


def _check_fit(model: MlpModel, dataset: Dataset, name: str = "model") -> None:
    """Raise ShapeError, naming the model ``name``, unless it takes the
    dataset's feature width and has an output for each of its classes."""
    if dataset.dim != model.input_dim or dataset.class_count > model.output_dim:
        raise ShapeError(
            f"{name} [{model.input_dim}->{model.output_dim}] does not fit dataset "
            f"[d={dataset.dim}, c={dataset.class_count}]"
        )


def train(model: MlpModel, dataset: Dataset, cfg: TrainConfig) -> tuple[MlpModel, TrainReport]:
    """Run the configured trainer; the model is updated in place.

    Per epoch: seeded shuffle, minibatch gradient steps (mean loss over the
    batch), then the epoch metrics. Learning-rate drops apply at the start
    of their 1-based epoch. With epochs = 0 the model is returned unchanged
    and the report is empty.
    """
    if dataset.n_samples < 1:
        raise ValueError("dataset is empty")
    _check_fit(model, dataset)
    state = init_optimizer(model, cfg)
    params = model.parameters()
    report = TrainReport(config=cfg)
    probe = dataset.features[: cfg.probe_size] if cfg.probe_size > 0 else None

    for epoch in range(1, cfg.epochs + 1):
        for drop_epoch, divisor in cfg.lr_drops:
            if drop_epoch == epoch:
                state.lr /= divisor
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
            sgd_step(params, grads, state, cfg)
            ce_sum += ce_part
            reg_sum += reg_part

        report.records.append(
            EpochRecord(
                epoch=epoch,
                clean_acc=clean_accuracy(model, dataset),
                ce_term=ce_sum / dataset.n_samples,
                reg_term=reg_sum / dataset.n_samples,
                mean_diameter=(
                    _probe_mean_diameter(model, probe, cfg, epoch) if probe is not None else None
                ),
                lr=state.lr,
            )
        )

    return model, report


def write_history_csv(report: TrainReport, path: str) -> None:
    """Per-epoch history as CSV, one column per ``EpochRecord`` field in
    field order. Floats use shortest round-trip repr; None is an empty cell."""
    names = [f.name for f in dataclasses.fields(EpochRecord)]
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(names)
        for r in report.records:
            values = (getattr(r, name) for name in names)
            w.writerow(repr(float(v)) if isinstance(v, float) else v for v in values)
