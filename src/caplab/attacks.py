"""White-box evaluation attacks (FGSM, PGD) and robust accuracy.

Both attacks maximize the cross-entropy of the true class inside the
l-infinity budget box, optionally intersected with an input domain box.
They accept a single sample (d,) with an integer label or a batch (n, d)
with a label array; rows are attacked independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .errors import _COUNT, _INDEX, _POSITIVE, NumericsError, ShapeError
from .nn import MlpModel, _as_rows, forward, grad_input, softmax
from .polytope import PerturbationBudget, _feasible_box, _uniform_particles

ATTACK_KINDS = ("fgsm", "pgd")


@dataclass(frozen=True)
class AttackConfig:
    kind: str
    epsilon: float
    step_size: float = 0.0  # pgd only
    steps: int = 1  # pgd only
    random_start: bool = False
    input_clip: Optional[tuple[float, float]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        _INDEX.check(self.seed, "seed")
        if self.kind == "pgd":  # fgsm's one step has size epsilon: it ignores both
            _POSITIVE.check(self.step_size, "step_size")
            _COUNT.check(self.steps, "steps")
        self.budget()  # the budget checks epsilon and input_clip

    def budget(self) -> PerturbationBudget:
        return PerturbationBudget(epsilon=self.epsilon, input_clip=self.input_clip)


def _as_batch(model: MlpModel, x: np.ndarray, y) -> tuple[np.ndarray, np.ndarray, bool]:
    x, squeeze = _as_rows(x, model.input_dim, "attack")
    labels = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if labels.shape != (x.shape[0],):
        raise ShapeError(f"labels shape {labels.shape} does not match batch of {x.shape[0]}")
    c = model.output_dim
    if labels.size and not 0 <= labels.min() <= labels.max() < c:
        raise ShapeError(f"labels must lie in [0, {c}) for a model with {c} outputs")
    return x, labels, squeeze


def _ce_input_grad(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Rowwise gradient of CE(softmax(f(x)), y) w.r.t. x."""
    logits, trace = forward(model, x)
    cot = softmax(logits)
    cot[np.arange(x.shape[0]), labels] -= 1.0
    g = grad_input(model, trace, cot)
    if not np.isfinite(g).all():
        raise NumericsError("non-finite attack gradient")
    return g


def _signed_ascent(
    model: MlpModel,
    xb: np.ndarray,
    labels: np.ndarray,
    delta: np.ndarray | float,
    step: float,
    steps: int,
    budget: PerturbationBudget,
) -> np.ndarray:
    """x + delta after ``steps`` signed-gradient steps of size ``step`` from
    ``delta``, each projected back to the budget box around the clean x
    (the ``project`` clamp, with its bounds built once). Like the corner
    search, it clamps the start to that box before the first gradient."""
    lower, upper = _feasible_box(budget, xb)
    delta = np.clip(delta, lower, upper)
    for _ in range(steps):
        g = _ce_input_grad(model, xb + delta, labels)
        delta = np.clip(delta + step * np.sign(g), lower, upper)
    return xb + delta


def fgsm(model: MlpModel, x: np.ndarray, y, cfg: AttackConfig) -> np.ndarray:
    """Single signed-gradient step: x' = clamp(x + eps * sign(grad)), which is
    PGD's first step from delta = 0 with step size eps.

    sign(0) is 0, so a sample with an exactly-zero gradient is returned
    unchanged. clamp applies the input_clip domain when configured.
    """
    if cfg.kind != "fgsm":
        raise ValueError(f"fgsm called with kind {cfg.kind!r}")
    xb, labels, squeeze = _as_batch(model, x, y)
    # -0.0 is the exact additive identity (+0.0 would turn a -0.0 into +0.0),
    # so the step is bitwise project(eps * sign(grad)) and x stays x
    adv = _signed_ascent(model, xb, labels, -0.0, cfg.epsilon, 1, cfg.budget())
    return adv[0] if squeeze else adv


def pgd(model: MlpModel, x: np.ndarray, y, cfg: AttackConfig) -> np.ndarray:
    """Iterated signed-gradient ascent with projection back to the budget box.

    Optional uniform random start in [-eps, eps]^d (the corner search's
    particle draw, seeded by cfg.seed), else 0. The start is clamped to the
    feasible box and every iteration ends with the exact box projection
    around the clean x, so every iterate is feasible.
    """
    if cfg.kind != "pgd":
        raise ValueError(f"pgd called with kind {cfg.kind!r}")
    xb, labels, squeeze = _as_batch(model, x, y)
    if cfg.random_start:
        delta = _uniform_particles(cfg.seed, [0], 0, 0, *xb.shape, cfg.epsilon)[0]
    else:
        delta = np.zeros_like(xb)
    adv = _signed_ascent(model, xb, labels, delta, cfg.step_size, cfg.steps, cfg.budget())
    return adv[0] if squeeze else adv


def attack(model: MlpModel, x: np.ndarray, y, cfg: AttackConfig) -> np.ndarray:
    return fgsm(model, x, y, cfg) if cfg.kind == "fgsm" else pgd(model, x, y, cfg)


def _accuracy(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose argmax logit (ties: lowest class) is the label."""
    logits, _ = forward(model, features)
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def robust_accuracy(model: MlpModel, dataset: Dataset, cfg: AttackConfig) -> float:
    """Fraction of samples still classified correctly after the attack.

    With epsilon = 0 both attacks return the clean samples, so the result is
    exactly the clean accuracy.
    """
    adv = attack(model, dataset.features, dataset.labels, cfg)
    return _accuracy(model, adv, dataset.labels)


def clean_accuracy(model: MlpModel, dataset: Dataset) -> float:
    return _accuracy(model, dataset.features, dataset.labels)
