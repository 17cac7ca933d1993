"""Reachable-output ("adversarial polytope") corner estimation.

For a clean sample x and a perturbation budget, the set of logit vectors
f(x + e) over all in-budget e is in general nonconvex. This module estimates
its extreme points with a particle method: N perturbations start uniform in
the budget box, and each one repeatedly takes a projected gradient-ascent
step on its squared distance to the empirical center of all particle
outputs. The center is frozen while the particles sweep and refreshed once
per outer iteration, which is what makes the per-particle updates
independent, so one batched forward/backward steps every particle of every
sample at once. corner_search_batch is the only search engine; find_corners
runs it on a batch of one.

The returned particles are representatives of corner regions, not certified
vertices of the true set.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import NumericsError, ShapeError
from .nn import MlpModel, ForwardTrace, forward, grad_input
from .seeding import derive_seed


@dataclass(frozen=True)
class PerturbationBudget:
    """l-infinity perturbation budget, optionally intersected with an input
    domain box so that x + e stays inside [lo, hi]."""

    epsilon: float
    norm_kind: str = "linf"
    input_clip: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.norm_kind != "linf":
            raise ValueError(f"unsupported norm_kind {self.norm_kind!r} (only 'linf')")
        if self.input_clip is not None:
            lo, hi = self.input_clip
            if not lo < hi:
                raise ValueError(f"input_clip must satisfy lo < hi, got {self.input_clip}")


@dataclass
class ParticleSet:
    """N perturbation vectors for one clean sample, plus their budget and the
    seed they were created from."""

    particles: np.ndarray
    budget: PerturbationBudget
    rng_seed: int

    def __post_init__(self) -> None:
        self.particles = np.asarray(self.particles, dtype=np.float64)
        if self.particles.ndim != 2 or self.particles.shape[0] < 1:
            raise ShapeError(f"particles must be (N, d) with N >= 1, got {self.particles.shape}")
        if np.any(np.abs(self.particles) > self.budget.epsilon):
            raise ValueError("particle coordinates exceed the epsilon budget")

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]

    @property
    def dim(self) -> int:
        return self.particles.shape[1]


@dataclass
class PolytopeEstimate:
    """Corner outputs, their empirical center, and summary geometry."""

    corners: np.ndarray  # (N, c) logit vectors
    center: np.ndarray  # (c,)
    distances: np.ndarray  # (N,) l2 distance corner -> center
    diameter: float  # max pairwise corner distance
    objective_history: np.ndarray  # (T,) mean squared distance per outer iteration

    def __post_init__(self) -> None:
        self.corners = np.asarray(self.corners, dtype=np.float64)
        self.center = np.asarray(self.center, dtype=np.float64)
        self.distances = np.asarray(self.distances, dtype=np.float64)
        self.objective_history = np.asarray(self.objective_history, dtype=np.float64)
        n = self.corners.shape[0]
        if self.distances.shape != (n,):
            raise ShapeError("one distance per corner is required")
        if np.any(self.distances < 0) or self.diameter < 0:
            raise ValueError("distances and diameter must be nonnegative")
        if self.diameter > 2.0 * self.distances.max(initial=0.0) + 1e-9:
            raise ValueError("diameter exceeds twice the max center distance")


@dataclass(frozen=True)
class CornerConfig:
    """Search settings: N particles, T outer iterations, ascent step eta."""

    n_particles: int
    steps: int
    eta: float
    budget: PerturbationBudget
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")


def init_particles(
    seed: int, n_particles: int, dim: int, budget: PerturbationBudget
) -> ParticleSet:
    """Draw N particles with i.i.d. U(-epsilon, epsilon) coordinates.

    Uses the counter-based Philox generator, so the same seed reproduces the
    same set bit-for-bit regardless of what was drawn elsewhere.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.Generator(np.random.Philox(int(seed)))
    eps = budget.epsilon
    particles = rng.uniform(-eps, eps, size=(n_particles, dim))
    # uniform() can round onto the open endpoint; keep the closed-box invariant exact
    np.clip(particles, -eps, eps, out=particles)
    return ParticleSet(particles=particles, budget=budget, rng_seed=int(seed))


def project(
    p: np.ndarray, budget: PerturbationBudget, x: Optional[np.ndarray] = None
) -> np.ndarray:
    """Exact Euclidean projection of a perturbation onto the feasible box.

    Coordinate-wise clamp to [-epsilon, epsilon]; when the budget carries an
    input_clip, additionally clamp so lo <= x + p <= hi. The intersection of
    boxes is a box, so the clamp is the exact l2 projection. Works on a
    single vector or on any stack of vectors broadcast against x.
    """
    p = np.asarray(p, dtype=np.float64)
    eps = budget.epsilon
    lower: np.ndarray | float = -eps
    upper: np.ndarray | float = eps
    if budget.input_clip is not None:
        if x is None:
            raise ValueError("projection with input_clip requires the clean sample x")
        lo, hi = budget.input_clip
        x = np.asarray(x, dtype=np.float64)
        lower = np.maximum(lower, lo - x)
        upper = np.minimum(upper, hi - x)
        if np.any(lower > upper):
            raise ValueError("clean sample lies outside the input_clip domain")
    return np.clip(p, lower, upper)


def _mean_ascending(values: np.ndarray, axis: int) -> np.ndarray:
    """Mean with a fixed ascending-index reduction order along ``axis``."""
    n = values.shape[axis]
    moved = np.moveaxis(values, axis, 0)
    acc = moved[0].astype(np.float64, copy=True)
    for k in range(1, n):
        acc += moved[k]
    return acc / n


def empirical_center(model: MlpModel, x: np.ndarray, particles: ParticleSet) -> np.ndarray:
    """Mean logit vector (1/N) sum_n f(x + e_n), reduced in ascending particle
    index order so the result is reproducible bit-for-bit."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (particles.dim,):
        raise ShapeError(f"sample shape {x.shape} does not match particle dim {particles.dim}")
    logits, _ = forward(model, x[None, :] + particles.particles)
    return _mean_ascending(logits, axis=0)


def ascend_step(
    model: MlpModel,
    x: np.ndarray,
    particles: np.ndarray,
    center: np.ndarray,
    eta: float,
    budget: PerturbationBudget,
) -> np.ndarray:
    """One projected gradient-ascent step on ||f(x + e) - center||^2 for every
    particle e of an (N, d) stack; a single (d,) particle also works.

    The center is treated as a constant: the gradient is the input gradient
    with cotangent 2 (f(x + e) - center), and the step ends with projection
    back onto the budget box.
    """
    x = np.asarray(x, dtype=np.float64)
    particles = np.asarray(particles, dtype=np.float64)
    logits, trace = forward(model, x + particles)
    g = grad_input(model, trace, 2.0 * (logits - np.asarray(center, dtype=np.float64)))
    bad = ~np.isfinite(g).reshape(-1, g.shape[-1]).all(axis=1)
    if bad.any():
        raise NumericsError(f"non-finite ascent gradient for particle {int(np.argmax(bad))}")
    return project(particles + eta * g, budget, x)


def corner_search_batch(
    model: MlpModel, X: np.ndarray, seeds: Sequence[int], cfg: CornerConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, ForwardTrace]:
    """Vectorized corner search for B samples at once (the trainer's path).

    Semantics are sample-wise: particles of different samples never
    interact, and each sample's center reduction runs in ascending particle
    order. All B*N ascent steps per iteration are fused into one batched
    forward/backward. BLAS may reassociate sums differently for different
    row counts, so a sample's bits can depend on which samples share its
    batch (~1e-15 relative); find_corners always runs a batch of one.

    Returns (particles (B,N,d), corner logits (B,N,c), centers (B,c),
    objective history (B,T), trace of the final corner forward).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"X must be (B, d), got {X.shape}")
    B, d = X.shape
    if len(seeds) != B:
        raise ValueError("one seed per sample is required")
    N, T, eta, budget = cfg.n_particles, cfg.steps, cfg.eta, cfg.budget

    P = np.stack([init_particles(s, N, d, budget).particles for s in seeds])
    Xb = X[:, None, :]
    # Establish x + e feasibility up front; a pure epsilon-box budget is
    # already satisfied by construction, so this clamp is then a no-op.
    P = project(P, budget, Xb)

    logits, trace = forward(model, (Xb + P).reshape(B * N, d))
    c = logits.shape[1]
    L = logits.reshape(B, N, c)
    centers = _mean_ascending(L, axis=1)
    history = np.empty((B, T), dtype=np.float64)

    for t in range(T):
        resid = L - centers[:, None, :]
        g = grad_input(model, trace, 2.0 * resid.reshape(B * N, c)).reshape(B, N, d)
        if not np.isfinite(g).all():
            bad = np.argwhere(~np.isfinite(g).all(axis=2))
            i, n = int(bad[0, 0]), int(bad[0, 1])
            raise NumericsError(f"non-finite ascent gradient for particle {n} of sample {i}")
        P = project(P + eta * g, budget, Xb)
        logits, trace = forward(model, (Xb + P).reshape(B * N, d))
        L = logits.reshape(B, N, c)
        centers = _mean_ascending(L, axis=1)
        history[:, t] = ((L - centers[:, None, :]) ** 2).sum(axis=2).mean(axis=1)

    return P, L, centers, history, trace


def max_pairwise_distance(corners: np.ndarray) -> float:
    """Largest l2 distance between any two rows; 0.0 for a single row."""
    corners = np.asarray(corners, dtype=np.float64)
    if corners.shape[0] < 2:
        return 0.0
    diffs = corners[:, None, :] - corners[None, :, :]
    return float(np.sqrt((diffs**2).sum(axis=2)).max())


def diameter(est: PolytopeEstimate) -> float:
    """Max pairwise corner distance of an estimate (recomputed by definition)."""
    return max_pairwise_distance(est.corners)


def find_corners(
    model: MlpModel, x: np.ndarray, cfg: CornerConfig
) -> tuple[ParticleSet, PolytopeEstimate]:
    """Full corner search for one sample: corner_search_batch on a batch of one.

    Initializes N particles from the seeded uniform law, computes the
    empirical center, then runs T outer iterations: every particle takes
    one ascent step against the center frozen at the top of the iteration,
    after which the center is refreshed from the new particle outputs. No
    early stopping; the per-iteration mean squared distance is recorded so
    stagnation is observable.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"x must be a single (d,) sample, got {x.shape}")
    P, L, centers, history, _ = corner_search_batch(model, x[None, :], [cfg.seed], cfg)
    logits, center = L[0], centers[0]
    particles = ParticleSet(particles=P[0], budget=cfg.budget, rng_seed=int(cfg.seed))
    dists = np.sqrt(((logits - center[None, :]) ** 2).sum(axis=1))
    est = PolytopeEstimate(
        corners=logits,
        center=center,
        distances=dists,
        diameter=max_pairwise_distance(logits),
        objective_history=history[0],
    )
    return particles, est


def find_corners_many(
    model: MlpModel,
    X: np.ndarray,
    cfg: CornerConfig,
    seeds: Optional[Sequence[int]] = None,
    threads: int = 1,
) -> list[tuple[ParticleSet, PolytopeEstimate]]:
    """find_corners per row of X, in row order.

    Row i is bit-equal to find_corners(model, X[i], cfg with seeds[i]),
    whatever the other rows are. When ``seeds`` is omitted, per-sample
    seeds derive from cfg.seed and the row index. ``threads`` is accepted
    for compatibility and has no effect.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"X must be (n, d), got {X.shape}")
    if seeds is None:
        seeds = [derive_seed(cfg.seed, i) for i in range(X.shape[0])]
    if len(seeds) != X.shape[0]:
        raise ValueError("one seed per sample is required")
    return [find_corners(model, x, dataclasses.replace(cfg, seed=int(s))) for x, s in zip(X, seeds)]


def mean_diameter(
    model: MlpModel,
    X: np.ndarray,
    cfg: CornerConfig,
    seeds: Optional[Sequence[int]] = None,
    threads: int = 1,
) -> float:
    """Mean polytope diameter over the rows of X (the compactness metric).
    ``threads`` is accepted for compatibility and has no effect."""
    results = find_corners_many(model, X, cfg, seeds=seeds)
    return float(np.mean([est.diameter for _, est in results]))
