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
runs it on a batch of one, and mean_diameter runs it in fixed blocks of 16
samples.

Each sample's center is one sequential accumulate over its particles in
ascending index order, so it does not depend on how numpy would otherwise
pair up a sum. The feasible box depends only on x and the budget, so a
search builds it once and each step is a single clamp to it.

A caller names each sample's particle stream by its sample id and one
(epoch, stream) pair; under the key of ``cfg.seed`` the draw reads the
Philox stream at counter (0, id, epoch, stream) (see ``seeding``), so a
sample draws the same particles alone or in any batch. _uniform_particles
is the only code that builds counter rows. find_corners draws as id 0 at
(0, 0), which is the stream of ``np.random.Philox(cfg.seed)``.

BLAS may reassociate a GEMM's sums differently for different row counts, so
the diameter path fixes the row count: every search call it makes holds
exactly 16 samples, the last block padded with copies of its last row. At a
fixed shape a sample's search does not depend on its block-mates or its
slot (tests/test_polytope.py checks this bitwise), so a row's diameter does
not depend on the other rows.

The returned particles are representatives of corner regions, not certified
vertices of the true set.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import _COUNT, _INDEX, _NONNEGATIVE, NumericsError, ShapeError
from .nn import MlpModel, forward, grad_input
from .seeding import stream_counters

_BLOCK = 16  # samples in every corner search of the diameter path (see above)


def _check_clip(clip: Optional[tuple[float, float]], field: str = "") -> None:
    """The input_clip rule: None, or two finite bounds with lo < hi."""
    name = f"{field} " if field else ""
    if clip is not None:
        lo, hi = clip
        if not lo < hi:
            raise ValueError(f"{name}lo must be < hi")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{name}bounds must be finite, got {clip}")


@dataclass(frozen=True)
class PerturbationBudget:
    """l-infinity perturbation budget, optionally intersected with an input
    domain box so that x + e stays inside [lo, hi]."""

    epsilon: float
    input_clip: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        _NONNEGATIVE.check(self.epsilon, "epsilon")
        _check_clip(self.input_clip, "input_clip")


@dataclass
class ParticleSet:
    """N perturbation vectors for one clean sample, plus their budget."""

    particles: np.ndarray
    budget: PerturbationBudget

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
    """Corner outputs, their empirical center, and the search's objective;
    the summary geometry is computed from the corners on each access."""

    corners: np.ndarray  # (N, c) logit vectors
    center: np.ndarray  # (c,)
    objective_history: np.ndarray  # (T,) mean squared distance per outer iteration

    def __post_init__(self) -> None:
        self.corners = np.asarray(self.corners, dtype=np.float64)
        self.center = np.asarray(self.center, dtype=np.float64)
        self.objective_history = np.asarray(self.objective_history, dtype=np.float64)

    @property
    def distances(self) -> np.ndarray:
        """(N,) l2 distance of each corner to the center."""
        return np.sqrt(((self.corners - self.center[None, :]) ** 2).sum(axis=1))

    @property
    def diameter(self) -> float:
        """Largest l2 distance between two corners."""
        return float(max_pairwise_distance(self.corners))


@dataclass(frozen=True)
class CornerConfig:
    """Search settings: N particles, T outer iterations, ascent step eta."""

    n_particles: int
    steps: int
    eta: float
    budget: PerturbationBudget
    seed: int = 0

    def __post_init__(self) -> None:
        _COUNT.check(self.n_particles, "n_particles")
        _COUNT.check(self.steps, "steps")
        _NONNEGATIVE.check(self.eta, "eta")
        _INDEX.check(self.seed, "seed")


def init_particles(
    seed: int, n_particles: int, dim: int, budget: PerturbationBudget
) -> ParticleSet:
    """Draw N particles with i.i.d. U(-epsilon, epsilon) coordinates.

    The stream is ``np.random.Philox(seed)``, a counter-based generator, so
    the same seed reproduces the same set bit-for-bit regardless of what was
    drawn elsewhere. This is find_corners' draw: id 0 at epoch 0, stream 0.
    """
    _COUNT.check(n_particles, "n_particles")
    _COUNT.check(dim, "dim")
    particles = _uniform_particles(seed, [0], 0, 0, n_particles, dim, budget.epsilon)
    return ParticleSet(particles=particles[0], budget=budget)


@functools.lru_cache(maxsize=64)
def _seed_sequence(seed: int) -> np.random.SeedSequence:
    """The SeedSequence that ``np.random.Philox(seed)`` derives its key from.
    Built from it, a Philox reads no OS entropy (``Philox(key=...)`` seeds an
    unused SeedSequence from OS entropy each time)."""
    return np.random.SeedSequence(seed)


def _uniform_particles(
    seed: int, ids, epoch: int, stream: int, n_particles: int, dim: int, epsilon: float
) -> np.ndarray:
    """(B, N, d) particles with i.i.d. U(-epsilon, epsilon) coordinates;
    sample b is drawn from the Philox stream under the key of ``seed`` at
    counter (0, ids[b], epoch, stream), laid out by ``stream_counters``,
    which raises ValueError for a negative or non-integer id.

    No clip is needed: ``uniform`` returns -epsilon + 2 epsilon u with u < 1
    and rounding is monotone, so every value lies in [-epsilon, epsilon];
    each ascent clamps its start to its own feasible box. Before each sample
    the one generator is reset to its fresh state at that sample's counter.
    """
    counters = stream_counters(ids, epoch, stream)
    if math.isinf(2.0 * epsilon):
        raise NumericsError(f"epsilon {epsilon!r}: the draw's range 2 * epsilon overflows float64")
    bitgen = np.random.Philox(_seed_sequence(operator.index(seed)))
    gen, fresh = np.random.Generator(bitgen), bitgen.state
    out = np.empty((len(counters), n_particles, dim), dtype=np.float64)
    for b, counter in enumerate(counters):
        fresh["state"]["counter"] = counter
        bitgen.state = fresh
        out[b] = gen.uniform(-epsilon, epsilon, size=(n_particles, dim))
    return out


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
    lower, upper = _feasible_box(budget, x)
    return np.clip(p, lower, upper)


def _feasible_box(
    budget: PerturbationBudget, x: Optional[np.ndarray]
) -> tuple[np.ndarray | float, np.ndarray | float]:
    """project's (lower, upper) bounds on a perturbation of x. They depend on
    x and the budget only, so an iterative search builds them once."""
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
    return lower, upper


def _mean_ascending(values: np.ndarray, axis: int) -> np.ndarray:
    """Mean with a fixed ascending-index reduction order along ``axis``.

    The sum is the last slice of ``np.add.accumulate``, which adds one
    element after another in ascending index order (``np.add.reduce`` may
    sum pairwise instead), then one division by n.
    """
    n = values.shape[axis]
    last = (slice(None),) * (axis % values.ndim) + (n - 1,)
    return np.add.accumulate(values, axis=axis, dtype=np.float64)[last] / n


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
    model: MlpModel, X: np.ndarray, ids, cfg: CornerConfig, epoch: int = 0, stream: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Vectorized corner search for B samples at once (the trainer's path).

    ``ids`` holds one non-negative integer sample id per row of X; sample
    b's particles start from the stream named by (ids[b], epoch, stream)
    under the key of ``cfg.seed``, so they do not depend on the other
    samples. Semantics are sample-wise: particles of different samples
    never interact, and each sample's center reduction runs in ascending
    particle order. All B*N ascent steps per iteration are fused
    into one batched forward/backward. BLAS may reassociate sums differently
    for different row counts, so a sample's bits can depend on B (~1e-15
    relative); find_corners runs batches of one and the diameter path
    batches of exactly 16.

    Returns (particles (B,N,d), corner logits (B,N,c), centers (B,c),
    objective history (B,T), trace of the final corner forward).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"X must be (B, d), got {X.shape}")
    B, d = X.shape
    if np.shape(ids) != (B,):
        raise ValueError(f"ids must hold one sample id per row of X ({B}), got {np.shape(ids)}")
    N, T, eta, budget = cfg.n_particles, cfg.steps, cfg.eta, cfg.budget

    Xb = X[:, None, :]
    lower, upper = _feasible_box(budget, Xb)
    P = _uniform_particles(cfg.seed, ids, epoch, stream, N, d, budget.epsilon)
    # Establish x + e feasibility up front; a pure epsilon-box budget is
    # already satisfied by construction, so this clamp is then a no-op.
    P = np.clip(P, lower, upper)

    logits, trace = forward(model, (Xb + P).reshape(B * N, d))
    c = logits.shape[1]
    L = logits.reshape(B, N, c)
    centers = _mean_ascending(L, axis=1)
    resid = L - centers[:, None, :]
    history = np.empty((B, T), dtype=np.float64)

    for t in range(T):
        g = grad_input(model, trace, 2.0 * resid.reshape(B * N, c)).reshape(B, N, d)
        if not np.isfinite(g).all():
            bad = np.argwhere(~np.isfinite(g).all(axis=2))
            i, n = int(bad[0, 0]), int(bad[0, 1])
            raise NumericsError(f"non-finite ascent gradient for particle {n} of sample {i}")
        P = np.clip(P + eta * g, lower, upper)
        del g, trace  # so that only one trace is alive during the forward
        logits, trace = forward(model, (Xb + P).reshape(B * N, d))
        L = logits.reshape(B, N, c)
        centers = _mean_ascending(L, axis=1)
        # this residual is also the next step's cotangent (halved);
        # np.add.reduce / N is np.mean's own arithmetic without its wrapper
        resid = L - centers[:, None, :]
        history[:, t] = np.add.reduce((resid**2).sum(axis=2), axis=1) / N

    return P, L, centers, history, trace


def max_pairwise_distance(corners: np.ndarray) -> np.ndarray | float:
    """Largest l2 distance between two rows of each (N, c) matrix of a
    (..., N, c) stack: a float for one matrix, 0.0 when it has one row."""
    corners = np.asarray(corners, dtype=np.float64)
    diffs = corners[..., :, None, :] - corners[..., None, :, :]
    return np.sqrt((diffs**2).sum(axis=-1)).max(axis=(-2, -1))


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
    P, L, centers, history, _ = corner_search_batch(model, x[None, :], [0], cfg)
    particles = ParticleSet(particles=P[0], budget=cfg.budget)
    est = PolytopeEstimate(corners=L[0], center=centers[0], objective_history=history[0])
    return particles, est


def _block_diameters(
    model: MlpModel, X: np.ndarray, cfg: CornerConfig, epoch: int = 0, stream: int = 0
) -> np.ndarray:
    """(n,) diameters of the rows of X; row i draws as sample id i at
    (epoch, stream).

    Every corner_search_batch call gets exactly _BLOCK samples. The last
    block is padded by repeating its last real row and that row's index,
    and the pad results are dropped.
    """
    n = X.shape[0]
    diameters = np.empty(n, dtype=np.float64)
    for start in range(0, n, _BLOCK):
        rows = np.minimum(np.arange(start, start + _BLOCK), n - 1)
        _, L, _, _, _ = corner_search_batch(model, X[rows], rows, cfg, epoch, stream)
        diameters[start : start + _BLOCK] = max_pairwise_distance(L[: n - start])
    return diameters


def mean_diameter(model: MlpModel, X: np.ndarray, cfg: CornerConfig, threads: int = 1) -> float:
    """Mean polytope diameter over the rows of X (the compactness metric).

    Row i draws as sample id i at epoch 0, stream 0 under ``cfg.seed``, in
    blocks of 16 rows (see the module docstring), so its diameter does not
    depend on the other rows. It may differ from find_corners' batch-of-one
    search in the last bits. ``threads`` has no effect; perfbench/worker.py
    still passes it.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"X must be (n, d), got {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("mean_diameter needs at least one sample")
    return float(np.mean(_block_diameters(model, X, cfg)))
