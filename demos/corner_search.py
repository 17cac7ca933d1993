#!/usr/bin/env python3
"""Walk through the particle-based corner search on one sample.

Trains nothing: takes a small randomly initialized network, estimates the
set of logit outputs reachable under an l-inf input perturbation, and shows
how the particles spread from the empirical center toward the set's
corners. Writes an SVG scatter of the final corner logits next to this
script.
"""

from pathlib import Path

import numpy as np

from caplab import (
    CornerConfig,
    PerturbationBudget,
    find_corners,
    forward,
    init_mlp,
)
from caplab.svg import corner_scatter_svg

model = init_mlp(seed=7, dims=[2, 24, 24, 2])
x = np.array([0.35, -0.6])
budget = PerturbationBudget(epsilon=0.1)

logits, _ = forward(model, x)
print(f"clean sample x = {x},  f(x) = {np.round(logits, 4)}")

# Before any optimization: particles are uniform in the budget box, and the
# empirical center is just the mean of their outputs. One step at eta = 0
# leaves the particles where they were drawn.
_, start = find_corners(model, x, CornerConfig(10, 1, 0.0, budget, seed=42))
print(f"initial mean distance to center: {start.distances.mean():.5f}")

# The search: T outer iterations, each pushing every particle up the squared
# distance to the center frozen at the top of the iteration, then refreshing
# the center.
cfg = CornerConfig(n_particles=10, steps=40, eta=0.02, budget=budget, seed=42)
pset, est = find_corners(model, x, cfg)

print("\nmean squared distance per outer iteration (should grow, then settle):")
for t in range(0, cfg.steps, 5):
    print(f"  t={t + 1:>3}  {est.objective_history[t]:.6f}")

print(f"\nfinal mean distance to center: {est.distances.mean():.5f}")
print(f"polytope diameter estimate:    {est.diameter:.5f}")
saturated = np.mean(np.isclose(np.abs(pset.particles), budget.epsilon))
print(f"particle coords at the box wall: {saturated:.0%}")

# Shrinking the budget shrinks the reachable set toward a point.
for eps in (0.1, 0.05, 0.01, 0.0):
    small = CornerConfig(10, 40, 0.02, PerturbationBudget(eps), seed=42)
    _, e = find_corners(model, x, small)
    print(f"  epsilon={eps:<5} diameter={e.diameter:.6f}")

out = Path(__file__).with_suffix(".svg")
out.write_text(corner_scatter_svg(est.corners, est.center), encoding="utf-8")
print(f"\nwrote corner scatter to {out}")
