#!/usr/bin/env python3
"""Train the three trainers on a shrunken version of the blob benchmark and
compare clean accuracy, PGD robustness, and polytope compactness.

This is the library-level version of `caplab compare` (the shipped presets
run the full 150-epoch benchmark; here 40 epochs keeps the demo quick).
"""

import numpy as np

from caplab import (
    AttackConfig,
    CornerConfig,
    PerturbationBudget,
    TrainConfig,
    clean_accuracy,
    gen_blobs,
    init_mlp,
    mean_diameter,
    robust_accuracy,
    train,
)
from caplab.seeding import derive_seed

SEED = 0
CENTERS = [[-0.14, 0.0], [0.14, 0.0], [0.0, 0.2425]]
SIGMA = 0.03
EPS = 0.1

train_ds = gen_blobs(derive_seed(SEED, 1), 100, CENTERS, SIGMA)
test_ds = gen_blobs(derive_seed(SEED, 2), 100, CENTERS, SIGMA)
corner_cfg = CornerConfig(n_particles=10, steps=10, eta=0.02, budget=PerturbationBudget(EPS), seed=SEED)

print(f"three blobs, {train_ds.n_samples} train / {test_ds.n_samples} test, epsilon {EPS}")
print(f"{'trainer':<12} {'clean':>7} {'fgsm':>7} {'pgd-20':>7} {'diam':>8}")

for kind in ("clean", "vanilla_at", "cap"):
    model = init_mlp(derive_seed(SEED, 3), [2, 32, 32, 3])
    cfg = TrainConfig(
        baseline_kind=kind,
        epochs=40,
        lr=0.1,
        lr_drops=((25, 10.0), (33, 10.0)),
        polytope=corner_cfg,
        seed=SEED,
        lam=0.6,
        batch_size=128,
        attack=AttackConfig("pgd", EPS, 0.025, 10, random_start=True) if kind == "vanilla_at" else None,
    )
    train(model, train_ds, cfg)

    acc = clean_accuracy(model, test_ds)
    fgsm_acc = robust_accuracy(model, test_ds, AttackConfig("fgsm", EPS))
    pgd_acc = np.mean(
        [
            robust_accuracy(
                model, test_ds, AttackConfig("pgd", EPS, 0.02, 20, random_start=True, seed=s)
            )
            for s in (0, 1, 2)
        ]
    )
    diam = mean_diameter(model, test_ds.features, corner_cfg)
    print(f"{kind:<12} {acc:>7.3f} {fgsm_acc:>7.3f} {pgd_acc:>7.3f} {diam:>8.4f}")

print(
    "\nreading: the confinement trainer collapses the reachable-output sets"
    "\n(small diameter) and keeps accuracy under PGD, while plain training"
    "\nleaves large polytopes that cross the decision boundary."
)
