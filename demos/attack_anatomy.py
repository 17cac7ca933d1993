#!/usr/bin/env python3
"""FGSM and PGD against a ground-truth oracle, then an epsilon sweep.

On a linear model the cross-entropy is convex in the input, so the
worst-case perturbation sits at a vertex of the budget box and can be found
by brute force. PGD should match it exactly; FGSM (one signed step) may
fall short on purpose.
"""

import itertools

import numpy as np

from caplab import (
    AttackConfig,
    Layer,
    MlpModel,
    TrainConfig,
    CornerConfig,
    PerturbationBudget,
    fgsm,
    forward,
    gen_blobs,
    init_mlp,
    pgd,
    robust_accuracy,
    softmax,
    train,
)
from caplab.seeding import derive_seed

rng = np.random.default_rng(5)
d, eps = 6, 0.2
W = rng.standard_normal((2, d))
model = MlpModel([Layer(W, rng.standard_normal(2) * 0.1, "identity")])
x = rng.standard_normal(d) * 0.5


def ce(z):
    logits, _ = forward(model, z)
    return float(-np.log(softmax(logits)[0]))


verts = np.array(list(itertools.product([-eps, eps], repeat=d)))
best = max(ce(x + v) for v in verts)
print(f"linear model, d={d}: brute-force worst-case CE over 2^{d} vertices = {best:.6f}")

adv_f = fgsm(model, x, 0, AttackConfig("fgsm", eps))
adv_p = pgd(model, x, 0, AttackConfig("pgd", eps, eps / 4, 20, random_start=False))
print(f"  fgsm CE  {ce(adv_f):.6f}   (single signed step)")
print(f"  pgd  CE  {ce(adv_p):.6f}   (deficit {best - ce(adv_p):.2e})")

# Epsilon sweep on a trained nonlinear model: robustness decays with budget.
CENTERS = [[-0.14, 0.0], [0.14, 0.0], [0.0, 0.2425]]
train_ds = gen_blobs(derive_seed(0, 1), 100, CENTERS, 0.03)
test_ds = gen_blobs(derive_seed(0, 2), 100, CENTERS, 0.03)
net = init_mlp(derive_seed(0, 3), [2, 32, 32, 3])
cfg = TrainConfig(
    baseline_kind="clean",
    epochs=40,
    lr=0.1,
    lr_drops=((30, 10.0),),
    polytope=CornerConfig(2, 2, 0.02, PerturbationBudget(0.1)),
    seed=0,
    batch_size=128,
)
train(net, train_ds, cfg)

print("\nplain-trained blobs model, PGD-20 accuracy by epsilon:")
for e in (0.0, 0.025, 0.05, 0.075, 0.1, 0.15):
    accs = [
        robust_accuracy(net, test_ds, AttackConfig("pgd", e, 0.02, 20, random_start=True, seed=s))
        for s in (0, 1, 2)
    ]
    bar = "#" * int(np.mean(accs) * 40)
    print(f"  eps={e:<6} acc={np.mean(accs):.3f} {bar}")
