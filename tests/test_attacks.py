"""Attack tests: closed-form and enumeration oracles, feasibility, and
accuracy-metric contracts."""

import itertools

import numpy as np
import pytest

from caplab import (
    AttackConfig,
    CornerConfig,
    Layer,
    MlpModel,
    PerturbationBudget,
    TrainConfig,
    clean_accuracy,
    fgsm,
    forward,
    gen_blobs,
    init_mlp,
    pgd,
    robust_accuracy,
    softmax,
    train,
)
from oracles import cross_entropy, one_hot


def linear_model(W, b=None):
    W = np.asarray(W, dtype=np.float64)
    b = np.zeros(W.shape[0]) if b is None else np.asarray(b, dtype=np.float64)
    return MlpModel([Layer(W, b, "identity")])


def ce_of(model, x, y):
    logits, _ = forward(model, x)
    return cross_entropy(softmax(logits), one_hot(y, model.output_dim))


@pytest.fixture(scope="module")
def trained_blobs():
    """Small clean-trained model; attacks should visibly hurt it."""
    ds = gen_blobs(50, 70, [[-0.5, 0.0], [0.5, 0.0], [0.0, 0.85]], 0.22)
    model = init_mlp(51, [2, 16, 3])
    cfg = TrainConfig(
        baseline_kind="clean",
        epochs=80,
        lr=0.05,
        lr_drops=((60, 10.0),),
        polytope=CornerConfig(2, 2, 0.02, PerturbationBudget(0.1)),
        seed=52,
        batch_size=32,
    )
    train(model, ds, cfg)
    test_ds = gen_blobs(53, 70, [[-0.5, 0.0], [0.5, 0.0], [0.0, 0.85]], 0.22)
    return model, test_ds


class TestFgsm:
    def test_zero_epsilon_returns_input(self):
        model = init_mlp(0, [3, 5, 2])
        x = np.array([0.2, -0.4, 0.1])
        cfg = AttackConfig("fgsm", epsilon=0.0)
        assert np.array_equal(fgsm(model, x, 1, cfg), x)

    def test_linear_two_class_closed_form(self):
        # logit gap (w0 - w1) . x: the CE gradient w.r.t. x is a positive
        # multiple of -(w0 - w1) for label 0, so x' = x - eps sign(w0 - w1)
        rng = np.random.default_rng(40)
        W = rng.standard_normal((2, 4))
        model = linear_model(W, rng.standard_normal(2))
        x = rng.standard_normal(4)
        eps = 0.21
        cfg = AttackConfig("fgsm", epsilon=eps)
        got = fgsm(model, x, 0, cfg)
        want = x - eps * np.sign(W[0] - W[1])
        assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_exactly_zero_gradient_returns_input(self):
        # zero weights give constant symmetric logits and a zero gradient
        model = linear_model(np.zeros((2, 3)))
        x = np.array([0.5, -0.5, 0.25])
        cfg = AttackConfig("fgsm", epsilon=0.3)
        assert np.array_equal(fgsm(model, x, 0, cfg), x)

    def test_batch_rows_attacked_independently(self):
        rng = np.random.default_rng(41)
        model = init_mlp(42, [3, 8, 2])
        X = rng.standard_normal((5, 3))
        y = rng.integers(0, 2, 5)
        cfg = AttackConfig("fgsm", epsilon=0.1)
        batched = fgsm(model, X, y, cfg)
        for i in range(5):
            single = fgsm(model, X[i], int(y[i]), cfg)
            assert np.allclose(batched[i], single, rtol=0, atol=1e-12)


class TestPgd:
    def test_single_saturating_step_equals_fgsm(self):
        rng = np.random.default_rng(43)
        model = init_mlp(44, [4, 8, 3])
        x = rng.standard_normal(4)
        eps = 0.15
        f_cfg = AttackConfig("fgsm", epsilon=eps)
        p_cfg = AttackConfig("pgd", epsilon=eps, step_size=eps, steps=1, random_start=False)
        assert np.array_equal(pgd(model, x, 2, p_cfg), fgsm(model, x, 2, f_cfg))
        # a batch whose rows sit near the domain edges, so the clip binds
        X = rng.uniform(-1.0, 1.0, size=(8, 4))
        labels = rng.integers(0, 3, size=8)
        clip = (-1.0, 1.0)
        f_cfg = AttackConfig("fgsm", epsilon=eps, input_clip=clip)
        p_cfg = AttackConfig(
            "pgd", epsilon=eps, step_size=eps, steps=1, random_start=False, input_clip=clip
        )
        adv = fgsm(model, X, labels, f_cfg)
        assert np.any((adv == clip[0]) | (adv == clip[1]))
        assert pgd(model, X, labels, p_cfg).tobytes() == adv.tobytes()

    def test_zero_epsilon_returns_input(self):
        model = init_mlp(45, [2, 4, 2])
        x = np.array([0.3, 0.7])
        cfg = AttackConfig("pgd", epsilon=0.0, step_size=0.1, steps=7, random_start=True)
        assert np.array_equal(pgd(model, x, 0, cfg), x)

    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_matches_vertex_enumeration_oracle(self, d):
        # CE of a linear model is convex in the input (log-sum-exp of an
        # affine map minus an affine term), so its max over the box sits at
        # a vertex; enumerating all 2^d vertices gives the exact optimum
        rng = np.random.default_rng(100 + d)
        W = rng.standard_normal((2, d))
        model = linear_model(W, rng.standard_normal(2) * 0.1)
        x = rng.standard_normal(d) * 0.5
        eps = 0.2
        verts = np.array(list(itertools.product([-eps, eps], repeat=d)))
        best = max(ce_of(model, x + v, 0) for v in verts)
        cfg = AttackConfig("pgd", epsilon=eps, step_size=eps / 4, steps=20, random_start=False)
        adv = pgd(model, x, 0, cfg)
        assert abs(ce_of(model, adv, 0) - best) < 1e-9

    def test_random_start_is_seeded(self):
        model = init_mlp(46, [3, 6, 2])
        x = np.array([0.1, 0.2, 0.3])
        cfg = AttackConfig("pgd", epsilon=0.2, step_size=0.05, steps=3, random_start=True, seed=9)
        a = pgd(model, x, 1, cfg)
        b = pgd(model, x, 1, cfg)
        assert np.array_equal(a, b)
        c = pgd(model, x, 1, AttackConfig("pgd", 0.2, 0.05, 3, True, seed=10))
        assert not np.array_equal(a, c)

    def test_deterministic_without_random_start(self):
        model = init_mlp(47, [3, 6, 2])
        x = np.array([-0.4, 0.0, 0.9])
        cfg = AttackConfig("pgd", epsilon=0.1, step_size=0.03, steps=5, random_start=False)
        assert np.array_equal(pgd(model, x, 0, cfg), pgd(model, x, 0, cfg))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AttackConfig("pgd", epsilon=0.1, step_size=0.0, steps=5)
        with pytest.raises(ValueError):
            AttackConfig("pgd", epsilon=0.1, step_size=0.1, steps=0)
        with pytest.raises(ValueError):
            AttackConfig("bim", epsilon=0.1)


class TestFeasibility:
    def test_outputs_within_budget_and_clip(self):
        rng = np.random.default_rng(48)
        model = init_mlp(49, [4, 8, 3])
        for _ in range(20):
            x = rng.uniform(0, 1, 4)
            y = int(rng.integers(0, 3))
            eps = float(rng.uniform(0.0, 0.4))
            kind = rng.choice(["fgsm", "pgd"])
            if kind == "fgsm":
                cfg = AttackConfig("fgsm", epsilon=eps, input_clip=(0.0, 1.0))
                adv = fgsm(model, x, y, cfg)
            else:
                cfg = AttackConfig(
                    "pgd",
                    epsilon=eps,
                    step_size=max(eps / 3, 1e-3),
                    steps=int(rng.integers(1, 8)),
                    random_start=bool(rng.integers(0, 2)),
                    input_clip=(0.0, 1.0),
                    seed=int(rng.integers(0, 2**31)),
                )
                adv = pgd(model, x, y, cfg)
            assert np.abs(adv - x).max() <= eps + 1e-12
            assert adv.min() >= 0.0 and adv.max() <= 1.0


class TestRobustAccuracy:
    def test_epsilon_zero_equals_clean_accuracy(self, trained_blobs):
        model, ds = trained_blobs
        cfg = AttackConfig("pgd", epsilon=0.0, step_size=0.01, steps=3, random_start=True)
        assert robust_accuracy(model, ds, cfg) == clean_accuracy(model, ds)

    def test_never_exceeds_clean_accuracy(self, trained_blobs):
        model, ds = trained_blobs
        clean = clean_accuracy(model, ds)
        for cfg in (
            AttackConfig("fgsm", epsilon=0.1),
            AttackConfig("pgd", epsilon=0.1, step_size=0.02, steps=20, random_start=False),
        ):
            assert robust_accuracy(model, ds, cfg) <= clean

    def test_attack_meaningfully_reduces_accuracy(self, trained_blobs):
        model, ds = trained_blobs
        cfg = AttackConfig("pgd", epsilon=0.1, step_size=0.02, steps=20, random_start=True, seed=3)
        assert robust_accuracy(model, ds, cfg) < clean_accuracy(model, ds) - 0.02

    def test_constant_classifier_keeps_class_prior(self):
        # zero weights predict class 0 everywhere (lowest-index tie-break),
        # so robust accuracy equals the class-0 prior under any attack
        model = linear_model(np.zeros((3, 2)))
        ds = gen_blobs(54, 30, [[-1, 0], [1, 0], [0, 1]], 0.3)
        prior = float(np.mean(ds.labels == 0))
        for cfg in (
            AttackConfig("fgsm", epsilon=0.2),
            AttackConfig("pgd", epsilon=0.2, step_size=0.05, steps=5, random_start=True),
        ):
            assert robust_accuracy(model, ds, cfg) == prior

    def test_monotone_in_epsilon_seed_averaged(self, trained_blobs):
        # non-increasing accuracy over {0, eps/2, eps}, mean over 3 random
        # starts
        model, ds = trained_blobs
        eps = 0.1
        accs = []
        for e in (0.0, eps / 2, eps):
            runs = [
                robust_accuracy(
                    model,
                    ds,
                    AttackConfig("pgd", epsilon=e, step_size=0.02, steps=20, random_start=True, seed=s),
                )
                for s in (0, 1, 2)
            ]
            accs.append(float(np.mean(runs)))
        assert accs[0] >= accs[1] >= accs[2]
