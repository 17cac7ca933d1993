"""Attack tests: closed-form and enumeration oracles, feasibility, and
accuracy-metric contracts."""

import itertools

import numpy as np
import pytest

import caplab.attacks
from caplab import (
    AttackConfig,
    CornerConfig,
    Layer,
    MlpModel,
    PerturbationBudget,
    TrainConfig,
    attack,
    clean_accuracy,
    fgsm,
    forward,
    gen_blobs,
    grad_input,
    init_mlp,
    pgd,
    project,
    robust_accuracy,
    softmax,
    train,
)
from caplab.nn import _forward_rows
from oracles import cross_entropy, one_hot


def linear_model(W, b=None):
    W = np.asarray(W, dtype=np.float64)
    b = np.zeros(W.shape[0]) if b is None else np.asarray(b, dtype=np.float64)
    return MlpModel([Layer(W, b, "identity")])


def ce_of(model, x, y):
    logits, _ = forward(model, x)
    return cross_entropy(softmax(logits), one_hot(y, model.output_dim))


def signed_ascent_reference(model, x, labels, delta, step, steps, budget):
    """The attack loop with ``project`` called on every step."""
    for _ in range(steps):
        logits, trace = forward(model, x + delta)
        cot = softmax(logits)
        cot[np.arange(x.shape[0]), labels] -= 1.0
        delta = project(delta + step * np.sign(grad_input(model, trace, cot)), budget, x)
    return x + delta


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
        # values the config file rejects: non-finite budgets and steps, negative seeds
        for kind, eps in itertools.product(("fgsm", "pgd"), (np.nan, np.inf, -0.1)):
            with pytest.raises(ValueError, match="epsilon"):
                AttackConfig(kind, epsilon=eps, step_size=0.1, steps=5)
        for step in (np.nan, np.inf):
            with pytest.raises(ValueError, match="step_size"):
                AttackConfig("pgd", epsilon=0.1, step_size=step, steps=5)
        for kind in ("fgsm", "pgd"):
            with pytest.raises(ValueError, match="seed"):
                AttackConfig(kind, epsilon=0.1, step_size=0.1, steps=5, seed=-1)
        # non-integer steps and seeds
        with pytest.raises(ValueError, match="steps"):
            AttackConfig("pgd", 0.1, 0.02, steps=2.5)
        for kind in ("fgsm", "pgd"):
            with pytest.raises(ValueError, match="seed"):
                AttackConfig(kind, epsilon=0.1, step_size=0.1, steps=5, seed=0.5)

    @pytest.mark.parametrize("kind", ["fgsm", "pgd"])
    def test_config_checks_its_budget_when_built(self, kind):
        # an empty, reversed or NaN clip fails here, not at the first attack
        for clip in [(1.0, 0.0), (0.5, 0.5), (np.nan, 1.0)]:
            with pytest.raises(ValueError, match="input_clip"):
                AttackConfig(kind, 0.1, 0.02, 3, input_clip=clip)

    def test_fgsm_config_ignores_pgd_settings(self):
        # fgsm's one step has size epsilon; the config file still checks both keys
        cfg = AttackConfig("fgsm", epsilon=0.1, step_size=0.0, steps=-1)
        assert cfg.budget() == PerturbationBudget(0.1)


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

    def test_equal_to_per_step_projection_loop_with_input_clip(self):
        rng = np.random.default_rng(50)
        model = init_mlp(51, [4, 8, 3])
        X = rng.uniform(0.0, 1.0, size=(12, 4))
        labels = rng.integers(0, 3, size=12)
        # three more rows on the domain's faces, with both signs of zero
        X = np.vstack([X, [[0.0, -0.0, 1.0, 0.5], [-0.0, 1.0, 0.0, -0.0], [1.0, 1.0, -0.0, 0.0]]])
        labels = np.append(labels, [0, 1, 2])
        eps = 0.2
        # a batch under an input_clip that binds, the same under a clip whose
        # lower face is -0.0, the batch without a clip, and a single (d,)
        # sample under the clip
        for clip, x, y in (
            ((0.0, 1.0), X, labels),
            ((-0.0, 1.0), X, labels),
            (None, X, labels),
            ((0.0, 1.0), X[3], int(labels[3])),
        ):
            xb, yb = np.atleast_2d(x), np.atleast_1d(y)
            budget = PerturbationBudget(eps, input_clip=clip)
            adv = fgsm(model, x, y, AttackConfig("fgsm", epsilon=eps, input_clip=clip))
            if clip is not None and x.ndim == 2:
                # the clip binds on the rows that do not start on a face
                assert np.any((adv[:12] == clip[0]) | (adv[:12] == clip[1]))
            want = signed_ascent_reference(model, xb, yb, -0.0, eps, 1, budget)
            assert adv.shape == x.shape and adv.tobytes() == want.tobytes()
            for random_start in (False, True):
                p_cfg = AttackConfig(
                    "pgd", eps, 0.05, 7, random_start=random_start, input_clip=clip, seed=52
                )
                delta = np.zeros_like(xb)
                if random_start:
                    gen = np.random.Generator(np.random.Philox(52))
                    delta = project(gen.uniform(-eps, eps, size=xb.shape), budget, xb)
                want = signed_ascent_reference(model, xb, yb, delta, 0.05, 7, budget)
                assert pgd(model, x, y, p_cfg).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, random_start", [("fgsm", False), ("pgd", False), ("pgd", True)])
    def test_every_evaluated_point_is_feasible(self, monkeypatch, kind, random_start):
        # samples near the domain's faces: an unclamped seed-4 start leaves [0, 1]
        x = np.array([[0.01, 0.99], [0.5, 0.02]])
        eps = 0.1
        seen = []

        def spy(model, a):
            seen.append(np.array(a, copy=True))
            return _forward_rows(model, a)

        # every step runs the unchecked core, after one check per call
        monkeypatch.setattr(caplab.attacks, "_forward_rows", spy)
        cfg = AttackConfig(kind, eps, 0.05, 5, random_start=random_start, input_clip=(0.0, 1.0), seed=4)
        attack(init_mlp(5, [2, 8, 3]), x, [0, 1], cfg)
        assert len(seen) == (1 if kind == "fgsm" else 5)
        for a in seen:
            assert np.abs(a - x).max() <= eps and a.min() >= 0.0 and a.max() <= 1.0

    def test_sample_outside_input_clip_raises_before_any_forward(self, monkeypatch):
        def no_forward(*args, **kwargs):
            raise AssertionError("forward pass ran")

        # neither the checked forward nor its core runs
        monkeypatch.setattr("caplab.attacks.forward", no_forward)
        monkeypatch.setattr("caplab.attacks._forward_rows", no_forward)
        model = init_mlp(53, [2, 4, 3])
        x = np.array([[0.5, 0.5], [2.0, 0.5]])
        for cfg in (
            AttackConfig("fgsm", 0.1, input_clip=(0.0, 1.0)),
            AttackConfig("pgd", 0.1, 0.05, 3, random_start=True, input_clip=(0.0, 1.0)),
        ):
            with pytest.raises(ValueError, match="outside the input_clip domain"):
                attack(model, x, [0, 1], cfg)

    @pytest.mark.parametrize("kind", ["fgsm", "pgd"])
    def test_box_whose_far_face_overflows_raises_forwards_error(self, kind):
        # the clean point and the start are finite, x + eps is not: the one
        # check per call covers every iterate, so even FGSM, whose only
        # forward is at x, refuses to return an infinite row
        model = linear_model([[1.0], [-1.0]])
        cfg = AttackConfig(kind, 0.5e308, 0.5e308, 3)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="forward: input contains non-finite values"):
                attack(model, np.array([[1.5e308]]), [1], cfg)

    @pytest.mark.parametrize("kind, random_start", [("fgsm", False), ("pgd", False), ("pgd", True)])
    def test_zero_budget_returns_x_plus_zero_bitwise(self, kind, random_start):
        # with no clip the box is [-0.0, 0.0], and the clamp
        # minimum(maximum(d, -0.0), 0.0) is +0.0 for every signed zero d, so
        # a -0.0 coordinate comes back as +0.0 and every other one as it was
        x = np.array([[-0.0, 0.2, 0.0], [0.5, -0.0, -1.0]])
        cfg = AttackConfig(kind, 0.0, 0.05, 3, random_start=random_start, seed=3)
        adv = attack(init_mlp(0, [3, 5, 2]), x, [0, 1], cfg)
        assert adv.tobytes() == (x + 0.0).tobytes()
        # project, the reference clamp, agrees in the sign of zero
        assert (x + project(np.full_like(x, -0.0), cfg.budget(), x)).tobytes() == adv.tobytes()


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
