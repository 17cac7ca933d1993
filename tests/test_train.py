"""Trainer tests: optimizer algebra, confinement loss oracles, trajectory
equivalences, and determinism."""

import dataclasses

import numpy as np
import pytest

from caplab import (
    AttackConfig,
    CornerConfig,
    MlpModel,
    ParticleSet,
    PerturbationBudget,
    ShapeError,
    TrainConfig,
    find_corners,
    forward,
    gen_blobs,
    grad_params,
    init_mlp,
    sgd_step,
    softmax,
    train,
)
from caplab.nn import cross_entropy_rows
from caplab.polytope import corner_search_batch, max_pairwise_distance
from caplab.seeding import STREAM_PARTICLES, STREAM_PROBE
from caplab.train import _batch_gradients
from oracles import cross_entropy, label_index, one_hot


def cap_loss(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    corners: ParticleSet,
    center: np.ndarray,
    lam: float,
) -> tuple[float, list[np.ndarray]]:
    """Single-sample confinement loss and its parameter gradients: the
    reference oracle for the trainer's batched regularizer.

    ``corners`` and ``center`` are the corner-search outputs for (model, x)
    at the current parameters; both are constants in the backward pass.
    With lam = 0 this reduces exactly to the plain cross-entropy loss.
    """
    x = np.asarray(x, dtype=np.float64)
    y_idx = label_index(np.asarray(y)) if np.asarray(y).ndim == 1 else int(y)
    logits, trace = forward(model, x)
    probs = softmax(logits)
    ce = float(-np.log(max(probs[y_idx], 1e-300)))
    grads = grad_params(model, trace, probs - one_hot(y_idx, len(probs)))
    if lam == 0.0:
        return ce, grads
    center = np.asarray(center, dtype=np.float64)
    if center.shape != (model.output_dim,):
        raise ShapeError(
            f"center length {center.shape} does not match output dim {model.output_dim}"
        )
    corner_logits, corner_trace = forward(model, x[None, :] + corners.particles)
    resid = corner_logits - center[None, :]
    reg = float((resid**2).sum())
    reg_grads = grad_params(model, corner_trace, 2.0 * lam * resid)
    return ce + lam * reg, [a + b for a, b in zip(grads, reg_grads)]


def tiny_polytope(eps=0.1, seed=0):
    return CornerConfig(n_particles=4, steps=3, eta=0.05, budget=PerturbationBudget(eps), seed=seed)


def clean_cfg(**kw):
    base = dict(
        baseline_kind="clean",
        epochs=5,
        lr=0.05,
        lr_drops=(),
        polytope=tiny_polytope(),
        seed=0,
        batch_size=32,
        momentum=0.9,
        weight_decay=0.0005,
    )
    base.update(kw)
    return TrainConfig(**base)


def dataset_ce(model, ds):
    logits, _ = forward(model, ds.features)
    return float(cross_entropy_rows(softmax(logits), ds.labels).mean())


def params_equal(model_a, model_b):
    return all(np.array_equal(p, q) for p, q in zip(model_a.parameters(), model_b.parameters()))


class TestSgdStep:
    def test_plain_gradient_descent(self):
        cfg = clean_cfg(momentum=0.0, weight_decay=0.0, lr=0.1)
        p = [np.array([1.0, 2.0])]
        g = [np.array([0.5, -1.0])]
        sgd_step(p, g, [np.zeros(2)], 0.1, cfg)
        assert np.allclose(p[0], [1.0 - 0.05, 2.0 + 0.1], rtol=0, atol=1e-15)

    def test_two_steps_constant_gradient_closed_form(self):
        # v1 = g, v2 = (1 + mu) g, total displacement -lr g (2 + mu)
        mu = 0.9
        lr = 0.01
        cfg = clean_cfg(momentum=mu, weight_decay=0.0, lr=lr)
        p = [np.array([3.0])]
        g = [np.array([2.0])]
        v = [np.zeros(1)]
        sgd_step(p, g, v, lr, cfg)
        sgd_step(p, g, v, lr, cfg)
        assert p[0][0] == pytest.approx(3.0 - lr * 2.0 * (2 + mu), abs=1e-15)

    def test_zero_gradient_fresh_state_leaves_params(self):
        cfg = clean_cfg(momentum=0.9, weight_decay=0.0)
        p = [np.array([1.0, -1.0])]
        sgd_step(p, [np.zeros(2)], [np.zeros(2)], 0.1, cfg)
        assert np.array_equal(p[0], np.array([1.0, -1.0]))

    def test_zero_gradient_decays_buffers(self):
        cfg = clean_cfg(momentum=0.5, weight_decay=0.0)
        v = [np.array([2.0])]
        sgd_step([np.array([0.0])], [np.zeros(1)], v, 0.1, cfg)
        assert v[0][0] == 1.0

    def test_weight_decay_enters_gradient(self):
        cfg = clean_cfg(momentum=0.0, weight_decay=0.1, lr=1.0)
        p = [np.array([2.0])]
        sgd_step(p, [np.zeros(1)], [np.zeros(1)], 1.0, cfg)
        assert p[0][0] == pytest.approx(2.0 - 0.1 * 2.0, abs=1e-15)


class TestCapLoss:
    def _fixture(self, seed=0, eps=0.15):
        rng = np.random.default_rng(seed)
        model = init_mlp(int(rng.integers(0, 2**31)), [3, 8, 4, 3])
        x = rng.standard_normal(3) * 0.5
        y = int(rng.integers(0, 3))
        cfg = CornerConfig(4, 8, 0.05, PerturbationBudget(eps), seed=int(rng.integers(0, 2**31)))
        corners, est = find_corners(model, x, cfg)
        return model, x, y, corners, est

    def test_lambda_zero_reduces_to_cross_entropy(self):
        model, x, y, corners, est = self._fixture(1)
        loss, _ = cap_loss(model, x, one_hot(y, 3), corners, est.center, lam=0.0)
        logits, _ = forward(model, x)
        assert loss == cross_entropy(softmax(logits), one_hot(y, 3))

    def test_zero_budget_regularizer_exactly_zero(self):
        model, x, y, _, _ = self._fixture(2)
        cfg = CornerConfig(4, 3, 0.05, PerturbationBudget(0.0), seed=5)
        corners, est = find_corners(model, x, cfg)
        loss, _ = cap_loss(model, x, one_hot(y, 3), corners, est.center, lam=0.7)
        logits, _ = forward(model, x)
        assert loss == cross_entropy(softmax(logits), one_hot(y, 3))

    def test_regularizer_nonnegative(self):
        for seed in range(5):
            model, x, y, corners, est = self._fixture(seed)
            full, _ = cap_loss(model, x, one_hot(y, 3), corners, est.center, lam=1.0)
            ce_only, _ = cap_loss(model, x, one_hot(y, 3), corners, est.center, lam=0.0)
            assert full >= ce_only

    def test_gradients_match_finite_differences(self):
        # corners and center frozen: the objective is a plain function of
        # theta, checkable coordinate-by-coordinate with central differences
        model, x, y, corners, est = self._fixture(3)
        lam = 0.6
        _, grads = cap_loss(model, x, one_hot(y, 3), corners, est.center, lam)

        def objective():
            loss, _ = cap_loss(model, x, one_hot(y, 3), corners, est.center, lam)
            return loss

        h = 1e-5
        for p, g in zip(model.parameters(), grads):
            flat, gf = p.reshape(-1), g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = objective()
                flat[i] = orig - h
                dn = objective()
                flat[i] = orig
                numeric = (up - dn) / (2 * h)
                assert abs(gf[i] - numeric) / max(abs(gf[i]), abs(numeric), 1.0) < 1e-6

    def test_batched_regularizer_matches_per_sample_oracle(self):
        # the trainer's fused minibatch gradient is the mean of per-sample
        # cap_loss gradients, each sample's corners searched on its own
        ds = gen_blobs(18, 4, [[-1, 0], [1, 0], [0, 1.5]], 0.4)
        model = init_mlp(6, [2, 8, 3])
        cfg = clean_cfg(baseline_kind="cap", lam=0.6, seed=19)
        ids = np.arange(ds.n_samples)
        # the trainer keys its streams from the run seed, not the polytope's
        search = dataclasses.replace(cfg.polytope, seed=cfg.seed)
        grads, ce_sum, reg_sum = _batch_gradients(
            model, ds.features, ds.labels, ids, cfg, search, 1, 0
        )
        total = 0.0
        want = [np.zeros_like(p) for p in model.parameters()]
        for i in ids:
            P, _, centers, _, _ = corner_search_batch(
                model, ds.features[i : i + 1], [i], search, 1, STREAM_PARTICLES
            )
            corners = ParticleSet(P[0], search.budget)
            loss, g = cap_loss(model, ds.features[i], ds.labels[i], corners, centers[0], cfg.lam)
            total += loss
            want = [w + gi / len(ids) for w, gi in zip(want, g)]
        assert reg_sum > 0
        assert ce_sum + reg_sum == pytest.approx(total, rel=1e-12)
        for g, w in zip(grads, want):
            assert np.allclose(g, w, rtol=1e-9, atol=1e-12)

    def test_center_length_mismatch_rejected(self):
        model, x, y, corners, est = self._fixture(4)
        with pytest.raises(Exception, match="center"):
            cap_loss(model, x, one_hot(y, 3), corners, np.zeros(5), lam=0.5)


class TestTrain:
    def test_zero_epochs_is_identity(self):
        ds = gen_blobs(0, 20, [[-1, 0], [1, 0]], 0.3)
        model = init_mlp(1, [2, 4, 2])
        before = [p.copy() for p in model.parameters()]
        assert train(model, ds, clean_cfg(epochs=0)) == []
        assert all(np.array_equal(p, q) for p, q in zip(model.parameters(), before))

    def test_separable_blobs_reach_full_accuracy(self):
        # construction guarantees a separating line at x0 = 0, verified here
        ds = gen_blobs(3, 50, [[-2.0, 0.0], [2.0, 0.0]], 0.4)
        assert (ds.features[ds.labels == 0][:, 0] < 0).all()
        assert (ds.features[ds.labels == 1][:, 0] > 0).all()
        model = init_mlp(5, [2, 8, 2])
        cfg = clean_cfg(epochs=200, lr=0.1, batch_size=16, weight_decay=0.0, seed=7)
        records = train(model, ds, cfg)
        assert max(r.clean_acc for r in records) == 1.0

    def test_lambda_zero_matches_clean_trainer_bitwise(self):
        ds = gen_blobs(11, 40, [[-1, 0], [1, 0], [0, 1.5]], 0.4)
        for epochs in (1, 3, 5):
            m_clean = init_mlp(9, [2, 8, 3])
            m_cap = init_mlp(9, [2, 8, 3])
            cfg_clean = clean_cfg(epochs=epochs, seed=13, probe_size=4)
            cfg_cap = dataclasses.replace(cfg_clean, baseline_kind="cap", lam=0.0)
            rec_clean = train(m_clean, ds, cfg_clean)
            rec_cap = train(m_cap, ds, cfg_cap)
            assert params_equal(m_clean, m_cap)
            for a, b in zip(rec_clean, rec_cap):
                assert a.clean_acc == b.clean_acc
                assert a.ce_term == b.ce_term
                assert a.reg_term == b.reg_term == 0.0
                assert a.mean_diameter == b.mean_diameter

    def test_first_epoch_loss_decreases(self):
        # smoke property, averaged over 3 seeds at lr = 0.01
        deltas = []
        for seed in (0, 1, 2):
            ds = gen_blobs(seed, 50, [[-1, 0], [1, 0], [0, 1.5]], 0.4)
            model = init_mlp(seed + 100, [2, 16, 3])
            before = dataset_ce(model, ds)
            train(model, ds, clean_cfg(epochs=1, lr=0.01, seed=seed))
            deltas.append(dataset_ce(model, ds) - before)
        assert np.mean(deltas) < 0

    def test_full_run_bit_reproducible(self):
        ds = gen_blobs(14, 30, [[-1, 0], [1, 0]], 0.35)
        cfg = clean_cfg(
            epochs=4, seed=21, baseline_kind="cap", lam=0.3, probe_size=4
        )
        m1 = init_mlp(2, [2, 8, 2])
        m2 = init_mlp(2, [2, 8, 2])
        r1 = train(m1, ds, cfg)
        r2 = train(m2, ds, cfg)
        assert params_equal(m1, m2)
        assert [e.clean_acc for e in r1] == [e.clean_acc for e in r2]
        assert [e.mean_diameter for e in r1] == [e.mean_diameter for e in r2]
        # every search is keyed by the run seed; the polytope's own seed is unread
        m3 = init_mlp(2, [2, 8, 2])
        r3 = train(m3, ds, dataclasses.replace(cfg, polytope=tiny_polytope(seed=5)))
        assert params_equal(m1, m3)
        assert [e.mean_diameter for e in r1] == [e.mean_diameter for e in r3]

    def test_cap_regularizer_term_nonnegative_over_training(self):
        ds = gen_blobs(15, 30, [[-1, 0], [1, 0]], 0.35)
        model = init_mlp(3, [2, 8, 2])
        cfg = clean_cfg(epochs=3, baseline_kind="cap", lam=0.5)
        records = train(model, ds, cfg)
        assert all(r.reg_term >= 0 for r in records)
        assert any(r.reg_term > 0 for r in records)

    def test_vanilla_at_runs_and_reports(self):
        ds = gen_blobs(16, 30, [[-1, 0], [1, 0]], 0.35)
        model = init_mlp(4, [2, 8, 2])
        atk = AttackConfig("pgd", epsilon=0.1, step_size=0.05, steps=5, random_start=True)
        cfg = clean_cfg(epochs=2, baseline_kind="vanilla_at", attack=atk)
        records = train(model, ds, cfg)
        assert len(records) == 2
        assert all(r.reg_term == 0.0 for r in records)

    def test_lr_drops_apply_at_epoch_start(self):
        ds = gen_blobs(17, 20, [[-1, 0], [1, 0]], 0.35)
        model = init_mlp(5, [2, 4, 2])
        cfg = clean_cfg(epochs=4, lr=0.1, lr_drops=((2, 10.0), (4, 10.0)))
        records = train(model, ds, cfg)
        assert [r.lr for r in records] == [0.1, 0.01, 0.01, 0.001]

    def test_vanilla_at_requires_attack_config(self):
        with pytest.raises(ValueError, match="attack"):
            clean_cfg(baseline_kind="vanilla_at")

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            clean_cfg(lam=-0.1)

    @pytest.mark.parametrize(
        "kw, match",
        [
            # the INI parser rejects both; a drop at epoch 0 would never apply
            (dict(lr_drops=((0, 10.0),)), "lr_drops epochs"),
            (dict(seed=-1), "seed"),
            # and every non-finite number
            (dict(lr=np.nan), "lr"),
            (dict(lr=np.inf), "lr"),
            (dict(lam=np.nan), "lambda"),
            (dict(lam=np.inf), "lambda"),
            (dict(momentum=np.nan), "momentum"),
            (dict(weight_decay=np.inf), "weight_decay"),
            (dict(lr_drops=((2, np.nan),)), "divisors"),
            (dict(lr_drops=((2, np.inf),)), "divisors"),
            # and every non-integer count or seed
            (dict(epochs=2.5), "epochs"),
            (dict(batch_size=3.5), "batch_size"),
            (dict(probe_size=1.5), "probe_size"),
            (dict(seed=0.5), "seed"),
            # a drop at epoch 2.5 would never apply
            (dict(lr_drops=((2.5, 10.0),)), "lr_drops epochs"),
        ],
    )
    def test_values_the_config_file_rejects(self, kw, match):
        with pytest.raises(ValueError, match=match):
            clean_cfg(**kw)

    def test_probe_diameter_recorded_for_all_kinds(self):
        ds = gen_blobs(18, 20, [[-1, 0], [1, 0]], 0.35)
        for kind in ("clean", "cap"):
            model = init_mlp(6, [2, 4, 2])
            cfg = clean_cfg(epochs=1, baseline_kind=kind, lam=0.2, probe_size=5)
            records = train(model, ds, cfg)
            assert records[0].mean_diameter is not None
            assert records[0].mean_diameter >= 0

    def test_probe_of_one_block_is_one_search(self):
        # at probe_size 16 the probe is one corner_search_batch call on the
        # probe rows, keyed by the run seed and drawn as (row, epoch, STREAM_PROBE)
        ds = gen_blobs(18, 20, [[-1, 0], [1, 0]], 0.35)
        model = init_mlp(6, [2, 4, 2])
        cfg = clean_cfg(epochs=2, baseline_kind="cap", lam=0.2, probe_size=16, seed=3)
        records = train(model, ds, cfg)
        search = dataclasses.replace(cfg.polytope, seed=3)
        _, L, _, _, _ = corner_search_batch(
            model, ds.features[:16], np.arange(16), search, 2, STREAM_PROBE
        )
        want = float(np.mean([max_pairwise_distance(L[i]) for i in range(16)]))
        assert records[-1].mean_diameter == want

