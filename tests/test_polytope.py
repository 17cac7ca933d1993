"""Corner-search tests: projection exactness, center reduction, ascent
dynamics against analytic and enumeration oracles, feasibility, determinism."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from caplab import (
    CornerConfig,
    Layer,
    MlpModel,
    NumericsError,
    ParticleSet,
    PerturbationBudget,
    ascend_step,
    diameter,
    empirical_center,
    find_corners,
    find_corners_many,
    forward,
    init_mlp,
    init_particles,
    mean_diameter,
    project,
)
from caplab.polytope import max_pairwise_distance


def linear_model(W, b=None):
    W = np.asarray(W, dtype=np.float64)
    b = np.zeros(W.shape[0]) if b is None else np.asarray(b, dtype=np.float64)
    return MlpModel([Layer(W, b, "identity")])


class TestBudget:
    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError):
            PerturbationBudget(-0.1)

    def test_rejects_unknown_norm(self):
        with pytest.raises(ValueError, match="norm_kind"):
            PerturbationBudget(0.1, norm_kind="l2")

    def test_rejects_bad_clip(self):
        with pytest.raises(ValueError):
            PerturbationBudget(0.1, input_clip=(1.0, 0.0))


class TestInitParticles:
    def test_zero_epsilon_gives_zero_particles(self):
        ps = init_particles(5, 4, 3, PerturbationBudget(0.0))
        assert not ps.particles.any()

    def test_same_seed_bit_identical(self):
        budget = PerturbationBudget(0.3)
        a = init_particles(99, 6, 5, budget)
        b = init_particles(99, 6, 5, budget)
        assert np.array_equal(a.particles, b.particles)
        assert a.rng_seed == 99

    def test_different_seed_differs(self):
        budget = PerturbationBudget(0.3)
        a = init_particles(1, 6, 5, budget)
        b = init_particles(2, 6, 5, budget)
        assert not np.array_equal(a.particles, b.particles)

    def test_uniform_law_statistics(self):
        # mean of n uniform(-eps, eps) draws has std (eps/sqrt(3))/sqrt(n)
        eps = 8 / 255
        n = 100_000
        ps = init_particles(7, n, 1, PerturbationBudget(eps))
        draws = ps.particles.reshape(-1)
        assert abs(draws.mean()) < 3 * (eps / np.sqrt(3)) / np.sqrt(n)
        assert np.abs(draws).max() <= eps

    def test_rejects_degenerate_counts(self):
        with pytest.raises(ValueError):
            init_particles(0, 0, 3, PerturbationBudget(0.1))
        with pytest.raises(ValueError):
            init_particles(0, 3, 0, PerturbationBudget(0.1))


class TestProject:
    def test_one_sided_clamp(self):
        got = project(np.array([0.5, -0.2]), PerturbationBudget(0.3))
        assert np.array_equal(got, np.array([0.3, -0.2]))

    def test_feasible_point_unchanged(self):
        p = np.array([0.1, -0.25, 0.0])
        assert np.array_equal(project(p, PerturbationBudget(0.3)), p)

    def test_idempotent_bit_exact(self):
        rng = np.random.default_rng(21)
        budget = PerturbationBudget(0.2, input_clip=(0.0, 1.0))
        for _ in range(50):
            x = rng.uniform(0, 1, 6)
            p = rng.standard_normal(6)
            once = project(p, budget, x)
            twice = project(once, budget, x)
            assert np.array_equal(once, twice)

    def test_matches_grid_search_oracle(self):
        # brute-force min ||p - q||_2 over a fine grid of the feasible box;
        # the exact projection must sit within half a grid cell of the argmin
        rng = np.random.default_rng(22)
        eps = 0.25
        pts = np.linspace(-eps, eps, 21)
        step = pts[1] - pts[0]
        grid = np.array(list(itertools.product(pts, repeat=4)))
        for _ in range(5):
            p = rng.standard_normal(4)
            best = grid[np.argmin(((grid - p) ** 2).sum(axis=1))]
            got = project(p, PerturbationBudget(eps))
            assert np.linalg.norm(got - best) <= step / 2 * np.sqrt(4) + 1e-12

    def test_input_clip_keeps_x_plus_p_in_domain(self):
        budget = PerturbationBudget(0.5, input_clip=(0.0, 1.0))
        x = np.array([0.05, 0.95])
        p = project(np.array([-0.4, 0.4]), budget, x)
        assert np.all(x + p >= 0.0) and np.all(x + p <= 1.0)
        assert np.all(np.abs(p) <= 0.5)

    def test_clip_without_x_rejected(self):
        with pytest.raises(ValueError, match="clean sample"):
            project(np.zeros(2), PerturbationBudget(0.1, input_clip=(0.0, 1.0)))

    def test_x_outside_domain_rejected(self):
        budget = PerturbationBudget(0.1, input_clip=(0.0, 1.0))
        with pytest.raises(ValueError, match="outside"):
            project(np.zeros(2), budget, np.array([2.0, 0.5]))


class TestEmpiricalCenter:
    def test_single_particle_center_is_its_output(self):
        model = init_mlp(1, [3, 5, 2])
        x = np.array([0.2, -0.4, 0.9])
        ps = init_particles(3, 1, 3, PerturbationBudget(0.2))
        logits, _ = forward(model, x + ps.particles[0])
        assert np.array_equal(empirical_center(model, x, ps), logits)

    def test_zero_particles_center_is_f_x(self):
        model = init_mlp(2, [2, 4, 3])
        x = np.array([0.5, -0.1])
        ps = ParticleSet(np.zeros((4, 2)), PerturbationBudget(0.3), rng_seed=0)
        logits, _ = forward(model, x)
        assert np.allclose(empirical_center(model, x, ps), logits, rtol=0, atol=1e-15)

    def test_linear_model_analytic_center(self):
        # for f(x) = Wx: center = W (x + mean of particles)
        rng = np.random.default_rng(23)
        W = rng.standard_normal((3, 4))
        model = linear_model(W)
        x = rng.standard_normal(4)
        ps = init_particles(11, 7, 4, PerturbationBudget(0.4))
        want = W @ (x + ps.particles.mean(axis=0))
        assert np.allclose(empirical_center(model, x, ps), want, rtol=0, atol=1e-12)


class TestAscendStep:
    def test_zero_residual_leaves_particle(self):
        model = init_mlp(4, [2, 6, 2])
        x = np.array([0.3, 0.1])
        p = np.array([0.05, -0.02])
        logits, _ = forward(model, x + p)
        got = ascend_step(model, x, p, logits, eta=0.1, budget=PerturbationBudget(0.1))
        assert np.array_equal(got, p)

    def test_1d_linear_positive_particles_hit_upper_wall(self):
        # f(x) = w x with w > 0 and center at w x: gradient 2 w^2 e has the
        # sign of e, so positive particles saturate at +eps
        model = linear_model([[1.5]])
        x = np.array([0.2])
        center = np.array([0.3])
        budget = PerturbationBudget(0.1)
        p = np.array([0.03])
        for _ in range(50):
            p = ascend_step(model, x, p, center, eta=0.05, budget=budget)
        assert p[0] == 0.1

    def test_step_matches_finite_difference_gradient(self):
        # mid-box particle and tiny eta keep the projection inactive, so
        # (p' - p)/eta recovers the gradient of ||f(x+p) - C||^2
        rng = np.random.default_rng(24)
        model = init_mlp(6, [3, 8, 4, 2])
        x = rng.standard_normal(3) * 0.5
        p = rng.uniform(-0.01, 0.01, 3)
        center = rng.standard_normal(2)
        eta = 1e-7
        budget = PerturbationBudget(1.0)

        def objective(q):
            logits, _ = forward(model, x + q)
            return float(((logits - center) ** 2).sum())

        stepped = ascend_step(model, x, p, center, eta=eta, budget=budget)
        analytic = (stepped - p) / eta
        h = 1e-5
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            numeric = (objective(p + e) - objective(p - e)) / (2 * h)
            assert abs(analytic[i] - numeric) / max(abs(numeric), 1.0) < 1e-5

    def test_result_always_feasible(self):
        rng = np.random.default_rng(25)
        model = init_mlp(8, [3, 5, 2])
        budget = PerturbationBudget(0.15)
        x = rng.standard_normal(3)
        P = init_particles(1, 6, 3, budget).particles
        center = rng.standard_normal(2)
        for _ in range(20):
            P = ascend_step(model, x, P, center, eta=0.5, budget=budget)
            assert P.shape == (6, 3)
            assert np.abs(P).max() <= 0.15

    def test_non_finite_gradient_names_the_row(self):
        # row 0 sits at x + e = 0 with zero residual; row 1's gradient
        # 2 W^T (W (x + e)) overflows to inf
        model = linear_model([[1e200]])
        P = np.array([[0.0], [0.1], [0.0]])
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="particle 1"):
            ascend_step(model, np.zeros(1), P, np.zeros(1), eta=0.1, budget=PerturbationBudget(0.1))


class TestFindCorners:
    def test_eta_zero_null_dynamics(self):
        model = init_mlp(9, [2, 4, 2])
        x = np.array([0.1, 0.2])
        budget = PerturbationBudget(0.2)
        cfg = CornerConfig(4, 6, 0.0, budget, seed=2)
        pset, est = find_corners(model, x, cfg)
        init = init_particles(2, 4, 2, budget)
        assert np.array_equal(pset.particles, init.particles)
        assert np.array_equal(est.center, empirical_center(model, x, init))

    def test_linear_2d_vertex_oracle(self):
        # a convex function on a box is maximized at a vertex, so every
        # settled corner must coincide with one of the 2^d vertex images
        W = np.array([[2.0, 1.0], [-1.0, 1.5]])
        b = np.array([0.3, -0.2])
        model = linear_model(W, b)
        x = np.array([0.4, -0.7])
        cfg = CornerConfig(8, 40, 0.02, PerturbationBudget(0.1), seed=123)
        pset, est = find_corners(model, x, cfg)
        assert np.abs(np.abs(pset.particles) - 0.1).max() < 1e-3
        verts = np.array(list(itertools.product([-0.1, 0.1], repeat=2)))
        vimg = (x + verts) @ W.T + b
        nearest = np.sqrt(((est.corners[:, None, :] - vimg[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
        assert nearest.max() < 1e-6

    def test_zero_budget_degenerate(self):
        model = init_mlp(10, [2, 5, 3])
        x = np.array([0.4, -0.2])
        cfg = CornerConfig(5, 3, 0.1, PerturbationBudget(0.0), seed=1)
        _, est = find_corners(model, x, cfg)
        fx, _ = forward(model, x)
        assert np.array_equal(est.corners, np.tile(fx, (5, 1)))
        assert est.diameter == 0.0

    def test_same_seed_bit_identical(self):
        model = init_mlp(11, [3, 6, 2])
        x = np.array([0.1, -0.3, 0.8])
        cfg = CornerConfig(6, 10, 0.05, PerturbationBudget(0.2), seed=77)
        p1, e1 = find_corners(model, x, cfg)
        p2, e2 = find_corners(model, x, cfg)
        assert np.array_equal(p1.particles, p2.particles)
        assert np.array_equal(e1.corners, e2.corners)
        assert np.array_equal(e1.center, e2.center)
        assert e1.diameter == e2.diameter

    def test_feasibility_exact_over_random_runs(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            dims = [int(rng.integers(2, 6)) for _ in range(rng.integers(2, 4))]
            model = init_mlp(int(rng.integers(0, 2**31)), dims)
            x = rng.standard_normal(dims[0])
            eps = float(rng.uniform(0.01, 0.5))
            cfg = CornerConfig(
                int(rng.integers(1, 5)),
                int(rng.integers(1, 6)),
                float(rng.uniform(0.001, 1.0)),
                PerturbationBudget(eps),
                seed=int(rng.integers(0, 2**31)),
            )
            pset, _ = find_corners(model, x, cfg)
            assert np.abs(pset.particles).max() <= eps

    def test_feasibility_with_input_clip(self):
        rng = np.random.default_rng(27)
        budget = PerturbationBudget(0.3, input_clip=(0.0, 1.0))
        model = init_mlp(12, [4, 6, 3])
        for _ in range(20):
            x = rng.uniform(0, 1, 4)
            cfg = CornerConfig(3, 4, 0.8, budget, seed=int(rng.integers(0, 2**31)))
            pset, _ = find_corners(model, x, cfg)
            assert np.abs(pset.particles).max() <= 0.3
            assert np.all(x + pset.particles >= 0.0)
            assert np.all(x + pset.particles <= 1.0)

    def test_frozen_center_ascent_monotone(self):
        # projected ascent on a convex objective never decreases it: the
        # clamped step p' - p is a nonnegative diagonal scaling of the
        # gradient, and phi(p') >= phi(p) + <grad, p' - p>
        rng = np.random.default_rng(28)
        W = rng.standard_normal((3, 4))
        model = linear_model(W)
        x = rng.standard_normal(4)
        budget = PerturbationBudget(0.2)
        ps = init_particles(5, 6, 4, budget)
        center = empirical_center(model, x, ps)
        for eta in (0.01, 0.1, 1.0):
            for n in range(ps.n_particles):
                p = ps.particles[n]
                before, _ = forward(model, x + p)
                stepped = ascend_step(model, x, p, center, eta=eta, budget=budget)
                after, _ = forward(model, x + stepped)
                d0 = ((before - center) ** 2).sum()
                d1 = ((after - center) ** 2).sum()
                assert d1 >= d0 - 1e-12

    def test_objective_history_length_and_finiteness(self):
        model = init_mlp(13, [2, 4, 2])
        cfg = CornerConfig(4, 7, 0.05, PerturbationBudget(0.1), seed=3)
        _, est = find_corners(model, np.array([0.2, 0.4]), cfg)
        assert est.objective_history.shape == (7,)
        assert np.isfinite(est.objective_history).all()

    def test_is_exactly_the_op_composition(self):
        # find_corners must equal the literal loop of one batched
        # ascend_step over all particles followed by empirical_center,
        # bit-for-bit
        model = init_mlp(33, [3, 9, 3])
        x = np.array([0.2, -0.5, 0.1])
        budget = PerturbationBudget(0.2)
        cfg = CornerConfig(5, 6, 0.05, budget, seed=17)
        pset, est = find_corners(model, x, cfg)

        P = init_particles(17, 5, 3, budget).particles
        center = empirical_center(model, x, ParticleSet(P, budget, 17))
        for _ in range(6):
            P = ascend_step(model, x, P, center, 0.05, budget)
            center = empirical_center(model, x, ParticleSet(P, budget, 17))
        assert np.array_equal(pset.particles, P)
        assert np.array_equal(est.center, center)

    def test_trainer_batch_engine_stays_close(self):
        # a multi-sample batch fuses all ascent steps into one backward;
        # BLAS may reassociate differently than on a batch of one, so values
        # may differ from find_corners only by float reassociation
        from caplab.polytope import corner_search_batch

        model = init_mlp(34, [3, 10, 3])
        rng = np.random.default_rng(35)
        X = rng.standard_normal((6, 3))
        cfg = CornerConfig(4, 5, 0.05, PerturbationBudget(0.15), seed=0)
        seeds = [100 + i for i in range(6)]
        P, L, centers, _, _ = corner_search_batch(model, X, seeds, cfg)
        for i in range(6):
            pset, est = find_corners(
                model, X[i], CornerConfig(4, 5, 0.05, PerturbationBudget(0.15), seed=seeds[i])
            )
            assert np.allclose(P[i], pset.particles, rtol=0, atol=1e-12)
            assert np.allclose(centers[i], est.center, rtol=0, atol=1e-12)


class TestDiameter:
    def test_single_corner_is_zero(self):
        assert max_pairwise_distance(np.array([[1.0, 2.0]])) == 0.0

    def test_two_corners_distance(self):
        corners = np.array([[0.0, 0.0], [3.0, 0.0]])
        assert max_pairwise_distance(corners) == 3.0

    def test_matches_all_pairs_scan(self):
        rng = np.random.default_rng(29)
        corners = rng.standard_normal((8, 3))
        best = 0.0
        for i in range(8):
            for j in range(8):
                best = max(best, float(np.linalg.norm(corners[i] - corners[j])))
        assert max_pairwise_distance(corners) == pytest.approx(best, abs=0)

    def test_diameter_of_estimate(self):
        model = init_mlp(14, [2, 4, 2])
        cfg = CornerConfig(5, 5, 0.05, PerturbationBudget(0.1), seed=4)
        _, est = find_corners(model, np.array([0.3, -0.3]), cfg)
        assert diameter(est) == est.diameter


class TestManySamples:
    def test_thread_count_does_not_change_bits(self):
        model = init_mlp(15, [3, 8, 3])
        rng = np.random.default_rng(30)
        X = rng.standard_normal((12, 3))
        cfg = CornerConfig(4, 6, 0.05, PerturbationBudget(0.15), seed=55)
        serial = find_corners_many(model, X, cfg, threads=1)
        threaded = find_corners_many(model, X, cfg, threads=4)
        for (p1, e1), (p2, e2) in zip(serial, threaded):
            assert np.array_equal(p1.particles, p2.particles)
            assert np.array_equal(e1.corners, e2.corners)
            assert e1.diameter == e2.diameter

    def test_rows_do_not_depend_on_batch_composition(self):
        # row i of find_corners_many is find_corners(X[i]) with seeds[i],
        # bit-for-bit, whichever other rows share the call
        model = init_mlp(17, [3, 8, 3])
        rng = np.random.default_rng(32)
        X = rng.standard_normal((7, 3))
        seeds = [int(s) for s in rng.integers(0, 2**31, 7)]
        cfg = CornerConfig(4, 6, 0.05, PerturbationBudget(0.15), seed=0)
        for rows in (range(7), rng.permutation(7), [5, 2], [3]):
            rows = [int(i) for i in rows]
            got = find_corners_many(model, X[rows], cfg, seeds=[seeds[i] for i in rows])
            for i, (pset, est) in zip(rows, got):
                want_p, want = find_corners(model, X[i], replace(cfg, seed=seeds[i]))
                assert np.array_equal(pset.particles, want_p.particles)
                assert np.array_equal(est.corners, want.corners)
                assert np.array_equal(est.center, want.center)
                assert np.array_equal(est.objective_history, want.objective_history)

    def test_mean_diameter_matches_individual_runs(self):
        model = init_mlp(16, [2, 6, 2])
        rng = np.random.default_rng(31)
        X = rng.standard_normal((5, 2))
        cfg = CornerConfig(3, 4, 0.05, PerturbationBudget(0.1), seed=9)
        results = find_corners_many(model, X, cfg)
        want = np.mean([est.diameter for _, est in results])
        assert mean_diameter(model, X, cfg) == pytest.approx(want, abs=0)
