"""Corner-search tests: projection exactness, center reduction, ascent
dynamics against analytic and enumeration oracles, feasibility, determinism."""

import itertools
import math
import tracemalloc
import weakref

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
    find_corners,
    forward,
    init_mlp,
    init_particles,
    mean_diameter,
    project,
)
from caplab.polytope import (
    _BLOCK,
    _block_diameters,
    _mean_ascending,
    _uniform_particles,
    corner_search_batch,
    max_pairwise_distance,
)
from oracles import corner_search_reference, empirical_center, mean_ascending


def linear_model(W, b=None):
    W = np.asarray(W, dtype=np.float64)
    b = np.zeros(W.shape[0]) if b is None else np.asarray(b, dtype=np.float64)
    return MlpModel([Layer(W, b, "identity")])


class TestBudget:
    def test_rejects_negative_epsilon(self):
        # NaN and the infinities fail as the config file's epsilon key does
        for eps in (-0.1, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="epsilon"):
                PerturbationBudget(eps)

    def test_rejects_bad_clip(self):
        with pytest.raises(ValueError):
            PerturbationBudget(0.1, input_clip=(1.0, 0.0))

    @pytest.mark.parametrize(
        "kw, match",
        [
            (dict(n_particles=0), "n_particles"),
            (dict(steps=0), "steps"),
            (dict(eta=-0.1), "eta"),
            (dict(eta=np.nan), "eta"),
            (dict(eta=np.inf), "eta"),
            (dict(seed=-1), "seed"),
            # non-integer counts and seeds, which numpy would reject only at the draw
            (dict(n_particles=2.5), "n_particles"),
            (dict(steps=2.5), "steps"),
            (dict(seed=1.5), "seed"),
        ],
    )
    def test_corner_config_rejects_what_the_config_file_rejects(self, kw, match):
        base = dict(n_particles=3, steps=2, eta=0.05, budget=PerturbationBudget(0.1))
        with pytest.raises(ValueError, match=match):
            CornerConfig(**{**base, **kw})


class TestInitParticles:
    def test_zero_epsilon_gives_zero_particles(self):
        ps = init_particles(5, 4, 3, PerturbationBudget(0.0))
        assert not ps.particles.any()

    def test_same_seed_bit_identical(self):
        budget = PerturbationBudget(0.3)
        a = init_particles(99, 6, 5, budget)
        b = init_particles(99, 6, 5, budget)
        assert np.array_equal(a.particles, b.particles)

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

    @pytest.mark.parametrize("eps", [5e-324, 1e-300, 0.1, 1e300, 8e307])
    def test_draw_stays_in_closed_box_without_a_clip(self, eps):
        # uniform returns -eps + 2 eps u with u < 1, and rounding is monotone
        draws = _uniform_particles(3, np.arange(4), 0, 0, 50_000, 1, eps)
        assert np.abs(draws).max() <= eps

    def test_epsilon_whose_range_overflows_raises_numerics_error(self):
        with pytest.raises(NumericsError, match=r"^epsilon 1e\+308: "):
            init_particles(0, 2, 2, PerturbationBudget(1e308))

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
        ps = ParticleSet(np.zeros((4, 2)), PerturbationBudget(0.3))
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


class TestMeanAscending:
    @pytest.mark.parametrize(
        "shape, axis",
        [
            ((4, 1, 3), 1),
            ((10, 3), 0),
            ((3, 20), 1),
            ((1, 10, 3), 1),
            ((16, 10, 3), 1),
            ((44, 10, 3), 1),
            ((128, 10, 3), 1),
        ],
    )
    def test_equals_the_loop_bitwise(self, shape, axis):
        # magnitudes spread over 12 decades, so a different summation order
        # would show in the low bits; along a contiguous axis of 20,
        # np.add.reduce sums pairwise and differs from the loop here
        rng = np.random.default_rng(24)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, size=shape)
        got = _mean_ascending(values, axis=axis)
        want = mean_ascending(values, axis=axis)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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
        center = empirical_center(model, x, ParticleSet(P, budget))
        for _ in range(6):
            P = ascend_step(model, x, P, center, 0.05, budget)
            center = empirical_center(model, x, ParticleSet(P, budget))
        assert np.array_equal(pset.particles, P)
        assert np.array_equal(est.center, center)

    def test_trainer_batch_engine_stays_close(self):
        # a multi-sample batch fuses all ascent steps into one backward;
        # BLAS may reassociate differently than on a batch of one, so values
        # may differ from find_corners only by float reassociation
        model = init_mlp(34, [3, 10, 3])
        rng = np.random.default_rng(35)
        X = rng.standard_normal((6, 3))
        cfg = CornerConfig(4, 5, 0.05, PerturbationBudget(0.15), seed=0)
        P, L, centers, _, _ = corner_search_batch(model, X, np.arange(6), cfg)
        for i in range(6):
            P1, _, c1, _, _ = corner_search_batch(model, X[i : i + 1], [i], cfg)
            assert np.allclose(P[i], P1[0], rtol=0, atol=1e-12)
            assert np.allclose(centers[i], c1[0], rtol=0, atol=1e-12)
        # id 0 at (0, 0) is find_corners' stream
        pset, est = find_corners(model, X[0], cfg)
        assert np.allclose(P[0], pset.particles, rtol=0, atol=1e-12)
        assert np.allclose(centers[0], est.center, rtol=0, atol=1e-12)


class TestCornerSearchReference:
    @pytest.mark.parametrize("clip", [None, (-1.0, 1.0)], ids=["eps-box", "input-clip"])
    @pytest.mark.parametrize("B", [1, 16, 44, 128, 0])
    def test_equals_the_step_by_step_loop_bitwise(self, B, clip):
        model = init_mlp(36, [2, 32, 32, 3])
        rng = np.random.default_rng(37)
        # rows spread up to the domain edges, the first within eps of two of
        # them, so the clip cuts into the eps-box at every B
        X = rng.uniform(-1.0, 1.0, size=(B, 2))
        X[:1] = [0.85, -0.9]
        cfg = CornerConfig(10, 10, 0.05, PerturbationBudget(0.3, input_clip=clip), seed=5)
        P, L, centers, history, _ = corner_search_batch(model, X, np.arange(B), cfg)
        want = corner_search_reference(model, X, np.arange(B), cfg)
        for got, ref in zip((P, L, centers, history), want):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()
        assert P.shape == (B, 10, 2) and history.shape == (B, 10)
        if clip is not None and B:
            assert np.any(np.abs(X[:, None, :] + P) == 1.0)

    def test_sample_outside_input_clip_raises_before_any_forward(self, monkeypatch):
        def no_forward(*args, **kwargs):
            raise AssertionError("forward pass ran")

        monkeypatch.setattr("caplab.polytope.forward", no_forward)
        model = init_mlp(38, [2, 4, 3])
        cfg = CornerConfig(3, 2, 0.05, PerturbationBudget(0.1, input_clip=(0.0, 1.0)))
        x = np.array([2.0, 0.5])
        with pytest.raises(ValueError, match="outside the input_clip domain"):
            find_corners(model, x, cfg)
        with pytest.raises(ValueError, match="outside the input_clip domain"):
            X = np.array([[0.5, 0.5], x])
            corner_search_batch(model, X, [1, 2], cfg)


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
        # independent of the library's numpy expressions: math.dist per pair
        corners = est.corners.tolist()
        pairs = [math.dist(a, b) for a, b in itertools.combinations(corners, 2)]
        to_center = [math.dist(a, est.center.tolist()) for a in corners]
        assert max(pairs) > 0
        assert est.diameter == pytest.approx(max(pairs), rel=1e-12, abs=0)
        assert est.distances.shape == (5,)
        assert est.distances.tolist() == pytest.approx(to_center, rel=1e-12, abs=0)


def alone_in_block(model, x, sample_id, cfg):
    """The diameter path's definition of one sample's search: the sample
    alone, in a block padded with copies of itself."""
    return corner_search_batch(model, np.tile(x, (_BLOCK, 1)), [sample_id] * _BLOCK, cfg)


class TestBlockIndependence:
    @pytest.mark.parametrize(
        "dims, n, t",
        [([2, 32, 32, 3], 10, 10), ([3, 8, 3], 4, 6), ([2, 6, 2], 3, 4), ([3, 12, 3], 4, 5)],
        ids=["preset", "many-samples-a", "many-samples-b", "criterion-3"],
    )
    def test_sample_does_not_depend_on_block_mates_or_slot(self, dims, n, t):
        # bitwise, on the installed BLAS: a failure here means the diameter
        # path's rows depend on which rows share their block
        model = init_mlp(41, dims)
        rng = np.random.default_rng(42)
        d = dims[0]
        cfg = CornerConfig(n, t, 0.02, PerturbationBudget(0.1), seed=7)
        for _ in range(20):
            x = rng.normal(0.0, 0.2, d)
            sample_id = int(rng.integers(0, 300))
            want = alone_in_block(model, x, sample_id, cfg)[:4]
            for slot in (0, _BLOCK // 2, _BLOCK - 1):
                X = rng.normal(0.0, 0.2, (_BLOCK, d))
                ids = rng.integers(0, 300, _BLOCK)
                X[slot], ids[slot] = x, sample_id
                got = corner_search_batch(model, X, ids, cfg)[:4]
                # particles, logits, center, objective history
                for g, w in zip(got, want):
                    assert g[slot].tobytes() == w[0].tobytes()


class TestSearchMemory:
    def test_search_keeps_one_trace_alive(self):
        # the next step's forward runs after the last step's trace is
        # dropped: the traced peak stays near one trace plus its logits and
        # the backward pass's two (B*N, width) products
        model = init_mlp(0, [2, 32, 32, 3])
        X = np.random.default_rng(3).normal(0.0, 0.2, (128, 2))
        ids = np.arange(128)
        cfg = CornerConfig(10, 10, 0.02, PerturbationBudget(0.1), seed=1)
        corner_search_batch(model, X, ids, cfg)  # fill the seed cache
        tracemalloc.start()
        try:
            _, L, _, _, trace = corner_search_batch(model, X, ids, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one = sum(a.nbytes for a in trace) + L.nbytes
        assert peak < 2.5 * one, f"peak {peak / one:.2f} x one trace plus logits"

    def test_no_earlier_trace_is_alive_at_a_forward(self, monkeypatch):
        refs, alive = [], []

        def spy(model, x):
            alive.append(sum(r() is not None for r in refs))
            logits, trace = forward(model, x)
            refs.extend(weakref.ref(a) for a in trace)
            return logits, trace

        monkeypatch.setattr("caplab.polytope.forward", spy)
        model = init_mlp(0, [2, 8, 8, 3])
        cfg = CornerConfig(4, 5, 0.02, PerturbationBudget(0.1), seed=1)
        corner_search_batch(model, np.zeros((3, 2)), [0, 1, 2], cfg)
        assert alive == [0] * 6


class TestManySamples:
    @staticmethod
    def row_diameter(model, x, sample_id, cfg):
        _, L, _, _, _ = alone_in_block(model, x, sample_id, cfg)
        return max_pairwise_distance(L[0])

    def test_rows_do_not_depend_on_batch_composition(self):
        # row j of mean_diameter is a search on that row alone, in a block
        # padded with copies of itself, drawn as id j at (0, 0), whichever
        # other rows share the call
        model = init_mlp(17, [3, 8, 3])
        rng = np.random.default_rng(32)
        X = rng.standard_normal((7, 3))
        cfg = CornerConfig(4, 6, 0.05, PerturbationBudget(0.15), seed=9)
        # the last row set spans three blocks, the last one padded
        for rows in (range(7), rng.permutation(7), [5, 2], [3], rng.integers(0, 7, 37)):
            rows = [int(i) for i in rows]
            want = [self.row_diameter(model, X[i], j, cfg) for j, i in enumerate(rows)]
            got = _block_diameters(model, X[rows], cfg)
            assert got.tolist() == want
            assert mean_diameter(model, X[rows], cfg) == pytest.approx(np.mean(want), abs=0)

    def test_mean_diameter_matches_individual_runs(self):
        model = init_mlp(16, [2, 6, 2])
        rng = np.random.default_rng(31)
        X = rng.standard_normal((5, 2))
        cfg = CornerConfig(3, 4, 0.05, PerturbationBudget(0.1), seed=9)
        diameters = [self.row_diameter(model, x, i, cfg) for i, x in enumerate(X)]
        assert _block_diameters(model, X, cfg).tolist() == diameters
        assert mean_diameter(model, X, cfg) == pytest.approx(np.mean(diameters), abs=0)
        # find_corners is a batch of one drawn as id 0 at (0, 0)
        _, L, _, _, _ = corner_search_batch(model, X[:1], [0], cfg)
        assert max_pairwise_distance(L[0]) == find_corners(model, X[0], cfg)[1].diameter

    def test_every_search_holds_exactly_16_samples(self, monkeypatch):
        sizes = []

        def spy(model, X, ids, cfg, *stream):
            sizes.append(X.shape[0])
            return corner_search_batch(model, X, ids, cfg, *stream)

        monkeypatch.setattr("caplab.polytope.corner_search_batch", spy)
        model = init_mlp(16, [2, 6, 2])
        cfg = CornerConfig(3, 4, 0.05, PerturbationBudget(0.1), seed=9)
        for n in (1, 7, 16, 17, 37):
            sizes.clear()
            mean_diameter(model, np.random.default_rng(n).standard_normal((n, 2)), cfg)
            assert sizes == [16] * -(-n // 16)

    @pytest.mark.parametrize("n_particles", [1, 2, 10])
    @pytest.mark.parametrize("c", [3, 5, 9])
    def test_block_diameters_are_max_pairwise_distance(self, n_particles, c):
        # bitwise; at c = 9 numpy sums each squared difference pairwise
        model = init_mlp(c, [2, 8, c])
        X = np.random.default_rng(c).standard_normal((20, 2))
        cfg = CornerConfig(n_particles, 3, 0.05, PerturbationBudget(0.1), seed=2)
        want = []
        for start in (0, _BLOCK):
            rows = np.minimum(np.arange(start, start + _BLOCK), 19)
            _, L, _, _, _ = corner_search_batch(model, X[rows], rows, cfg)
            want += [max_pairwise_distance(L[b]) for b in range(min(_BLOCK, 20 - start))]
            # a (B, N, c) stack gives each sample's diameter, bit for bit
            stacked = max_pairwise_distance(L)
            assert stacked.shape == (_BLOCK,)
            assert stacked.tobytes() == np.array([max_pairwise_distance(m) for m in L]).tobytes()
        got = _block_diameters(model, X, cfg)
        assert got.tobytes() == np.array(want).tobytes()
        if n_particles == 1:
            assert got.tobytes() == np.zeros(20).tobytes()

    def test_mean_diameter_of_no_rows_is_value_error(self):
        model = init_mlp(16, [2, 6, 2])
        cfg = CornerConfig(3, 4, 0.05, PerturbationBudget(0.1), seed=9)
        with pytest.raises(ValueError, match="at least one sample"):
            mean_diameter(model, np.empty((0, 2)), cfg)
