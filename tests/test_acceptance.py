"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
directional experiments (criteria 5 and 6) share one session-scoped run of
the three-blob benchmark: three trainers, three seeds each.
"""

import dataclasses
import itertools
import time

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
    find_corners,
    forward,
    gen_blobs,
    grad_input,
    grad_params,
    init_mlp,
    mean_diameter,
    robust_accuracy,
    train,
)
from caplab.cli import main as cli_main
from caplab.nn import softmax
from caplab.polytope import _BLOCK, _block_diameters, corner_search_batch, max_pairwise_distance
from caplab.seeding import derive_seed
from oracles import cross_entropy, one_hot, preactivations

# The canonical three-blob benchmark (mirrors presets/blobs_*.ini): an
# equilateral triangle of tight clusters whose decision margins sit just
# above the attack budget, so boundary placement decides PGD robustness.
CENTERS = [[-0.14, 0.0], [0.14, 0.0], [0.0, 0.2425]]
SIGMA = 0.03
EPSILON = 0.1
DIMS = [2, 32, 32, 3]
EPOCHS = 150
LR_DROPS = ((100, 10.0), (125, 10.0))
SEEDS = (0, 1, 2)
EVAL_SEEDS = (0, 1, 2)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'} - {detail}")


def benchmark_data(seed):
    train_ds = gen_blobs(derive_seed(seed, 1), 100, CENTERS, SIGMA)
    test_ds = gen_blobs(derive_seed(seed, 2), 100, CENTERS, SIGMA)
    return train_ds, test_ds


def benchmark_config(kind, seed, lam=0.6):
    corner = CornerConfig(10, 10, 0.02, PerturbationBudget(EPSILON), seed=seed)
    attack = (
        AttackConfig("pgd", EPSILON, 0.025, 10, random_start=True)
        if kind == "vanilla_at"
        else None
    )
    return TrainConfig(
        baseline_kind=kind,
        epochs=EPOCHS,
        lr=0.1,
        lr_drops=LR_DROPS,
        polytope=corner,
        seed=seed,
        lam=lam,
        batch_size=128,
        momentum=0.9,
        weight_decay=0.0005,
        attack=attack,
    )


def train_benchmark(kind, seed):
    train_ds, test_ds = benchmark_data(seed)
    model = init_mlp(derive_seed(seed, 3), DIMS)
    train(model, train_ds, benchmark_config(kind, seed))
    return model, test_ds


@pytest.fixture(scope="session")
def directional_runs():
    """Trained clean/cap/vanilla_at models for each seed, with phase timings."""
    out = {"models": {}, "timing": {}}
    t0 = time.perf_counter()
    for kind in ("clean", "cap"):
        for seed in SEEDS:
            out["models"][(kind, seed)] = train_benchmark(kind, seed)
    out["timing"]["train_clean_cap"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    corner = CornerConfig(10, 10, 0.02, PerturbationBudget(EPSILON), seed=0)
    out["diameters"] = {}
    for key, (model, test_ds) in out["models"].items():
        cfg = dataclasses.replace(corner, seed=key[1])
        out["diameters"][key] = mean_diameter(model, test_ds.features, cfg)
    out["timing"]["diameters"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for seed in SEEDS:
        out["models"][("vanilla_at", seed)] = train_benchmark("vanilla_at", seed)
    out["timing"]["train_at"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    out["clean_acc"] = {}
    out["robust_acc"] = {}
    for key, (model, test_ds) in out["models"].items():
        out["clean_acc"][key] = clean_accuracy(model, test_ds)
        accs = [
            robust_accuracy(
                model,
                test_ds,
                AttackConfig("pgd", EPSILON, 0.02, 20, random_start=True, seed=s),
            )
            for s in EVAL_SEEDS
        ]
        out["robust_acc"][key] = float(np.mean(accs))
    out["timing"]["evals"] = time.perf_counter() - t0
    return out


def seed_mean(table, kind):
    return float(np.mean([table[(kind, seed)] for seed in SEEDS]))


def test_criterion_1_gradient_fidelity():
    """Every coordinate of both gradient modes matches central differences
    (h = 1e-5) with relative error < 1e-6 on 20 random MLPs, in < 30 s.
    Near-zero coordinates are compared with a unit-scale guard, and nets
    whose pre-activations graze the relu kink are resampled so the
    difference quotient never straddles it."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    h = 1e-5
    worst = 0.0
    checked = 0
    for _ in range(20):
        while True:
            depth = int(rng.integers(1, 4))
            dims = [int(rng.integers(2, 17)) for _ in range(depth + 1)]
            model = init_mlp(int(rng.integers(0, 2**31)), dims)
            x = rng.standard_normal(dims[0])
            _, trace = forward(model, x)
            if all(np.abs(z).min() > 1e-4 for z in preactivations(model, trace)):
                break
        cot = rng.standard_normal(dims[-1])
        _, trace = forward(model, x)
        analytic_params = grad_params(model, trace, cot)
        analytic_input = grad_input(model, trace, cot)

        def value():
            logits, _ = forward(model, x)
            return float(np.dot(cot, logits))

        for p, g in zip(model.parameters(), analytic_params):
            flat, gf = p.reshape(-1), g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = value()
                flat[i] = orig - h
                dn = value()
                flat[i] = orig
                numeric = (up - dn) / (2 * h)
                worst = max(worst, abs(gf[i] - numeric) / max(abs(gf[i]), abs(numeric), 1.0))
                checked += 1
        for i in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            lp, _ = forward(model, xp)
            lm, _ = forward(model, xm)
            numeric = float(np.dot(cot, lp) - np.dot(cot, lm)) / (2 * h)
            a = analytic_input[i]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1.0))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    report(1, ok, f"gradient fidelity: worst rel err {worst:.2e} over {checked} coords "
                  f"of 20 nets ({elapsed:.1f} s < 30 s)")
    assert ok


def test_criterion_2_corner_search_vertex_oracle():
    """Linear models: the particle search must land on box vertices. A convex
    objective over a box is maximized at a vertex, so every settled corner
    output must coincide with one of the 2^d enumerated vertex images."""
    t0 = time.perf_counter()
    cases = []

    W2 = np.array([[2.0, 1.0], [-1.0, 1.5]])
    b2 = np.array([0.3, -0.2])
    cases.append((W2, b2, np.array([0.4, -0.7]), 123))

    rng = np.random.default_rng(2)
    W6 = rng.standard_normal((2, 6)) * 3.0
    b6 = rng.standard_normal(2) * 0.2
    cases.append((W6, b6, rng.standard_normal(6) * 0.5, 11))

    worst_coord = 0.0
    worst_vertex = 0.0
    for W, b, x, seed in cases:
        d = W.shape[1]
        model = MlpModel([Layer(W, b, "identity")])
        cfg = CornerConfig(8, 40, 0.02, PerturbationBudget(EPSILON), seed=seed)
        pset, est = find_corners(model, x, cfg)
        worst_coord = max(worst_coord, float(np.abs(np.abs(pset.particles) - EPSILON).max()))
        verts = np.array(list(itertools.product([-EPSILON, EPSILON], repeat=d)))
        vimg = (x + verts) @ W.T + b
        nearest = np.sqrt(((est.corners[:, None, :] - vimg[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
        worst_vertex = max(worst_vertex, float(nearest.max()))
    elapsed = time.perf_counter() - t0
    ok = worst_coord < 1e-3 and worst_vertex < 1e-6 and elapsed < 10.0
    report(2, ok, f"corner oracle d=2 and d=6: coord dev {worst_coord:.2e} < 1e-3, "
                  f"vertex dev {worst_vertex:.2e} < 1e-6 ({elapsed:.1f} s < 10 s)")
    assert ok


def test_criterion_3_feasibility_and_determinism():
    """1000 randomized searches with zero exact l-inf violations, plus, on 50
    seeded runs, bit-identical reruns of every row's search, and per-row
    diameters and a mean_diameter bit-equal to those of the searches."""
    rng = np.random.default_rng(3003)
    violations = 0
    for _ in range(1000):
        dims = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 4)))]
        model = init_mlp(int(rng.integers(0, 2**31)), dims)
        x = rng.standard_normal(dims[0])
        eps = float(rng.uniform(0.0, 0.5))
        cfg = CornerConfig(
            int(rng.integers(1, 5)),
            int(rng.integers(1, 5)),
            float(rng.uniform(0.001, 1.0)),
            PerturbationBudget(eps),
            seed=int(rng.integers(0, 2**31)),
        )
        pset, _ = find_corners(model, x, cfg)
        if np.any(np.abs(pset.particles) > eps):
            violations += 1

    mismatches = 0
    model = init_mlp(77, [3, 12, 3])
    for run in range(50):
        X = np.random.default_rng(run).standard_normal((8, 3))
        cfg = CornerConfig(4, 5, 0.05, PerturbationBudget(0.2), seed=run)
        diameters = []
        for i in range(len(X)):
            # mean_diameter's row i: a search on that row alone, in a block padded
            # with copies of itself, drawn as id i at (0, 0)
            block = (np.tile(X[i], (_BLOCK, 1)), [i] * _BLOCK)
            p1, l1, c1, _, _ = corner_search_batch(model, *block, cfg)
            p2, l2, c2, _, _ = corner_search_batch(model, *block, cfg)
            d1, d2 = max_pairwise_distance(l1[0]), max_pairwise_distance(l2[0])
            if not (
                np.array_equal(p1, p2)
                and np.array_equal(l1, l2)
                and np.array_equal(c1, c2)
                and d1 == d2
            ):
                mismatches += 1
            diameters.append(d1)
        if _block_diameters(model, X, cfg).tolist() != diameters:
            mismatches += 1
        if mean_diameter(model, X, cfg) != pytest.approx(np.mean(diameters), abs=0):
            mismatches += 1
    ok = violations == 0 and mismatches == 0
    report(3, ok, f"feasibility/determinism: {violations} budget violations in 1000 runs, "
                  f"{mismatches} rerun or mean-diameter mismatches in 50 runs")
    assert ok


def test_criterion_4_lambda_zero_reduction():
    """cap with lambda = 0 and the clean trainer walk bit-identical
    parameter trajectories over 5 epochs with shared seeds."""
    train_ds, _ = benchmark_data(0)
    diverged = []
    for epochs in (1, 2, 3, 4, 5):
        m_clean = init_mlp(derive_seed(0, 3), DIMS)
        m_cap = init_mlp(derive_seed(0, 3), DIMS)
        cfg_clean = dataclasses.replace(benchmark_config("clean", 0), epochs=epochs)
        cfg_cap = dataclasses.replace(benchmark_config("cap", 0, lam=0.0), epochs=epochs)
        train(m_clean, train_ds, cfg_clean)
        train(m_cap, train_ds, cfg_cap)
        if not all(np.array_equal(p, q) for p, q in zip(m_clean.parameters(), m_cap.parameters())):
            diverged.append(epochs)
    ok = not diverged
    report(4, ok, "lambda=0 reduction: parameters bit-identical after each of epochs 1..5"
           if ok else f"lambda=0 reduction: diverged at epochs {diverged}")
    assert ok


def test_criterion_5_confinement_effect(directional_runs):
    """Confinement shrinks reachable-output sets: mean test-set polytope
    diameter under cap < 0.7x the clean-training value, seed-averaged."""
    runs = directional_runs
    diam_cap = seed_mean(runs["diameters"], "cap")
    diam_clean = seed_mean(runs["diameters"], "clean")
    elapsed = runs["timing"]["train_clean_cap"] + runs["timing"]["diameters"]
    ratio = diam_cap / diam_clean
    ok = ratio < 0.7 and elapsed < 300.0
    report(5, ok, f"confinement: mean diameter cap {diam_cap:.4f} vs clean {diam_clean:.4f}, "
                  f"ratio {ratio:.3f} < 0.7 ({elapsed:.0f} s < 300 s)")
    assert ok


def test_criterion_6_robustness_effect(directional_runs):
    """PGD-20 robust accuracy: cap beats clean by >= 10 points and is
    non-inferior to vanilla AT at matched clean accuracy; cap's clean
    accuracy stays within 3 points of clean training."""
    runs = directional_runs
    rob = {k: seed_mean(runs["robust_acc"], k) for k in ("clean", "cap", "vanilla_at")}
    acc = {k: seed_mean(runs["clean_acc"], k) for k in ("clean", "cap", "vanilla_at")}
    elapsed = (
        runs["timing"]["train_clean_cap"]
        + runs["timing"]["train_at"]
        + runs["timing"]["evals"]
    )
    gap_clean = rob["cap"] - rob["clean"]
    gap_at = rob["cap"] - rob["vanilla_at"]
    acc_match_at = abs(acc["cap"] - acc["vanilla_at"]) <= 0.02
    acc_drop = acc["clean"] - acc["cap"]
    ok = (
        gap_clean >= 0.10
        and gap_at >= 0.0
        and acc_match_at
        and acc_drop <= 0.03
        and elapsed < 600.0
    )
    report(6, ok, f"robustness: PGD-20 cap {rob['cap']:.3f} vs clean {rob['clean']:.3f} "
                  f"(gap {gap_clean:+.3f} >= 0.10) vs AT {rob['vanilla_at']:.3f} "
                  f"(gap {gap_at:+.3f} >= 0); clean accs cap {acc['cap']:.3f} / "
                  f"clean {acc['clean']:.3f} / AT {acc['vanilla_at']:.3f} "
                  f"({elapsed:.0f} s < 600 s)")
    assert ok


def test_criterion_7_pgd_attains_vertex_maximum():
    """On linear models the PGD iterate reaches the brute-force vertex-
    maximal cross-entropy within 1e-9 (CE of a linear model is convex in
    the input: log-sum-exp of an affine map minus an affine term, so the
    box maximum sits at a vertex)."""
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 4, 6, 8, 10):
        rng = np.random.default_rng(700 + d)
        W = rng.standard_normal((2, d))
        model = MlpModel([Layer(W, rng.standard_normal(2) * 0.1, "identity")])
        x = rng.standard_normal(d) * 0.5
        eps = 0.2

        def ce(z):
            logits, _ = forward(model, z)
            return cross_entropy(softmax(logits), one_hot(0, 2))

        verts = np.array(list(itertools.product([-eps, eps], repeat=d)))
        best = max(ce(x + v) for v in verts)
        cfg = AttackConfig("pgd", eps, eps / 4, 20, random_start=False)
        from caplab import pgd

        worst = max(worst, abs(ce(pgd(model, x, 0, cfg)) - best))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report(7, ok, f"attack oracle: max CE deficit {worst:.2e} < 1e-9 over d in 2..10 "
                  f"({elapsed:.1f} s < 10 s)")
    assert ok


def test_criterion_8_cli_compare_end_to_end(tmp_path):
    """compare on the shipped presets exits 0, emits the table, and reruns
    byte-identically (run.log, the only timestamped file, excluded)."""
    import json
    from pathlib import Path

    presets = Path(__file__).resolve().parent.parent / "presets"
    trees = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        code = cli_main(
            [
                "compare",
                "--config-a",
                str(presets / "blobs_cap.ini"),
                "--config-b",
                str(presets / "blobs_clean.ini"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        tree = {}
        for p in sorted(out.rglob("*")):
            if p.is_file() and p.name != "run.log":
                tree[str(p.relative_to(out))] = p.read_bytes()
        trees.append(tree)
    table = (tmp_path / "r1" / "compare.md").read_text()
    doc = json.loads((tmp_path / "r1" / "compare.json").read_text())
    rows = {r["trainer"]: r for r in doc["rows"]}
    identical = trees[0] == trees[1]
    has_table = table.startswith("| run |") and "cap" in table and "clean" in table
    diam_ok = rows["cap"]["mean_diameter"] < rows["clean"]["mean_diameter"]
    ok = identical and has_table and diam_ok
    report(8, ok, f"CLI compare: exit 0, table emitted, rerun identical={identical}, "
                  f"cap diameter {rows['cap']['mean_diameter']:.4f} < "
                  f"clean {rows['clean']['mean_diameter']:.4f}")
    assert ok
