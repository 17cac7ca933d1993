"""Network engine tests: forward contracts, softmax/CE, gradient oracles,
and checkpoint round-trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from caplab import (
    Layer,
    MlpModel,
    ShapeError,
    forward,
    grad_input,
    grad_params,
    init_mlp,
    load_model,
    save_model,
    softmax,
)
from caplab.nn import model_from_dict, model_to_dict
from mutations import checkpoint_docs
from oracles import backward, cross_entropy, forward_out_of_place, one_hot, preactivations


def naive_forward(model, x):
    """Independent re-implementation: explicit per-neuron loops, no shared code
    with the engine's matrix path."""
    a = [float(v) for v in x]
    for layer in model.layers:
        out = []
        for i in range(layer.out_dim):
            s = float(layer.bias[i])
            for j in range(layer.in_dim):
                s += float(layer.weight[i, j]) * a[j]
            out.append(s)
        if layer.activation == "relu":
            out = [v if v > 0.0 else 0.0 for v in out]
        a = out
    return np.array(a)


def rel_err(analytic, numeric):
    """|a - n| scaled by max(|a|, |n|, 1): relative for O(1)+ gradients,
    absolute below, so exact-zero coordinates compare cleanly."""
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)


def random_model(rng, dims=None, max_width=16, max_depth=3):
    if dims is None:
        depth = rng.integers(1, max_depth + 1)
        dims = [int(rng.integers(2, max_width + 1)) for _ in range(depth + 1)]
    return init_mlp(int(rng.integers(0, 2**31)), dims), dims


def safe_case(rng, margin=1e-4):
    """Random (model, x) whose pre-activations all clear the relu kink by
    ``margin``, so central differences with h = 1e-5 never straddle it."""
    while True:
        model, dims = random_model(rng)
        x = rng.standard_normal(dims[0])
        _, trace = forward(model, x)
        if all(np.abs(z).min() > margin for z in preactivations(model, trace)):
            return model, x


def finite_diff_param_grads(model, x, cotangent, h=1e-5):
    grads = []
    for p in model.parameters():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(np.dot(cotangent, forward(model, x)[0]))
            flat[i] = orig - h
            dn = float(np.dot(cotangent, forward(model, x)[0]))
            flat[i] = orig
            gf[i] = (up - dn) / (2 * h)
        grads.append(g)
    return grads


def finite_diff_input_grad(model, x, cotangent, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        up = float(np.dot(cotangent, forward(model, xp)[0]))
        dn = float(np.dot(cotangent, forward(model, xm)[0]))
        g[i] = (up - dn) / (2 * h)
    return g


class TestForward:
    def test_identity_layer_passes_input_through(self):
        model = MlpModel([Layer(np.eye(2), np.zeros(2), "identity")])
        logits, _ = forward(model, np.array([1.0, 2.0]))
        assert np.array_equal(logits, np.array([1.0, 2.0]))

    def test_relu_clamps_negative_preactivation(self):
        model = MlpModel(
            [
                Layer(np.array([[1.0, -1.0]]), np.zeros(1), "relu"),
                Layer(np.eye(1), np.zeros(1), "identity"),
            ]
        )
        logits, _ = forward(model, np.array([0.3, 0.5]))
        assert logits[0] == 0.0

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(7)
        model, _ = random_model(rng, dims=[4, 8, 3])
        for _ in range(10):
            x = rng.standard_normal(4)
            got, _ = forward(model, x)
            want = naive_forward(model, x)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_batched_forward_is_per_row(self):
        rng = np.random.default_rng(3)
        model, dims = random_model(rng, dims=[5, 7, 4])
        X = rng.standard_normal((6, 5))
        batched, _ = forward(model, X)
        for i in range(6):
            single, _ = forward(model, X[i])
            assert np.allclose(batched[i], single, rtol=0, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        model, dims = random_model(rng)
        x = rng.standard_normal(dims[0])
        a, _ = forward(model, x)
        b, _ = forward(model, x)
        assert np.array_equal(a, b)

    def test_dimension_mismatch_names_layer(self):
        model = init_mlp(0, [4, 3, 2])
        with pytest.raises(ShapeError, match="layer 0"):
            forward(model, np.zeros(5))

    def test_layer_chaining_validated(self):
        with pytest.raises(ShapeError, match="layer 1"):
            MlpModel(
                [
                    Layer(np.zeros((3, 2)), np.zeros(3), "relu"),
                    Layer(np.zeros((2, 4)), np.zeros(2), "identity"),
                ]
            )

    def test_final_layer_must_be_identity(self):
        with pytest.raises(ValueError, match="identity"):
            MlpModel([Layer(np.eye(2), np.zeros(2), "relu")])

    def test_rejects_non_finite_input(self):
        model = init_mlp(0, [2, 2])
        with pytest.raises(ValueError, match="non-finite"):
            forward(model, np.array([1.0, np.nan]))


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        assert np.allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), rtol=0, atol=1e-15)

    def test_large_logits_no_overflow(self):
        p = softmax(np.array([1000.0, 0.0, 0.0]))
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_extended_precision_oracle(self):
        # float64-nearest values of exp-normalization computed at 60 decimal
        # digits with mpmath for logits [1, 2, 3]
        want = np.array([0.09003057317038046, 0.24472847105479764, 0.6652409557748219])
        got = softmax(np.array([1.0, 2.0, 3.0]))
        assert np.max(np.abs(got - want)) < 1e-15

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = softmax(rng.standard_normal(rng.integers(2, 9)) * 10)
            assert abs(p.sum() - 1.0) < 1e-12
            assert (p > 0).all()

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = rng.standard_normal(5) * 3
            assert np.max(np.abs(softmax(z) - softmax(z + 17.3))) < 1e-12


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        assert cross_entropy(np.array([1.0, 0.0, 0.0]), one_hot(0, 3)) == 0.0

    def test_uniform_is_log_n(self):
        for k in range(3):
            ce = cross_entropy(np.full(3, 1 / 3), one_hot(k, 3))
            assert ce == pytest.approx(math.log(3), abs=1e-15)

    def test_matches_independent_log(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            p = softmax(rng.standard_normal(4) * 2)
            k = int(rng.integers(0, 4))
            want = -math.log(p[k])  # independent scalar-math path
            assert abs(cross_entropy(p, one_hot(k, 4)) - want) < 1e-12

    def test_zero_probability_is_finite(self):
        ce = cross_entropy(np.array([0.0, 1.0]), one_hot(0, 2))
        assert np.isfinite(ce) and ce > 0

    def test_invalid_label_vector_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    def test_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            p = softmax(rng.standard_normal(5))
            assert cross_entropy(p, one_hot(int(rng.integers(0, 5)), 5)) >= 0.0


class TestGradients:
    def test_linear_param_grad_is_outer_product(self):
        rng = np.random.default_rng(10)
        W = rng.standard_normal((3, 4))
        model = MlpModel([Layer(W, np.zeros(3), "identity")])
        x = rng.standard_normal(4)
        _, trace = forward(model, x)
        for k in range(3):
            grads = grad_params(model, trace, one_hot(k, 3))
            assert np.allclose(grads[0], np.outer(one_hot(k, 3), x), rtol=0, atol=1e-15)
            assert np.allclose(grads[1], one_hot(k, 3), rtol=0, atol=0)

    def test_zero_cotangent_gives_zero_grads(self):
        rng = np.random.default_rng(12)
        model, dims = random_model(rng)
        x = rng.standard_normal(dims[0])
        _, trace = forward(model, x)
        for g in grad_params(model, trace, np.zeros(dims[-1])):
            assert not g.any()
        assert not grad_input(model, trace, np.zeros(dims[-1])).any()

    def test_linear_input_grad_is_w_transpose(self):
        rng = np.random.default_rng(13)
        W = rng.standard_normal((3, 5))
        model = MlpModel([Layer(W, rng.standard_normal(3), "identity")])
        x = rng.standard_normal(5)
        _, trace = forward(model, x)
        cot = rng.standard_normal(3)
        assert np.allclose(grad_input(model, trace, cot), W.T @ cot, rtol=0, atol=1e-14)

    def test_param_grads_match_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            model, x = safe_case(rng)
            cot = rng.standard_normal(model.output_dim)
            _, trace = forward(model, x)
            analytic = grad_params(model, trace, cot)
            numeric = finite_diff_param_grads(model, x, cot)
            for a, n in zip(analytic, numeric):
                worst = max(rel_err(ai, ni) for ai, ni in zip(a.reshape(-1), n.reshape(-1)))
                assert worst < 1e-6

    def test_input_grad_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            model, x = safe_case(rng)
            cot = rng.standard_normal(model.output_dim)
            _, trace = forward(model, x)
            analytic = grad_input(model, trace, cot)
            numeric = finite_diff_input_grad(model, x, cot)
            worst = max(rel_err(a, n) for a, n in zip(analytic, numeric))
            assert worst < 1e-6

    def test_relu_subgradient_zero_at_zero(self):
        # x = 1 with weight 0 and bias 0 puts the pre-activation at exactly 0;
        # the documented convention blocks the gradient there.
        model = MlpModel(
            [
                Layer(np.array([[0.0]]), np.array([0.0]), "relu"),
                Layer(np.array([[1.0]]), np.array([0.0]), "identity"),
            ]
        )
        x = np.array([1.0])
        _, trace = forward(model, x)
        assert preactivations(model, trace)[0][0, 0] == 0.0
        assert grad_input(model, trace, np.array([1.0])) == np.array([0.0])

    def test_relu_mask_from_next_input_is_the_preactivation_mask(self):
        # the engine masks relu layer k with inputs[k + 1] = max(z, 0) > 0;
        # that is z > 0 at every class of float64, also where forward's GEMM
        # does not reach (-0.0: its sums start from +0.0) or only by overflow
        z = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0, np.inf, -np.inf, np.nan])
        assert np.array_equal(np.maximum(z, 0.0) > 0.0, z > 0.0)

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("batched", [False, True])
    def test_input_only_pass_is_bitwise_the_full_reverse_pass(self, activation, batched):
        rng = np.random.default_rng(19)
        model, dims = random_model(rng, dims=[3, 7, 5, 2])
        for layer in model.layers[:-1]:
            layer.activation = activation
        X = rng.standard_normal((6, 3))
        model.layers[0].bias[:] = rng.standard_normal(7)
        x = X if batched else X[0]
        cot = rng.standard_normal((6, 2) if batched else 2)
        for zero in (0.0, -0.0):
            # hidden unit 0 sits at a pre-activation of exactly zero in every
            # row: its weights and bias are the signed zero
            model.layers[0].weight[0] = zero
            model.layers[0].bias[0] = zero
            _, trace = forward(model, x)
            assert (preactivations(model, trace)[0][:, 0] == 0.0).all()
            params, full = backward(model, trace, cot)
            want = full if batched else full[0]
            assert grad_input(model, trace, cot).tobytes() == want.tobytes()
            got = grad_params(model, trace, cot)
            assert len(got) == len(params)
            for a, b in zip(got, params):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_batched_grads_accumulate_rows(self):
        rng = np.random.default_rng(16)
        model, dims = random_model(rng, dims=[3, 6, 2])
        X = rng.standard_normal((4, 3))
        cots = rng.standard_normal((4, 2))
        _, trace = forward(model, X)
        batched = grad_params(model, trace, cots)
        batched_input = grad_input(model, trace, cots)
        summed = None
        for i in range(4):
            _, tr = forward(model, X[i])
            gi = grad_params(model, tr, cots[i])
            summed = gi if summed is None else [a + b for a, b in zip(summed, gi)]
            # grad_input returns one row exactly when the cotangent is one (c,)
            # vector, whatever the shape of the input that the trace saw
            for x, cot, shape in [
                (X[i], cots[i], (3,)),
                (X[i : i + 1], cots[i], (3,)),
                (X[i], cots[i : i + 1], (1, 3)),
                (X[i : i + 1], cots[i : i + 1], (1, 3)),
            ]:
                _, tr = forward(model, x)
                g = grad_input(model, tr, cot)
                assert g.shape == shape
                assert np.allclose(g.reshape(-1), batched_input[i], rtol=1e-12, atol=1e-12)
        for a, b in zip(batched, summed):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_trace_model_mismatch_rejected(self):
        model_a = init_mlp(0, [2, 3, 2])
        model_b = init_mlp(1, [2, 2])
        _, trace = forward(model_a, np.zeros(2))
        with pytest.raises(ShapeError):
            grad_params(model_b, trace, np.zeros(2))


def read_only(a):
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


class TestInPlacePasses:
    """The passes build their layer arrays in place; the bits are those of
    the out-of-place expressions, and no caller array is written."""

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("rows", [1, 10, 160, 440, 1280])
    def test_same_bits_and_inputs_unchanged(self, activation, rows):
        # the trainer's widths, at the single-search, probe, tail-batch and
        # full-batch row counts
        rng = np.random.default_rng(rows)
        model = init_mlp(5, [2, 32, 32, 3], hidden_activation=activation)
        for layer in model.layers:
            layer.bias[:] = rng.normal(0.0, 0.1, layer.out_dim)
        X = read_only(rng.normal(0.0, 0.5, (rows, 2)))
        kept_x = X.copy()
        cot2 = rng.standard_normal((rows, 3))
        cotangents = [read_only(cot2), read_only(cot2.T.copy()).T]  # C and F order
        inputs = [X] + ([X[0]] if rows == 1 else [])
        if rows == 1:
            cotangents.append(read_only(cot2[0]))
        for x in inputs:
            logits, trace = forward(model, x)
            want_logits, want_trace = forward_out_of_place(model, x)
            assert logits.shape == want_logits.shape
            assert logits.tobytes() == want_logits.tobytes()
            assert len(trace) == len(want_trace)
            for a, b in zip(trace, want_trace):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            for a in trace:
                a.flags.writeable = False
            kept = [a.copy() for a in trace]
            for cot in cotangents:
                kept_cot = cot.copy()
                params, full = backward(model, trace, cot)
                want_input = full[0] if cot.ndim == 1 else full
                got_input = grad_input(model, trace, cot)
                assert got_input.shape == want_input.shape
                assert got_input.tobytes() == want_input.tobytes()
                got = grad_params(model, trace, cot)
                assert len(got) == len(params)
                for a, b in zip(got, params):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert cot.tobytes() == kept_cot.tobytes()
            for a, b in zip(trace, kept):
                assert a.tobytes() == b.tobytes()
        assert X.tobytes() == kept_x.tobytes()


class TestSerialization:
    def test_round_trip_is_value_exact(self):
        rng = np.random.default_rng(17)
        model = init_mlp(42, [3, 9, 5, 2])
        # stir in awkward magnitudes
        model.layers[0].weight[0, 0] = 0.1
        model.layers[0].weight[0, 1] = 1e-300
        model.layers[1].weight[0, 0] = -1.7976931348623157e308
        model.layers[1].bias[0] = 5e-324  # smallest subnormal
        doc = json.loads(json.dumps(model_to_dict(model)))
        back = model_from_dict(doc)
        for p, q in zip(model.parameters(), back.parameters()):
            assert np.array_equal(p, q)

    def test_file_round_trip(self, tmp_path):
        model = init_mlp(3, [4, 6, 3])
        path = str(tmp_path / "ck.json")
        save_model(model, path)
        back = load_model(path)
        for p, q in zip(model.parameters(), back.parameters()):
            assert np.array_equal(p, q)
        doc = json.load(open(path))
        assert doc["version"] == 1
        assert doc["dims"] == {"input": 4, "output": 3}
        assert {"rows", "cols", "activation", "weights", "bias"} <= set(doc["layers"][0])

    def test_rejects_non_finite_parameters(self):
        model = init_mlp(0, [2, 2])
        model.layers[0].weight[0, 0] = np.inf
        with pytest.raises(ValueError):
            model_to_dict(model)

    def test_rejects_wrong_version(self):
        model = init_mlp(0, [2, 2])
        doc = model_to_dict(model)
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            model_from_dict(doc)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(doc=checkpoint_docs())
def test_mutated_checkpoint_loads_or_names_the_problem(doc):
    try:
        model = model_from_dict(doc)
    except ValueError as exc:  # ShapeError included; the CLI exits 2
        assert str(exc)
        return
    assert all(np.isfinite(p).all() for p in model.parameters())
