import decimal
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmargin.loss_core import LossParams, loss_and_grad_vec
from xmargin.network import (INFER_ROWS, Activation, Layer, MlpModel, Mode, backward,
                             build_boundary_model, build_mlp, build_experiment_model,
                             dropout_keep, forward, forward_single_layer, predict_proba,
                             sigmoid)
from xmargin.optimizer import OptimizerConfig, train


def flat_params(model):
    return np.concatenate([p.ravel() for p in model.parameters()])


def drawn_kept(model, rows, rng):
    """Dropout keep flags for `rows` rows, one uniform per row and dropout unit."""
    keep = dropout_keep(model)
    return rng.random((rows, keep.size)) < keep


def logaddexp_sigmoid(z):
    """The sigmoid as e^{-log(1 + e^-z)}: one formula for every z, with
    none of `sigmoid`'s branch on the sign of z."""
    return np.exp(-np.logaddexp(0.0, -np.asarray(z, dtype=float)))


def set_flat_params(model, vec):
    pos = 0
    for p in model.parameters():
        p[...] = vec[pos:pos + p.size].reshape(p.shape)
        pos += p.size


class TestSingleLayer:
    def test_zero_weights_give_half(self):
        assert forward_single_layer(np.zeros(4), np.ones(4)) == 0.5

    def test_unit_case(self):
        got = forward_single_layer(np.array([1.0, 0.0]), np.array([1.0, 5.0]))
        assert got == pytest.approx(1 / (1 + math.exp(-1)), rel=1e-12)

    def test_saturation_is_finite(self):
        v = forward_single_layer(np.array([1000.0]), np.array([1.0]))
        assert 0.0 <= v <= 1.0 and math.isfinite(v)
        assert forward_single_layer(np.array([-1000.0]), np.array([1.0])) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            forward_single_layer(np.zeros(3), np.zeros(4))

    def test_matches_full_forward(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=5)
        model = MlpModel(layers=[Layer(w.reshape(1, 5), np.zeros(1),
                                       Activation.SIGMOID)])
        for _ in range(100):
            x = rng.normal(size=5)
            assert forward(model, x).output[0] == pytest.approx(
                forward_single_layer(w, x), abs=1e-12)


class TestForward:
    def test_zero_weight_network_outputs_half(self):
        model = build_experiment_model(10, seed=3)
        for layer in model.layers:
            layer.weights[...] = 0.0
        out = forward(model, np.zeros((4, 10))).output
        assert np.allclose(out, 0.5)

    def test_output_is_probability(self):
        model = build_experiment_model(6, seed=1)
        X = np.random.default_rng(0).normal(size=(50, 6))
        out = forward(model, X).output
        assert ((out >= 0.0) & (out <= 1.0)).all()

    def test_infer_mode_deterministic(self):
        model = build_experiment_model(6, seed=1)
        X = np.random.default_rng(0).normal(size=(20, 6))
        assert np.array_equal(forward(model, X).output, forward(model, X).output)

    def test_train_mode_requires_keep_flags(self):
        model = build_experiment_model(6, seed=1)
        with pytest.raises(ValueError, match="keep flags"):
            forward(model, np.zeros(6), Mode.TRAIN)

    def test_zero_dropout_train_equals_infer(self):
        model = build_boundary_model(3, seed=5)
        X = np.random.default_rng(1).normal(size=(10, 3))
        kept = drawn_kept(model, 10, np.random.default_rng(0))
        tr = forward(model, X, Mode.TRAIN, kept=kept).output
        inf = forward(model, X).output
        assert np.array_equal(tr, inf)

    def test_input_dim_mismatch(self):
        model = build_boundary_model(3, seed=5)
        with pytest.raises(ValueError):
            forward(model, np.zeros((2, 4)))

    def test_rejects_non_finite_input(self):
        model = build_boundary_model(3, seed=5)
        with pytest.raises(ValueError):
            forward(model, np.array([1.0, np.nan, 0.0]))


class TestDropout:
    def test_inverted_dropout_mean_preserved(self):
        # over many draws the masked activation expectation matches the
        # unmasked one (inverted scaling), within 2%
        model = build_mlp(4, [(64, Activation.RELU, 0.25),
                              (1, Activation.SIGMOID, 0.0)], seed=2)
        x = np.abs(np.random.default_rng(3).normal(size=4)) + 0.5
        rng = np.random.default_rng(12345)
        clean = forward(model, x).activations[0]
        acc = np.zeros_like(clean)
        n = 10000
        for _ in range(n):
            acc += forward(model, x, Mode.TRAIN, kept=drawn_kept(model, 1, rng)).activations[0]
        acc /= n
        big = np.abs(clean) > 0.1
        assert np.allclose(acc[big], clean[big], rtol=0.02)

    def test_mask_values_are_zero_or_scaled(self):
        model = build_mlp(4, [(32, Activation.RELU, 0.25),
                              (1, Activation.SIGMOID, 0.0)], seed=2)
        tr = forward(model, np.ones(4), Mode.TRAIN,
                     kept=drawn_kept(model, 1, np.random.default_rng(0)))
        mask = tr.masks[0]
        assert set(np.unique(mask)) <= {0.0, 1.0 / 0.75}

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Layer(np.zeros((1, 1)), np.zeros(1), Activation.SIGMOID, dropout_rate=1.0)

    def test_experiment_model_keeps_three_quarters_of_112_units(self):
        keep = dropout_keep(build_experiment_model(7, seed=3))
        assert keep.tolist() == [0.75] * 112

    @pytest.mark.parametrize("seed", [0, 11])
    def test_train_draws_one_block_of_rows_by_units(self, seed):
        # two minibatches in turn take the rows of one (13, units) block of
        # keep flags; each dropout layer's mask is its own columns of it
        # over its keep
        model = build_experiment_model(6, seed=seed)
        X = np.random.default_rng(seed + 1).normal(size=(13, 6))
        kept = drawn_kept(model, 13, np.random.default_rng(seed))
        traces = [forward(model, X[:5], Mode.TRAIN, kept=kept[:5]),
                  forward(model, X[5:], Mode.TRAIN, kept=kept[5:])]
        keep = dropout_keep(model)
        expected = kept / keep
        col = 0
        for i, layer in enumerate(model.layers):
            if layer.dropout_rate == 0.0:
                assert all(t.masks[i] is None for t in traces)
                continue
            cols = expected[:, col:col + layer.weights.shape[0]]
            assert np.array_equal(traces[0].masks[i], cols[:5])
            assert np.array_equal(traces[1].masks[i], cols[5:])
            col += layer.weights.shape[0]
        assert col == keep.size

    def test_no_dropout_draws_nothing(self):
        # training a model without dropout takes only its shuffles from its
        # generator
        model = build_boundary_model(3, seed=5)
        assert dropout_keep(model).size == 0
        rng, shuffles = np.random.default_rng(4), np.random.default_rng(4)
        train(model, np.ones((9, 3)), np.arange(9) % 2, LossParams(), OptimizerConfig(),
              epochs=2, batch_size=4, rng=rng)
        for _ in range(2):
            shuffles.permutation(9)
        assert rng.bit_generator.state == shuffles.bit_generator.state


class TestBackward:
    def test_zero_seed_gives_zero_grads(self):
        model = build_experiment_model(5, seed=4)
        trace = forward(model, np.random.default_rng(0).normal(size=(3, 5)))
        for dw, db in backward(trace, model, np.zeros(3)):
            assert not dw.any() and not db.any()

    def test_single_layer_analytic_gradient(self):
        # y = sigmoid(w.x + b): dy/dw = y(1-y) x, dy/db = y(1-y)
        w = np.array([[0.3, -0.7]])
        model = MlpModel(layers=[Layer(w, np.array([0.1]), Activation.SIGMOID)])
        x = np.array([0.9, -0.4])
        trace = forward(model, x)
        y = trace.output[0]
        (dw, db), = backward(trace, model, 1.0)
        assert dw == pytest.approx(y * (1 - y) * x.reshape(1, 2), rel=1e-12)
        assert db[0] == pytest.approx(y * (1 - y), rel=1e-12)

    def test_batch_gradient_is_sum_of_instances(self):
        model = build_boundary_model(3, seed=9)
        X = np.random.default_rng(5).normal(size=(4, 3))
        seeds = np.array([0.5, -1.0, 2.0, 0.25])
        batch = backward(forward(model, X), model, seeds)
        singles = [backward(forward(model, X[i]), model, seeds[i])
                   for i in range(4)]
        for li in range(len(model.layers)):
            dw_sum = sum(s[li][0] for s in singles)
            db_sum = sum(s[li][1] for s in singles)
            assert np.allclose(batch[li][0], dw_sum, atol=1e-12)
            assert np.allclose(batch[li][1], db_sum, atol=1e-12)

    def test_full_architecture_matches_finite_differences(self):
        # loss-through-network gradient check on the deep model, dropout off
        model = build_experiment_model(7, seed=11)
        X = np.random.default_rng(6).normal(size=(5, 7))
        yt = np.array([1, 0, 1, 1, 0])
        params = LossParams(2.0, 3.0)

        def total_loss(vec):
            set_flat_params(model, vec)
            vals, _ = loss_and_grad_vec(forward(model, X).output, yt, params)
            return float(np.mean(vals))

        theta = flat_params(model)
        trace = forward(model, X)
        _, dvals = loss_and_grad_vec(trace.output, yt, params)
        grads = backward(trace, model, dvals / len(yt))
        analytic = np.concatenate([np.concatenate([dw.ravel(), db.ravel()])
                                   for dw, db in grads])
        rng = np.random.default_rng(13)
        h = 1e-6
        for idx in rng.choice(theta.size, size=200, replace=False):
            plus = theta.copy(); plus[idx] += h
            minus = theta.copy(); minus[idx] -= h
            fd = (total_loss(plus) - total_loss(minus)) / (2 * h)
            assert analytic[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)
        set_flat_params(model, theta)

    def test_dloss_length_mismatch(self):
        model = build_boundary_model(2, seed=0)
        trace = forward(model, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            backward(trace, model, np.zeros(5))

    def test_trace_of_another_model_rejected(self):
        trace = forward(build_boundary_model(2, seed=0), np.zeros((3, 2)))
        other = build_mlp(2, [(1, Activation.SIGMOID, 0.0)], seed=0)
        with pytest.raises(ValueError, match="trace/model layer count mismatch"):
            backward(trace, other, np.zeros(3))


class TestBuilders:
    @pytest.mark.parametrize("build,message", [
        (lambda: Layer(np.zeros((2, 3)), np.zeros(3), Activation.SIGMOID),
         "weights/biases shape mismatch"),
        (lambda: Layer(np.array([[np.nan]]), np.zeros(1), Activation.SIGMOID),
         "non-finite parameters"),
        (lambda: MlpModel([Layer(np.zeros((4, 2)), np.zeros(4), Activation.RELU),
                           Layer(np.zeros((1, 3)), np.zeros(1), Activation.SIGMOID)]),
         "incompatible consecutive layer dimensions"),
        (lambda: build_mlp(0, [(1, Activation.SIGMOID, 0.0)], seed=0),
         "input_dim must be >= 1"),
    ], ids=["shape_mismatch", "non_finite", "layer_dims", "input_dim"])
    def test_malformed_model_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_experiment_model_parameter_count(self):
        model = build_experiment_model(60, seed=0)
        total = sum(p.size for p in model.parameters())
        expected = (60 * 64 + 64) + (64 * 32 + 32) + (32 * 16 + 16) \
            + (16 * 8 + 8) + (8 * 1 + 1)
        assert total == expected

    def test_architecture_shape(self):
        model = build_experiment_model(60, seed=0)
        widths = [l.weights.shape[0] for l in model.layers]
        acts = [l.activation for l in model.layers]
        drops = [l.dropout_rate for l in model.layers]
        assert widths == [64, 32, 16, 8, 1]
        assert acts == [Activation.RELU, Activation.SIGMOID, Activation.RELU,
                        Activation.RELU, Activation.SIGMOID]
        assert drops == [0.25, 0.25, 0.25, 0.0, 0.0]

    def test_seeding_reproducible(self):
        a = build_experiment_model(10, seed=42)
        b = build_experiment_model(10, seed=42)
        c = build_experiment_model(10, seed=43)
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.parameters(), b.parameters()))
        assert any(not np.array_equal(x, y)
                   for x, y in zip(a.parameters(), c.parameters()))

    def test_glorot_bound_and_zero_biases(self):
        model = build_mlp(20, [(30, Activation.RELU, 0.0),
                               (1, Activation.SIGMOID, 0.0)], seed=1)
        limit = math.sqrt(6.0 / (20 + 30))
        assert np.abs(model.layers[0].weights).max() <= limit
        for layer in model.layers:
            assert not layer.biases.any()

    def test_experiment_model_weights_are_glorot_uniform(self):
        # U(-limit, limit) has variance limit**2 / 3; the sample variance of n
        # of its draws has a standard error of (4/45 / n)**0.5 * limit**2
        models = [build_experiment_model(60, seed) for seed in range(200)]
        for i, layer in enumerate(models[0].layers):
            fan_out, fan_in = layer.weights.shape
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            weights = np.concatenate([m.layers[i].weights.ravel() for m in models])
            assert np.abs(weights).max() <= limit, i
            stderr = math.sqrt(4.0 / 45.0 / weights.size) * limit ** 2
            assert abs(np.var(weights, ddof=1) - limit ** 2 / 3) <= 5 * stderr, i

    def test_final_layer_invariant(self):
        with pytest.raises(ValueError):
            MlpModel(layers=[Layer(np.zeros((2, 3)), np.zeros(2),
                                   Activation.SIGMOID)])
        with pytest.raises(ValueError):
            MlpModel(layers=[Layer(np.zeros((1, 3)), np.zeros(1),
                                   Activation.RELU)])


class TestSigmoid:
    @given(st.floats(-500, 500))
    @settings(max_examples=200)
    def test_range_and_symmetry(self, z):
        v = float(sigmoid(np.array([z]))[0])
        w = float(sigmoid(np.array([-z]))[0])
        assert 0.0 <= v <= 1.0
        assert v + w == pytest.approx(1.0, abs=1e-12)

    def test_extreme_inputs_finite(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert np.isfinite(out).all()
        assert out[0] == 0.0 or out[0] < 1e-300
        assert out[1] == 1.0


class TestFlatBuffer:
    def test_parameters_are_views_of_one_buffer(self):
        model = build_experiment_model(9, seed=2)
        flat = model.flat
        assert flat.dtype == np.float64 and flat.flags.c_contiguous
        assert flat.size == sum(p.size for p in model.parameters())
        pos = 0
        for p in model.parameters():
            assert np.shares_memory(p, flat)
            assert np.array_equal(p.ravel(), flat[pos:pos + p.size])
            pos += p.size
        model.layers[2].biases[3] = 7.5
        assert 7.5 in flat

    def test_copy_does_not_alias(self):
        model = build_experiment_model(9, seed=2)
        twin = model.copy()
        assert not np.shares_memory(twin.flat, model.flat)
        assert np.array_equal(twin.flat, model.flat)
        twin.layers[0].weights[...] = 0.0
        assert model.layers[0].weights.any()

    def test_gradients_are_views_of_one_fresh_vector(self):
        model = build_experiment_model(6, seed=3)
        trace = forward(model, np.random.default_rng(0).normal(size=(4, 6)))
        grads = backward(trace, model, np.ones(4))
        flat = grads[0][0].base  # the array the per-layer gradients are views of
        assert all(g.base is flat for pair in grads for g in pair)
        assert flat.shape == model.flat.shape
        assert not np.shares_memory(flat, model.flat)
        assert np.array_equal(
            np.concatenate([g.ravel() for pair in grads for g in pair]), flat)
        # given `out`, backward writes the same gradient there and returns its views
        out = np.empty_like(model.flat)
        assert all(g.base is out for pair in backward(trace, model, np.ones(4), out=out)
                   for g in pair)
        assert np.array_equal(out, flat)

    def test_views_keep_one_slot(self):
        model = build_experiment_model(6, seed=3)
        a, b = np.zeros_like(model.flat), np.ones_like(model.flat)
        for vec in (a, b, a):
            assert all(v.base is vec for pair in model.views(vec) for v in pair)

    def test_backward_into_two_arrays_in_turn(self):
        model = build_experiment_model(6, seed=3)
        rng = np.random.default_rng(5)
        traces = [forward(model, rng.normal(size=(4, 6))) for _ in range(2)]
        wanted = [backward(t, model, np.ones(4), out=np.empty_like(model.flat))[0][0].base
                  for t in traces]
        assert not np.array_equal(*wanted)
        outs = [np.empty_like(model.flat) for _ in traces]
        for _ in range(2):
            for trace, out, want in zip(traces, outs, wanted):
                backward(trace, model, np.ones(4), out=out)
                assert np.array_equal(out, want)


class TestRawActivations:
    def test_raw_times_mask_is_activation_in_train_mode(self):
        model = build_experiment_model(5, seed=4)
        X = np.random.default_rng(1).normal(size=(16, 5))
        kept = drawn_kept(model, 16, np.random.default_rng(2))
        trace = forward(model, X, Mode.TRAIN, kept=kept)
        assert any(m is not None for m in trace.masks)
        for raw, act, mask in zip(trace.raw_activations, trace.activations,
                                  trace.masks):
            expected = raw if mask is None else raw * mask
            assert np.array_equal(expected, act)

    def test_infer_mode_applies_no_masks(self):
        model = build_experiment_model(5, seed=4)
        trace = forward(model, np.zeros((3, 5)))
        assert trace.masks == [None] * len(model.layers)
        assert all(r is a for r, a in zip(trace.raw_activations, trace.activations))


class TestSigmoidReference:
    def test_matches_logistic_formula(self):
        z = np.linspace(-700.0, 700.0, 100_001)
        expected = np.array([1.0 / (1.0 + math.exp(-v)) for v in z])
        assert np.allclose(sigmoid(z), expected, rtol=1e-12, atol=0.0)

    def test_far_negative_tail_is_not_flushed(self):
        assert float(sigmoid(np.array([-40.0]))[0]) == pytest.approx(
            math.exp(-40.0), rel=1e-12)

    def test_agrees_with_the_logaddexp_form(self):
        z = np.concatenate([np.linspace(-8.0, 8.0, 100_001),
                            np.linspace(-745.0, 745.0, 100_001)])
        ref = logaddexp_sigmoid(z)
        rel = np.abs(sigmoid(z) - ref) / ref
        near = np.abs(z) <= 8.0
        assert rel[near].max() <= 1e-15
        # the logaddexp form rounds log(1 + e^-z) ~ -z before its exp, so its
        # own relative error grows like |z| eps in the negative tail
        assert (rel[~near] <= 2.0 * np.abs(z[~near]) * np.finfo(float).eps).all()

    def test_within_1e15_of_the_correctly_rounded_value(self):
        z = np.concatenate([np.linspace(-700.0, 700.0, 2801), np.linspace(-40.0, 40.0, 1601)])
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            exact = np.array([float(1 / (1 + (-decimal.Decimal(float(v))).exp())) for v in z])
        assert (np.abs(sigmoid(z) - exact) / exact).max() <= 1e-15

    def test_tails(self):
        z = np.array([-745.0, 700.0, np.inf, -np.inf, 0.0, -0.0])
        assert sigmoid(z).tolist() == [5e-324, 1.0, 1.0, 0.0, 0.5, 0.5]

    def test_no_floating_point_warnings(self):
        z = np.array([-np.inf, -1e308, -1e4, -746.0, -745.0, -40.0, -0.0, 0.0,
                      40.0, 745.0, 1e4, 1e308, np.inf])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = sigmoid(z)
        assert ((out >= 0.0) & (out <= 1.0)).all()


ROW_COUNTS = (0, 50, INFER_ROWS - 1, INFER_ROWS, INFER_ROWS + 1, 2 * INFER_ROWS + 1)


def blocked_infer_forward(model, X):
    """`forward(..., Mode.INFER).output` of each `INFER_ROWS`-row block of X, joined."""
    return np.concatenate([forward(model, X[..., lo:lo + INFER_ROWS, :], Mode.INFER).output
                           for lo in range(0, max(X.shape[-2], 1), INFER_ROWS)], axis=-1)


def with_distinct_biases(model, offset):
    """`model` with its own non-zero bias on every unit (`build_mlp` makes
    them zero), so that a bias added wrongly, or not at all, shows."""
    for layer in model.layers:
        layer.biases[...] = offset + np.linspace(0.1, 0.7, layer.biases.shape[-1])
    return model


def check_predict_proba(model, X, shape):
    got = predict_proba(model, X)
    assert got.shape == shape
    assert got.tobytes() == blocked_infer_forward(model, X).tobytes()
    # an unblocked pass may round a row differently, but only in its last bits
    np.testing.assert_allclose(got, forward(model, X, Mode.INFER).output, rtol=1e-12, atol=0)


class TestPredictProba:
    def test_bitwise_equal_to_infer_forward(self):
        model = with_distinct_biases(build_experiment_model(6, seed=2), 0.05)
        rng = np.random.default_rng(3)
        for n in ROW_COUNTS:
            X = rng.normal(size=(n, 6))
            X_before = X.copy()
            check_predict_proba(model, X, (n,))
            assert np.array_equal(X, X_before)
        assert (predict_proba(model, X[0]).tobytes()
                == forward(model, X[0], Mode.INFER).output.tobytes())

    def test_stacked_bitwise_equal_to_infer_forward(self):
        stack = MlpModel.stack([with_distinct_biases(build_experiment_model(6, seed=s), 0.1 * s)
                                for s in range(3)])
        rng = np.random.default_rng(4)
        for n in ROW_COUNTS:
            for X in (rng.normal(size=(n, 6)), rng.normal(size=(3, n, 6))):
                check_predict_proba(stack, X, (3, n))

    @pytest.mark.parametrize("X", [np.zeros((4, 5)), np.array([[0.0, np.nan, 0, 0, 0, 0]]),
                                   np.array([0.0, 0, 0, np.inf, 0, 0])])
    def test_rejects_what_forward_rejects(self, X):
        model = build_experiment_model(6, seed=1)
        with pytest.raises(ValueError) as expected:
            forward(model, X)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            predict_proba(model, X)

    def test_keeps_no_per_layer_trace(self):
        n = 360_000
        model = build_boundary_model(2, seed=3)
        X = np.random.default_rng(0).normal(size=(n, 2))
        predict_proba(model, X[:10])
        tracemalloc.start()
        try:
            predict_proba(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output and its blocks, plus one block's 8- and 4-wide hidden
        # activations; the 8-wide activation of every row would alone be 23 MB
        assert peak < 2 * (n * 8) + 4 * (INFER_ROWS * 8 * 8)
