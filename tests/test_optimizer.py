import math

import numpy as np
import pytest

from xmargin.loss_core import LossParams
from xmargin.network import Activation, Layer, MlpModel, build_boundary_model, predict_proba
from xmargin.optimizer import (DECAY, EPSILON, Method, OptimizerConfig, TrainState,
                               rmsprop_step, subgradient_step, train, train_models,
                               verify_subgradient)


def one_param_model(w0=0.0, b0=0.0):
    return MlpModel(layers=[Layer(np.array([[w0]]), np.array([b0]),
                                  Activation.SIGMOID)])


def grads_like(model, fill):
    return np.full_like(model.flat, fill)


def state_of(model, **config):
    return TrainState(model=model, config=OptimizerConfig(**config))


class TestConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.method is Method.RMSPROP and cfg.alpha == 0.001
        assert (DECAY, EPSILON) == (0.9, 1e-8)

    def test_null_step_allowed_negative_rejected(self):
        OptimizerConfig(alpha=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(alpha=-0.1)

    # every invalid value left to OptimizerConfig is a bad alpha; the nan
    # case keeps its place as the fourth entry of the table
    @pytest.mark.parametrize("bad", [{"alpha": float("inf")},
                                     {"alpha": -float("inf")},
                                     {"alpha": -1e-300},
                                     {"alpha": float("nan")}])
    def test_invalid_fields(self, bad):
        with pytest.raises(ValueError):
            OptimizerConfig(**bad)


class TestSubgradientStep:
    # a one-parameter model's flat layout is [weight, bias]
    def test_linear_update(self):
        model = one_param_model(1.0, 2.0)
        state = state_of(model, alpha=0.1)
        subgradient_step(state, np.array([10.0, -10.0]))
        assert model.layers[0].weights[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert model.layers[0].biases[0] == pytest.approx(3.0, abs=1e-15)

    def test_zero_gradient_no_motion(self):
        model = one_param_model(0.5, -0.5)
        subgradient_step(state_of(model, alpha=5.0), grads_like(model, 0.0))
        assert model.layers[0].weights[0, 0] == 0.5
        assert model.layers[0].biases[0] == -0.5


class TestRmspropStep:
    def test_first_step_magnitude(self):
        # v = 0.1 g^2, step = alpha*g/(sqrt(v)+eps) ~ alpha/sqrt(0.1)
        model = one_param_model(0.0, 0.0)
        rmsprop_step(state_of(model, alpha=0.01), np.array([2.0, 0.0]))
        g = 2.0
        expected = 0.01 * g / (math.sqrt(0.1 * g * g) + 1e-8)
        assert model.layers[0].weights[0, 0] == pytest.approx(-expected, rel=1e-9)
        assert model.layers[0].biases[0] == 0.0

    def test_zero_gradient_unchanged(self):
        model = one_param_model(0.7, 0.0)
        rmsprop_step(state_of(model, alpha=0.5), grads_like(model, 0.0))
        assert model.layers[0].weights[0, 0] == 0.7

    def test_step_size_saturates_near_alpha(self):
        # constant gradient: v -> g^2, so |step| -> alpha
        model = one_param_model(0.0, 0.0)
        state = state_of(model, alpha=0.1)
        for _ in range(200):
            rmsprop_step(state, np.array([3.0, 0.0]))
        last = model.layers[0].weights[0, 0]
        rmsprop_step(state, np.array([3.0, 0.0]))
        step = abs(model.layers[0].weights[0, 0] - last)
        assert step == pytest.approx(state.config.alpha, rel=1e-3)

    def test_accumulator_per_parameter(self):
        model = one_param_model(0.0, 0.0)
        rmsprop_step(state_of(model, alpha=0.1), np.array([1.0, 100.0]))
        # both see the same normalized first step despite scale difference
        assert abs(model.layers[0].weights[0, 0]) == pytest.approx(
            abs(model.layers[0].biases[0]), rel=1e-6)


class TestVerifySubgradient:
    def test_linear_function_passes(self):
        f = lambda th: float(3.0 * th[0] + 1.0)
        ok, worst = verify_subgradient(f, [0.5], [3.0],
                                       [[x] for x in np.linspace(-2, 2, 41)])
        assert ok and worst >= -1e-12

    def test_abs_kink_zero_subgradient_passes(self):
        f = lambda th: float(abs(th[0]))
        ok, _ = verify_subgradient(f, [0.0], [0.0],
                                   [[x] for x in np.linspace(-1, 1, 21)])
        assert ok

    def test_planted_counterexample_fails(self):
        # g = 2 is not a subgradient of |x| at 0
        f = lambda th: float(abs(th[0]))
        ok, worst = verify_subgradient(f, [0.0], [2.0],
                                       [[x] for x in np.linspace(-1, 1, 21)])
        assert not ok and worst < -1e-3

    def test_empty_probes_rejected(self):
        with pytest.raises(ValueError):
            verify_subgradient(lambda th: 0.0, [0.0], [0.0], [])

    @pytest.mark.parametrize("f,message", [
        (lambda th: math.inf if th[0] == 0.0 else 0.0, r"f\(theta0\) is non-finite"),
        (lambda th: math.nan if th[0] == 1.0 else 0.0, "non-finite probe evaluation"),
    ], ids=["at_theta0", "at_a_probe"])
    def test_non_finite_evaluation_rejected(self, f, message):
        with pytest.raises(ValueError, match=message):
            verify_subgradient(f, [0.0], [0.0], [[-1.0], [1.0]])


class TestTrainLoop:
    @staticmethod
    def toy_data():
        X = np.random.default_rng(0).normal(size=(12, 3))
        y = (X[:, 0] > 0).astype(int)
        return X, y

    def test_rejects_bad_arguments(self):
        model = build_boundary_model(3, seed=0)
        X, y = self.toy_data()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            train(model, X[:0], y[:0], LossParams(), OptimizerConfig(),
                  epochs=1, batch_size=4, rng=rng)
        with pytest.raises(ValueError):
            train(model, X, y, LossParams(), OptimizerConfig(),
                  epochs=0, batch_size=4, rng=rng)
        with pytest.raises(ValueError):
            train(model, X, y, LossParams(), OptimizerConfig(),
                  epochs=1, batch_size=0, rng=rng)

    def test_no_models_rejected(self):
        with pytest.raises(ValueError, match="at least one model"):
            train_models([], [], [], LossParams(), OptimizerConfig(), 1, 4, [])

    def test_one_training_set_and_generator_per_model(self):
        X, y = self.toy_data()
        with pytest.raises(ValueError, match="one training set and one generator per model"):
            train_models([build_boundary_model(3, seed=0)], [X, X], [y], LossParams(),
                         OptimizerConfig(), 1, 4, [np.random.default_rng(0)])

    def test_labels_outside_0_1_rejected_before_training(self):
        model = build_boundary_model(3, seed=0)
        before = model.flat.copy()
        X, _ = self.toy_data()
        with pytest.raises(ValueError, match=r"^model 0: training labels must be 0 or 1$"):
            train(model, X, np.array([0, 2] * 6), LossParams(), OptimizerConfig(),
                  epochs=1, batch_size=4, rng=np.random.default_rng(0))
        assert np.array_equal(model.flat, before)

    @pytest.mark.parametrize("rows,cols,labels,message", [
        (slice(0), slice(None), slice(0), "eval data must be non-empty"),
        (slice(None), slice(2), slice(None), "input dim 2 != model input dim 3"),
        (slice(None), slice(None), slice(-1), "eval labels do not match eval rows"),
        (slice(None), slice(None), None, "eval labels must be 0 or 1"),
    ], ids=["empty", "input_dim", "label_count", "labels_0_1"])
    def test_bad_eval_set_rejected_before_training(self, rows, cols, labels, message):
        model = build_boundary_model(3, seed=0)
        before = model.flat.copy()
        X, y = self.toy_data()
        eval_y = 2 * y if labels is None else y[labels]
        with pytest.raises(ValueError, match=f"^model 0: {message}$"):
            train(model, X, y, LossParams(), OptimizerConfig(), epochs=1, batch_size=4,
                  rng=np.random.default_rng(0), eval_X=X[rows, cols], eval_y=eval_y)
        assert np.array_equal(model.flat, before)

    def test_one_eval_set_per_model(self):
        X, y = self.toy_data()
        with pytest.raises(ValueError, match="one eval set per model"):
            train_models([build_boundary_model(3, seed=0)], [X], [y], LossParams(),
                         OptimizerConfig(), 1, 4, [np.random.default_rng(0)], [])

    def test_history_length_and_fields(self):
        model = build_boundary_model(3, seed=0)
        X, y = self.toy_data()
        res = train(model, X, y, LossParams(), OptimizerConfig(),
                    epochs=5, batch_size=4, rng=np.random.default_rng(1),
                    eval_X=X, eval_y=y)
        assert [h.epoch for h in res.history] == [1, 2, 3, 4, 5]
        for h in res.history:
            assert math.isfinite(h.train_loss)
            assert 0.0 <= h.train_acc <= 1.0
            assert 0.0 <= h.eval_acc <= 1.0

    def test_eval_absent_gives_nan(self):
        model = build_boundary_model(3, seed=0)
        X, y = self.toy_data()
        res = train(model, X, y, LossParams(), OptimizerConfig(),
                    epochs=1, batch_size=4, rng=np.random.default_rng(1))
        assert math.isnan(res.history[0].eval_acc)

    def test_null_step_leaves_parameters_fixed(self):
        model = build_boundary_model(3, seed=0)
        before = [p.copy() for p in model.parameters()]
        X, y = self.toy_data()
        res = train(model, X, y, LossParams(),
                    OptimizerConfig(method=Method.SUBGRADIENT, alpha=0.0),
                    epochs=3, batch_size=4, rng=np.random.default_rng(1))
        for a, b in zip(model.parameters(), before):
            assert np.array_equal(a, b)

    def test_deterministic_given_seed(self):
        X, y = self.toy_data()

        def run():
            model = build_boundary_model(3, seed=0)
            return model, train(model, X, y, LossParams(), OptimizerConfig(),
                                epochs=4, batch_size=4,
                                rng=np.random.default_rng(99))

        (model_a, a), (model_b, b) = run(), run()
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            assert np.array_equal(pa, pb)
        assert [h.train_loss for h in a.history] == [h.train_loss for h in b.history]

    def test_best_model_is_the_scored_minimum(self):
        # one full batch per epoch and no dropout: each epoch's loss is the
        # loss of the parameters it started from, so the returned model
        # scores the lowest of them, and one step returns the start
        from xmargin.loss_core import loss_and_grad_vec
        X, y = self.toy_data()
        cfg = OptimizerConfig(method=Method.SUBGRADIENT, alpha=0.5)
        res = train(build_boundary_model(3, seed=0), X, y, LossParams(), cfg,
                    epochs=30, batch_size=12, rng=np.random.default_rng(2))
        best = float(np.mean(loss_and_grad_vec(
            predict_proba(res.model, X), y, LossParams())[0]))
        assert best == pytest.approx(min(h.train_loss for h in res.history),
                                     rel=1e-12, abs=0)
        start = build_boundary_model(3, seed=0)
        one = train(build_boundary_model(3, seed=0), X, y, LossParams(), cfg,
                    epochs=1, batch_size=12, rng=np.random.default_rng(2))
        assert np.array_equal(one.model.flat, start.flat)

    def test_learns_separable_toy(self):
        rng = np.random.default_rng(10)
        X = np.vstack([rng.normal(-2.0, 0.5, size=(30, 2)),
                       rng.normal(2.0, 0.5, size=(30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        model = build_boundary_model(2, seed=1)
        res = train(model, X, y, LossParams(), OptimizerConfig(alpha=0.01),
                    epochs=40, batch_size=16, rng=np.random.default_rng(3))
        acc = float(np.mean((predict_proba(res.model, X) >= 0.5) == y))
        assert acc >= 0.95


class TestFlatUpdate:
    @staticmethod
    def real_gradients(model):
        from xmargin.loss_core import loss_and_grad_vec
        from xmargin.network import Mode, backward, dropout_keep, forward
        rng = np.random.default_rng(4)
        X = rng.normal(size=(16, model.input_dim))
        y = rng.integers(0, 2, 16)
        keep = dropout_keep(model)
        trace = forward(model, X, Mode.TRAIN, kept=rng.random((16, keep.size)) < keep)
        _, dvals = loss_and_grad_vec(trace.output, y, LossParams(2.0, 3.0))
        g = np.empty_like(model.flat)
        backward(trace, model, dvals / 16, out=g)
        return g

    def test_rmsprop_matches_per_array_reference(self):
        from xmargin.network import build_experiment_model
        cfg = OptimizerConfig(alpha=0.01)
        model = build_experiment_model(7, seed=5)
        state = TrainState(model=model, config=cfg)
        ref_params = [p.copy() for p in model.parameters()]
        ref_acc = [np.zeros_like(p) for p in ref_params]
        for _ in range(3):
            grads = self.real_gradients(model)
            flat_g = [g.copy() for pair in model.views(grads) for g in pair]
            rmsprop_step(state, grads)
            for p, g, v in zip(ref_params, flat_g, ref_acc):
                v *= DECAY
                v += (1.0 - DECAY) * g * g
                p -= cfg.alpha * g / (np.sqrt(v) + EPSILON)
            for p, ref in zip(model.parameters(), ref_params):
                assert np.array_equal(p, ref)
        acc = np.concatenate([v.ravel() for v in ref_acc])
        assert np.array_equal(state.accumulators, acc)

    def test_best_model_holds_the_best_iterate_apart_from_the_model(self):
        model = one_param_model(0.3, 0.1)
        state = TrainState(model=model, config=OptimizerConfig())
        state.note_loss(1.0)
        model.flat += 1.0
        state.note_loss(0.5)   # the best iterate: [1.3, 1.1]
        model.flat += 1.0
        state.note_loss(0.7)   # worse, so not taken
        assert np.array_equal(state.best_params, [1.3, 1.1])
        model.flat += 1.0
        rmsprop_step(state, grads_like(model, 0.5))
        assert np.array_equal(state.best_params, [1.3, 1.1])
        assert not np.shares_memory(state.best_params, model.flat)

    def test_stacked_snapshot_takes_only_the_rows_that_improved(self):
        stack = MlpModel.stack([one_param_model(0.3, 0.1), one_param_model(-0.3, -0.1)])
        state = TrainState(model=stack, config=OptimizerConfig())
        state.note_loss(np.array([1.0, 1.0]))
        stack.flat += 1.0
        state.note_loss(np.array([0.5, 2.0]))
        stack.flat += 1.0
        state.note_loss(np.array([0.7, 0.9]))
        assert np.allclose(state.best_params, [[1.3, 1.1], [1.7, 1.9]], rtol=0, atol=1e-15)
        assert not np.shares_memory(state.best_params, stack.flat)

    @pytest.mark.parametrize("method", [Method.RMSPROP, Method.SUBGRADIENT])
    def test_trained_best_model_never_aliases_the_final_model(self, method):
        X, y = TestTrainLoop.toy_data()
        cfg = OptimizerConfig(method=method, alpha=0.05)
        model = build_boundary_model(3, seed=1)
        res = train(model, X, y, LossParams(), cfg,
                    epochs=4, batch_size=4, rng=np.random.default_rng(1))
        assert not np.shares_memory(res.model.flat, model.flat)
        best = res.model.flat.copy()
        state = TrainState(model=model, config=cfg)
        rmsprop_step(state, grads_like(model, 0.5))
        assert np.array_equal(res.model.flat, best)
