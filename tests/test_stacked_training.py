"""Stacked training against one-model-at-a-time training.

`train_one` is the per-model training loop that stacked training replaced:
one model, one minibatch and one optimizer step at a time, drawing its
shuffles and dropout masks from the model's own generator. Stacked training
must reproduce it to rounding, and CV fold scores exactly.
"""

import functools
import math
import os

import numpy as np
import pytest

from xmargin import cli
from xmargin.config import load_config
from xmargin.data_pipeline import Dataset, repeated_cv
from xmargin.loss_core import LossParams, loss_and_grad_vec
from xmargin.network import (Activation, Layer, MlpModel, Mode, backward,
                             build_boundary_model, build_experiment_model, forward,
                             predict_proba)
from xmargin.optimizer import (Method, OptimizerConfig, TrainState, rmsprop_step,
                               subgradient_step, train, train_models)

LOSS = LossParams(2.0, 3.0)
EPOCHS = 6
BATCH = 4
CONFIGS = {
    "rmsprop": OptimizerConfig(alpha=0.01),
    "subgradient": OptimizerConfig(method=Method.SUBGRADIENT, alpha=0.05,
                                   track_best=True),
}


def train_one(model, X, y, loss, config, epochs, batch_size, rng):
    """Per-model oracle; returns (best model, final model, epoch losses)."""
    state = TrainState(model=model, config=config)
    n = X.shape[0]
    history = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            trace = forward(state.model, X[idx], Mode.TRAIN, rng)
            vals, dvals = loss_and_grad_vec(trace.output, y[idx], loss)
            batch_mean = float(np.mean(vals))
            if not math.isfinite(batch_mean):
                raise FloatingPointError(
                    f"non-finite training loss at epoch {epoch}, step {state.t}")
            grads = backward(trace, state.model, dvals / len(idx))
            if config.method is Method.SUBGRADIENT:
                subgradient_step(state, grads, config.alpha)
            else:
                rmsprop_step(state, grads, config)
            state.note_loss(batch_mean)
            epoch_losses.append(batch_mean)
        history.append(float(np.mean(epoch_losses)))
    return state.best_model(), state.model, history


def thirteen_rows():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(13, 5))
    y = np.array([0] * 7 + [1] * 6)
    X[y == 1] += 0.8
    return Dataset(features=X, labels=y, default_class_raw_label="pos")


def unequal_training_sets():
    """k=3 folds over 13 rows: training sets of 8 and 9 rows, so with
    minibatches of 4 some models run a third, one-row minibatch."""
    data = thirteen_rows()
    folds = np.arange(13) % 3
    Xs = [data.features[folds != f] for f in range(3)]
    ys = [data.labels[folds != f] for f in range(3)]
    assert sorted({len(y) for y in ys}) == [8, 9]
    return Xs, ys


def stacked_fn(config, sabotage_seed=None):
    """A repeated_cv train_fn training every cell of a call as one stack;
    the model of `sabotage_seed` gets first-layer weights that overflow."""

    def fn(Xs, ys, seeds):
        models = [build_experiment_model(X.shape[1], s) for X, s in zip(Xs, seeds)]
        for m, s in zip(models, seeds):
            if s == sabotage_seed:
                m.layers[0].weights[...] = 1e308
        results = train_models(models, Xs, ys, LOSS, config, EPOCHS, BATCH,
                               [np.random.default_rng(s) for s in seeds])
        return [r if isinstance(r, Exception) else functools.partial(predict_proba, r.model)
                for r in results]

    return fn


def oracle_fn(config):
    def fn(Xs, ys, seeds):
        return [functools.partial(predict_proba, train_one(
                    build_experiment_model(X.shape[1], s), X, y, LOSS, config,
                    EPOCHS, BATCH, np.random.default_rng(s))[0])
                for X, y, s in zip(Xs, ys, seeds)]

    return fn


def accuracy_metric(predictor, X, y):
    return float(np.mean((predictor(X) >= 0.5).astype(int) == y))


class TestAgainstPerModelTraining:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_parameters_and_losses_agree(self, name):
        config = CONFIGS[name]
        Xs, ys = unequal_training_sets()
        seeds = [11, 12, 13]
        stacked = train_models([build_experiment_model(5, s) for s in seeds], Xs, ys,
                               LOSS, config, EPOCHS, BATCH,
                               [np.random.default_rng(s) for s in seeds])
        for res, X, y, s in zip(stacked, Xs, ys, seeds):
            best, final, history = train_one(build_experiment_model(5, s), X, y, LOSS,
                                             config, EPOCHS, BATCH,
                                             np.random.default_rng(s))
            assert np.max(np.abs(res.model.flat - best.flat)) <= 1e-12
            assert np.max(np.abs(res.final_model.flat - final.flat)) <= 1e-12
            assert np.max(np.abs(np.array([h.train_loss for h in res.history])
                                 - history)) <= 1e-12
        # the best iterate is a real snapshot, not the final model
        assert any(not np.array_equal(r.model.flat, r.final_model.flat) for r in stacked)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_cv_fold_scores_equal(self, name):
        config = CONFIGS[name]
        data = thirteen_rows()
        expected = repeated_cv(data, 3, 2, oracle_fn(config), accuracy_metric, seed=3)
        got = repeated_cv(data, 3, 2, stacked_fn(config), accuracy_metric, seed=3)
        assert got.fold_scores == expected.fold_scores

    def test_single_model_api_is_one_stacked_model(self):
        X, y = unequal_training_sets()
        a = train(build_boundary_model(5, 1), X[0], y[0], LOSS, CONFIGS["rmsprop"],
                  EPOCHS, BATCH, np.random.default_rng(1))
        best, final, history = train_one(build_boundary_model(5, 1), X[0], y[0], LOSS,
                                         CONFIGS["rmsprop"], EPOCHS, BATCH,
                                         np.random.default_rng(1))
        assert np.array_equal(a.model.flat, best.flat)
        assert np.array_equal(a.final_model.flat, final.flat)
        assert [h.train_loss for h in a.history] == history

    def test_accuracies_only_with_evaluation_data(self):
        X, y = unequal_training_sets()
        plain = train(build_boundary_model(5, 1), X[0], y[0], LOSS, CONFIGS["rmsprop"],
                      2, BATCH, np.random.default_rng(1))
        assert all(math.isnan(h.train_acc) and math.isnan(h.eval_acc)
                   for h in plain.history)
        tracked = train(build_boundary_model(5, 1), X[0], y[0], LOSS,
                        CONFIGS["rmsprop"], 2, BATCH, np.random.default_rng(1),
                        eval_X=X[1], eval_y=y[1])
        assert all(0.0 <= h.train_acc <= 1.0 and 0.0 <= h.eval_acc <= 1.0
                   for h in tracked.history)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
class TestFailures:
    def test_failed_model_leaves_the_others_untouched(self):
        Xs, ys = unequal_training_sets()
        seeds = [11, 12, 13]
        models = [build_experiment_model(5, s) for s in seeds]
        models[1].layers[0].weights[...] = 1e308
        Xs[1] = np.abs(Xs[1]) + 1.0
        out = train_models(models, Xs, ys, LOSS, CONFIGS["rmsprop"], EPOCHS, BATCH,
                           [np.random.default_rng(s) for s in seeds])
        assert isinstance(out[1], FloatingPointError)
        assert "non-finite training loss at epoch 1, step 0" in str(out[1])
        for b in (0, 2):
            best, _, _ = train_one(build_experiment_model(5, seeds[b]), Xs[b], ys[b],
                                   LOSS, CONFIGS["rmsprop"], EPOCHS, BATCH,
                                   np.random.default_rng(seeds[b]))
            assert np.max(np.abs(out[b].model.flat - best.flat)) <= 1e-12

    def test_bad_inputs_fail_their_model_only(self):
        Xs, ys = unequal_training_sets()
        Xs[0] = Xs[0].copy()
        Xs[0][0, 0] = np.nan
        Xs[2] = Xs[2][:0]
        out = train_models([build_boundary_model(5, s) for s in range(3)], Xs, ys,
                           LOSS, CONFIGS["rmsprop"], 1, BATCH,
                           [np.random.default_rng(s) for s in range(3)])
        assert "non-finite input" in str(out[0])
        assert "non-empty" in str(out[2])
        assert np.isfinite(out[1].model.flat).all()

    def test_stacked_cell_failure_names_its_cell(self):
        data = thirteen_rows()
        # cell (repeat 1, fold 0) has seed (3 ^ 1) * 1000 + 0
        with pytest.raises(RuntimeError, match=r"^CV cell failed at repeat 1, fold 0: "
                                               r"non-finite training loss"):
            repeated_cv(data, 3, 2, stacked_fn(CONFIGS["rmsprop"], sabotage_seed=2000),
                        accuracy_metric, seed=3)

    def test_first_failed_cell_in_order_is_reported(self):
        data = thirteen_rows()
        failing_training = {2001, 3002}   # cells (1, 1) and (0, 2)
        failing_metric = {3001}           # cell (0, 1)

        def train_fn(Xs, ys, seeds):
            return [ValueError(f"training {s}") if s in failing_training
                    else functools.partial(lambda s, X: np.full(len(X), 0.7), s)
                    for s in seeds]

        def metric(predictor, X, y):
            if predictor.args[0] in failing_metric:
                raise ValueError(f"metric {predictor.args[0]}")
            return accuracy_metric(predictor, X, y)

        with pytest.raises(RuntimeError, match=r"repeat 0, fold 1: metric 3001"):
            repeated_cv(data, 3, 2, train_fn, metric, seed=3)
        failing_metric.clear()
        with pytest.raises(RuntimeError, match=r"repeat 0, fold 2: training 3002"):
            repeated_cv(data, 3, 2, train_fn, metric, seed=3)


class TestStackedNetwork:
    def test_rows_match_single_models(self):
        rng = np.random.default_rng(0)
        models = [build_experiment_model(6, s) for s in range(3)]
        stack = MlpModel.stack(models)
        assert np.shares_memory(stack.layers[2].weights, stack.flat)
        X = rng.normal(size=(3, 5, 6))
        masks = [None if l.dropout_rate == 0.0 else
                 (rng.random((3, 5, l.weights.shape[-2])) < 0.75) / 0.75
                 for l in stack.layers]
        trace = forward(stack, X, Mode.TRAIN, masks=masks)
        seeds = rng.normal(size=(3, 5))
        grads = backward(trace, stack, seeds)
        for b, m in enumerate(models):
            single = forward(m, X[b], Mode.TRAIN,
                             masks=[None if k is None else k[b] for k in masks])
            assert np.max(np.abs(trace.output[b] - single.output)) <= 1e-12
            g = backward(single, m, seeds[b])
            assert np.max(np.abs(grads.flat[b] - g.flat)) <= 1e-12
            assert np.max(np.abs(predict_proba(stack, X[0])[b]
                                 - predict_proba(m, X[0]))) <= 1e-12

    def test_mismatched_architectures_rejected(self):
        with pytest.raises(ValueError, match="one architecture"):
            MlpModel.stack([build_experiment_model(4, 0), build_boundary_model(4, 0)])
        one = MlpModel(layers=[Layer(np.ones((1, 2)), np.zeros(1), Activation.SIGMOID)])
        with pytest.raises(ValueError, match="one architecture"):
            MlpModel.stack([one, build_boundary_model(2, 0)])


def sonar_config(*overrides):
    root = os.path.join(os.path.dirname(__file__), "..")
    return load_config(os.path.join(root, "presets", "sonar_table1.cfg"),
                       [*overrides, f"dataset={os.path.join(root, 'data', 'sonar_standin.csv')}"])


class TestStacksOfTheCli:
    """cli._fit_many splits its models into stacks of at most
    cli.STACK_PARAMS parameters; the split must not change any result."""

    def test_ensemble_larger_than_one_stack_matches_members_alone(self, monkeypatch):
        cfg = sonar_config("epochs=3")
        data = cli._load_dataset(cfg)
        Xtr, ytr, Xte, _, _ = cli._split_and_scale(cfg, data)
        seeds = [cfg.seed + 7919 * (m + 1) for m in range(5)]
        stacks = []

        def recording(models, *args, **kwargs):
            stacks.append(len(models))
            return train_models(models, *args, **kwargs)

        monkeypatch.setattr(cli, "train_models", recording)
        stacked = list(cli._fit_many(build_experiment_model, cfg, [Xtr] * 5, [ytr] * 5,
                                     seeds))
        assert stacks == [3, 2]
        for res, s in zip(stacked, seeds):
            alone = cli._fit(build_experiment_model, cfg, Xtr, ytr, s)
            assert np.max(np.abs(res.model.flat - alone.model.flat)) <= 1e-12
            assert np.max(np.abs(predict_proba(res.model, Xte)
                                 - predict_proba(alone.model, Xte))) <= 1e-12

    def test_cv_fold_scores_do_not_depend_on_stack_size(self, monkeypatch):
        cfg = sonar_config("epochs=2", "k=3", "repeats=2")
        data = cli._load_dataset(cfg)
        scores = []
        for stack_params in (1, 2 * 6657, 6 * 6657):  # stacks of 1, 2 and 6 models
            monkeypatch.setattr(cli, "STACK_PARAMS", stack_params)
            rep = repeated_cv(data, cfg.k, cfg.repeats, cli._train_predictor_fn(cfg),
                              cli._accuracy_metric, cfg.seed, scaling=cfg.scaling)
            scores.append(rep.fold_scores)
        assert scores[0] == scores[1] == scores[2]
