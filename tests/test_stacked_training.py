"""Stacked training against one-model-at-a-time training.

`train_one` is the per-model training loop that stacked training replaced:
one model, one minibatch and one optimizer step at a time, drawing its
shuffles and dropout masks from the model's own generator. Stacked training
must reproduce it to rounding, and CV fold scores exactly.
"""

import functools
import gc
import math
import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from xmargin import cli, data_pipeline, optimizer
from xmargin.config import load_config
from xmargin.data_pipeline import CELL, MEMBER, Dataset, repeated_cv, stream
from xmargin.loss_core import LossParams, loss_and_grad_vec
from xmargin.network import (Activation, Layer, MlpModel, Mode, backward,
                             build_boundary_model, build_experiment_model, dropout_keep,
                             forward, predict_proba)
from xmargin.optimizer import (Method, OptimizerConfig, TrainResult, TrainState,
                               rmsprop_step, subgradient_step, train, train_models)

LOSS = LossParams(2.0, 3.0)
EPOCHS = 6
BATCH = 4
CONFIGS = {
    "rmsprop": OptimizerConfig(alpha=0.01),
    "subgradient": OptimizerConfig(method=Method.SUBGRADIENT, alpha=0.05),
}


def train_one(model, X, y, loss, config, epochs, batch_size, rng):
    """Per-model oracle; returns (best model, final model, epoch losses)."""
    state = TrainState(model=model, config=config)
    grads = np.empty_like(model.flat)
    keep = dropout_keep(model)
    t = 0  # optimizer steps taken
    n = X.shape[0]
    history = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            kept = rng.random((len(idx), keep.size)) < keep
            trace = forward(state.model, X[idx], Mode.TRAIN, kept=kept)
            vals, dvals = loss_and_grad_vec(trace.output, y[idx], loss)
            batch_mean = float(np.mean(vals))
            if not math.isfinite(batch_mean):
                raise FloatingPointError(
                    f"non-finite training loss at epoch {epoch}, step {t}")
            backward(trace, state.model, dvals / len(idx), out=grads)
            state.note_loss(batch_mean)
            if config.method is Method.SUBGRADIENT:
                subgradient_step(state, grads)
            else:
                rmsprop_step(state, grads)
            t += 1
            epoch_losses.append(batch_mean)
        history.append(float(np.mean(epoch_losses)))
    best = state.model.copy()
    best.flat[...] = state.best_params
    return best, state.model, history


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


def stacked_fn(config, sabotage_path=None):
    """A repeated_cv train_fn training every cell of a call as one stack;
    the model whose seed has stream path `sabotage_path` gets first-layer
    weights that overflow."""

    def fn(jobs):
        Xs, ys, seeds = zip(*jobs)  # repeated_cv's jobs can be read once
        models = [build_experiment_model(X.shape[1], s) for X, s in zip(Xs, seeds)]
        for m, s in zip(models, seeds):
            if s.spawn_key == sabotage_path:
                m.layers[0].weights[...] = 1e308
        results = train_models(models, Xs, ys, LOSS, config, EPOCHS, BATCH,
                               [np.random.default_rng(s) for s in seeds])
        return [functools.partial(predict_proba, r.model) for r in results]

    return fn


def oracle_fn(config):
    def fn(jobs):
        return [functools.partial(predict_proba, train_one(
                    build_experiment_model(X.shape[1], s), X, y, LOSS, config,
                    EPOCHS, BATCH, np.random.default_rng(s))[0])
                for X, y, s in jobs]

    return fn


def accuracy_metric(predictor, X, y):
    return float(np.mean((predictor(X) >= 0.5).astype(int) == y))


class TestAgainstPerModelTraining:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_parameters_and_losses_agree(self, name):
        config = CONFIGS[name]
        Xs, ys = unequal_training_sets()
        seeds = [11, 12, 13]
        models = [build_experiment_model(5, s) for s in seeds]
        stacked = train_models(models, Xs, ys, LOSS, config, EPOCHS, BATCH,
                               [np.random.default_rng(s) for s in seeds])
        for res, model, X, y, s in zip(stacked, models, Xs, ys, seeds):
            best, final, history = train_one(build_experiment_model(5, s), X, y, LOSS,
                                             config, EPOCHS, BATCH,
                                             np.random.default_rng(s))
            assert np.max(np.abs(res.model.flat - best.flat)) <= 1e-12
            assert np.max(np.abs(model.flat - final.flat)) <= 1e-12
            assert np.max(np.abs(np.array([h.train_loss for h in res.history])
                                 - history)) <= 1e-12
        # the best iterate is a real snapshot, not the final model
        assert any(not np.array_equal(r.model.flat, m.flat) for r, m in zip(stacked, models))

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_cv_fold_scores_equal(self, name):
        config = CONFIGS[name]
        data = thirteen_rows()
        expected = repeated_cv(data, 3, 2, oracle_fn(config), accuracy_metric, seed=3)
        got = repeated_cv(data, 3, 2, stacked_fn(config), accuracy_metric, seed=3)
        assert got.fold_scores == expected.fold_scores

    def test_single_model_api_is_one_stacked_model(self):
        X, y = unequal_training_sets()
        model = build_boundary_model(5, 1)
        a = train(model, X[0], y[0], LOSS, CONFIGS["rmsprop"],
                  EPOCHS, BATCH, np.random.default_rng(1))
        best, final, history = train_one(build_boundary_model(5, 1), X[0], y[0], LOSS,
                                         CONFIGS["rmsprop"], EPOCHS, BATCH,
                                         np.random.default_rng(1))
        assert np.array_equal(a.model.flat, best.flat)
        assert np.array_equal(model.flat, final.flat)
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


class TestTracedNames:
    """The benchmark's tracer times a training step by rebinding
    `optimizer.forward`, `optimizer.loss_and_grad_vec`, `optimizer.backward`
    and `optimizer.rmsprop_step`, and reads a forward pass's mode from its
    third positional argument first. A step that stops calling one of these
    names leaves the tracer's metrics for it empty."""

    def test_each_step_calls_each_name_once(self, monkeypatch):
        calls = {name: [] for name in ("forward", "loss_and_grad_vec", "backward",
                                       "rmsprop_step")}
        for name, log in calls.items():
            def recording(*args, real=getattr(optimizer, name), log=log, **kwargs):
                log.append(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(optimizer, name, recording)
        Xs, ys = unequal_training_sets()
        out = train_models([build_experiment_model(5, s) for s in (11, 12)], Xs[:2], ys[:2],
                           LOSS, CONFIGS["rmsprop"], 1, BATCH,
                           [np.random.default_rng(s) for s in (11, 12)])
        assert all(type(r) is TrainResult for r in out)
        steps = -(-max(len(y) for y in ys[:2]) // BATCH)
        assert {name: len(log) for name, log in calls.items()} == dict.fromkeys(calls, steps)
        assert all(len(args) > 2 and args[2] is Mode.TRAIN for args in calls["forward"])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
class TestFailures:
    """A stack fails as a whole: the first failure is raised, naming the
    model by its index in the call, and no model takes the failed step."""

    def test_failed_model_keeps_its_parameters(self):
        Xs, ys = unequal_training_sets()
        seeds = [11, 12, 13]
        models = [build_experiment_model(5, s) for s in seeds]
        models[1].layers[0].weights[...] = 1e308
        Xs[1] = np.abs(Xs[1]) + 1.0
        before = [m.flat.copy() for m in models]
        with pytest.raises(FloatingPointError,
                           match=r"^model 1: non-finite training loss at epoch 1, step 0$"):
            train_models(models, Xs, ys, LOSS, CONFIGS["rmsprop"], EPOCHS, BATCH,
                         [np.random.default_rng(s) for s in seeds])
        # the first step failed, so no model took a step
        for m, flat in zip(models, before):
            assert np.array_equal(m.flat, flat)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_non_finite_gradient_fails_the_stack_before_its_step(self, monkeypatch, name):
        Xs, ys = unequal_training_sets()
        seeds = [11, 12, 13]
        before = []

        def poisoned(trace, model, dvals, out=None):
            # model 1's gradient turns NaN at the fourth step; its loss does not
            grads = backward(trace, model, dvals, out=out)
            before.append(model.flat.copy())
            if len(before) == 4:
                out[1, 0] = np.nan
            return grads

        monkeypatch.setattr(optimizer, "backward", poisoned)
        models = [build_experiment_model(5, s) for s in seeds]
        with pytest.raises(ValueError, match=r"^model 1: non-finite gradient; step rejected$"):
            train_models(models, Xs, ys, LOSS, CONFIGS[name], EPOCHS, BATCH,
                         [np.random.default_rng(s) for s in seeds])
        # three steps were taken, and no row of the stack took the fourth
        assert not np.array_equal(before[3], before[0])
        assert np.array_equal(np.stack([m.flat for m in models]), before[3])

    @staticmethod
    def poisoned_run(monkeypatch, poison):
        """Train three models with rmsprop; `poison(out)` edits the stack's
        gradient array at the fourth step."""
        Xs, ys = unequal_training_sets()
        calls = []

        def poisoned(trace, model, dvals, out=None):
            grads = backward(trace, model, dvals, out=out)
            calls.append(None)
            if len(calls) == 4:
                poison(out)
            return grads

        monkeypatch.setattr(optimizer, "backward", poisoned)
        models = [build_experiment_model(5, s) for s in (11, 12, 13)]
        return models, train_models(models, Xs, ys, LOSS, CONFIGS["rmsprop"], EPOCHS,
                                    BATCH, [np.random.default_rng(s) for s in (11, 12, 13)])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_finite_gradients_whose_sum_overflows_fail_no_model(self, monkeypatch):
        def poison(g):
            g[1, 0] = g[1, 1] = 1e308  # so model 1's own sum overflows too

        models, out = self.poisoned_run(monkeypatch, poison)
        assert all(type(o) is TrainResult for o in out)
        assert all(np.isfinite(m.flat).all() for m in models)

    def test_parameters_a_step_overflows_fail_before_the_epoch_is_scored(self, monkeypatch):
        def poisoned(trace, model, dvals, out=None):
            grads = backward(trace, model, dvals, out=out)
            grads[0][0][1, 0, 0] = 1e308  # finite, but not once multiplied by alpha
            return grads

        monkeypatch.setattr(optimizer, "backward", poisoned)
        Xs, ys = unequal_training_sets()
        models = [build_experiment_model(5, s) for s in (11, 12)]
        # one step per epoch; scoring model 1's parameters would read NaN probabilities
        with pytest.raises(FloatingPointError,
                           match=r"^model 1: non-finite parameters after epoch 1$"):
            train_models(models, Xs[:2], ys[:2], LOSS,
                         OptimizerConfig(method=Method.SUBGRADIENT, alpha=10.0), 2,
                         max(len(y) for y in ys), [np.random.default_rng(s) for s in (11, 12)],
                         evals=list(zip(Xs[:2], ys[:2])))
        assert np.isfinite(models[0].flat).all()

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_parameters_a_step_overflows_fail_without_evaluation_data(self, monkeypatch,
                                                                      epochs):
        def poisoned(trace, model, dvals, out=None):
            grads = backward(trace, model, dvals, out=out)
            grads[0][0][1, 0, 0] = 1e308  # finite, but not once multiplied by alpha
            return grads

        monkeypatch.setattr(optimizer, "backward", poisoned)
        Xs, ys = unequal_training_sets()
        models = [build_experiment_model(5, s) for s in (11, 12)]
        # one step per epoch, so the check after the epoch meets the overflow
        # before the next epoch's loss or, after the last, the returned copy
        with pytest.raises(FloatingPointError,
                           match=r"^model 1: non-finite parameters after epoch 1$"):
            train_models(models, Xs[:2], ys[:2], LOSS,
                         OptimizerConfig(method=Method.SUBGRADIENT, alpha=10.0), epochs,
                         max(len(y) for y in ys), [np.random.default_rng(s) for s in (11, 12)])
        assert np.isfinite(models[0].flat).all()

    def test_infinities_in_two_models_name_the_first(self, monkeypatch):
        def poison(g):
            g[0, 0], g[2, 0] = np.inf, -np.inf

        with pytest.raises(ValueError, match=r"^model 0: non-finite gradient"):
            self.poisoned_run(monkeypatch, poison)

    def test_failed_model_leaves_the_others_untouched(self):
        Xs, ys = unequal_training_sets()
        seeds = [11, 12, 13]
        models = [build_experiment_model(5, s) for s in seeds]
        models[1].layers[0].weights[...] = 1e308
        Xs[1] = np.abs(Xs[1]) + 1.0
        with pytest.raises(FloatingPointError, match=r"^model 1: "):
            train_models(models, Xs, ys, LOSS, CONFIGS["rmsprop"], EPOCHS, BATCH,
                         [np.random.default_rng(s) for s in seeds])
        # the others kept their initial parameters, so trained again without
        # model 1 they match models trained alone
        out = train_models([models[0], models[2]], [Xs[0], Xs[2]], [ys[0], ys[2]],
                           LOSS, CONFIGS["rmsprop"], EPOCHS, BATCH,
                           [np.random.default_rng(seeds[b]) for b in (0, 2)])
        for r, b in zip(out, (0, 2)):
            best, _, _ = train_one(build_experiment_model(5, seeds[b]), Xs[b], ys[b],
                                   LOSS, CONFIGS["rmsprop"], EPOCHS, BATCH,
                                   np.random.default_rng(seeds[b]))
            assert np.max(np.abs(r.model.flat - best.flat)) <= 1e-12

    def test_a_stack_whose_models_all_fail_returns_only_errors(self):
        Xs, ys = unequal_training_sets()
        Xs = [X.copy() for X in Xs]
        Xs[0][0, 0] = np.nan
        Xs[1] = np.abs(Xs[1]) + 1.0
        Xs[2] = np.abs(Xs[2]) + 1.0
        models = [build_experiment_model(5, s) for s in range(3)]
        for m in models[1:]:
            m.layers[0].weights[...] = 1e308
        before = [m.flat.copy() for m in models]
        rngs = [np.random.default_rng(s) for s in range(3)]
        # a bad input fails first, before training finds the overflows
        with pytest.raises(ValueError, match=r"^model 0: non-finite input$"):
            train_models(models, Xs, ys, LOSS, CONFIGS["rmsprop"], EPOCHS, BATCH, rngs)
        Xs[0][0, 0] = 0.0
        with pytest.raises(FloatingPointError, match=r"^model 1: non-finite training loss"):
            train_models(models, Xs, ys, LOSS, CONFIGS["rmsprop"], EPOCHS, BATCH, rngs)
        for m, flat in zip(models, before):
            assert np.array_equal(m.flat, flat)

    def test_bad_inputs_fail_their_model_only(self, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained on a bad input")

        monkeypatch.setattr(optimizer, "forward", no_training)
        Xs, ys = unequal_training_sets()
        Xs[2] = Xs[2].copy()
        Xs[2][0, 0] = np.nan
        models = [build_boundary_model(5, s) for s in range(3)]
        before = [m.flat.copy() for m in models]
        rngs = [np.random.default_rng(s) for s in range(3)]
        with pytest.raises(ValueError, match=r"^model 2: non-finite input$"):
            train_models(models, Xs, ys, LOSS, CONFIGS["rmsprop"], 1, BATCH, rngs)
        Xs[1] = Xs[1][:0]
        with pytest.raises(ValueError, match=r"^model 1: training data must be non-empty$"):
            train_models(models, Xs, ys, LOSS, CONFIGS["rmsprop"], 1, BATCH, rngs)
        for m, flat in zip(models, before):
            assert np.array_equal(m.flat, flat)

    def test_stacked_cell_failure_names_its_cell(self):
        data = thirteen_rows()
        # the call trains all six cells as one stack, so the failure is the
        # first cell's; cell (repeat 1, fold 0), stream path (CELL, 1, 0), is
        # model 3 of the stack
        with pytest.raises(RuntimeError, match=r"^CV cell failed at repeat 0, fold 0: "
                                               r"model 3: non-finite training loss"):
            repeated_cv(data, 3, 2, stacked_fn(CONFIGS["rmsprop"], sabotage_path=(CELL, 1, 0)),
                        accuracy_metric, seed=3)

    def test_first_failed_cell_in_order_is_reported(self):
        data = thirteen_rows()
        failing_metric = {(CELL, 0, 1)}  # the stream path of cell (0, 1)

        def train_fn(jobs):
            for _, _, s in jobs:
                if s.spawn_key == (CELL, 0, 2):
                    raise ValueError(f"training {s.spawn_key}")
                yield functools.partial(lambda path, X: np.full(len(X), 0.7), s.spawn_key)

        def metric(predictor, X, y):
            if predictor.args[0] in failing_metric:
                raise ValueError(f"metric {predictor.args[0]}")
            return accuracy_metric(predictor, X, y)

        with pytest.raises(RuntimeError,
                           match=re.escape(f"repeat 0, fold 1: metric {(CELL, 0, 1)}")):
            repeated_cv(data, 3, 2, train_fn, metric, seed=3)
        failing_metric.clear()
        with pytest.raises(RuntimeError,
                           match=re.escape(f"repeat 0, fold 2: training {(CELL, 0, 2)}")):
            repeated_cv(data, 3, 2, train_fn, metric, seed=3)


class TestStreamedCells:
    """repeated_cv scores each cell as its predictor arrives from train_fn."""

    @staticmethod
    def constant(X):
        return np.full(len(X), 0.7)

    def test_cells_are_scored_as_their_predictors_arrive(self):
        data = thirteen_rows()
        events = []

        def train_fn(jobs):
            for _, _, s in jobs:
                events.append(("train", s.spawn_key))
                yield self.constant

        def metric(predictor, X, y):
            events.append(("score",))
            return accuracy_metric(predictor, X, y)

        rep = repeated_cv(data, 3, 1, train_fn, metric, seed=3)
        assert events == [e for f in range(3) for e in (("train", (CELL, 0, f)), ("score",))]
        listed = repeated_cv(data, 3, 1, lambda jobs: [self.constant for _ in jobs],
                             accuracy_metric, seed=3)
        assert rep.fold_scores == listed.fold_scores

    def test_an_iterator_that_raises_fails_the_cell_it_was_due_for(self):
        data = thirteen_rows()

        def train_fn(jobs):
            yield self.constant
            yield self.constant
            raise ValueError("second stack")

        with pytest.raises(RuntimeError, match=r"^CV cell failed at repeat 0, fold 2: second stack"):
            repeated_cv(data, 3, 1, train_fn, accuracy_metric, seed=3)

    def test_too_few_or_too_many_predictors(self):
        data = thirteen_rows()
        with pytest.raises(RuntimeError, match=r"repeat 0, fold 2: train_fn returned 2 predictors "
                                               r"for 3 cells"):
            repeated_cv(data, 3, 1, lambda jobs: [self.constant] * 2,
                        accuracy_metric, seed=3)
        with pytest.raises(RuntimeError, match=r"repeat 0, fold 0: train_fn returned more "
                                               r"predictors than the 3 cells"):
            repeated_cv(data, 3, 1, lambda jobs: [self.constant] * 4,
                        accuracy_metric, seed=3)


class TestStackedNetwork:
    def test_rows_match_single_models(self):
        rng = np.random.default_rng(0)
        models = [build_experiment_model(6, s) for s in range(3)]
        stack = MlpModel.stack(models)
        assert np.shares_memory(stack.layers[2].weights, stack.flat)
        X = rng.normal(size=(3, 5, 6))
        kept = rng.random((3, 5, 112)) < 0.75
        trace = forward(stack, X, Mode.TRAIN, kept=kept)
        seeds = rng.normal(size=(3, 5))
        grads = np.empty_like(stack.flat)
        backward(trace, stack, seeds, out=grads)
        for b, m in enumerate(models):
            single = forward(m, X[b], Mode.TRAIN, kept=kept[b])
            assert np.max(np.abs(trace.output[b] - single.output)) <= 1e-12
            g = np.empty_like(m.flat)
            backward(single, m, seeds[b], out=g)
            assert np.max(np.abs(grads[b] - g)) <= 1e-12
            assert np.max(np.abs(predict_proba(stack, X[0])[b]
                                 - predict_proba(m, X[0]))) <= 1e-12

    def test_mismatched_architectures_rejected(self):
        with pytest.raises(ValueError, match="one architecture"):
            MlpModel.stack([build_experiment_model(4, 0), build_boundary_model(4, 0)])
        one = MlpModel(layers=[Layer(np.ones((1, 2)), np.zeros(1), Activation.SIGMOID)])
        with pytest.raises(ValueError, match="one architecture"):
            MlpModel.stack([one, build_boundary_model(2, 0)])

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_model_rejected_in_any_position(self, position):
        models = [build_boundary_model(4, s) for s in range(3)]
        models[position].flat[5] = np.inf  # written through the buffer, unchecked
        with pytest.raises(ValueError, match="^non-finite parameters$"):
            MlpModel.stack(models)


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
        seeds = [stream(cfg.seed, MEMBER, m) for m in range(5)]  # cmd_bias's members
        stacks = []

        def recording(models, *args, **kwargs):
            stacks.append(len(models))
            return train_models(models, *args, **kwargs)

        monkeypatch.setattr(cli, "train_models", recording)
        monkeypatch.setattr(cli, "STACK_PARAMS", 3 * 6657)
        stacked = list(cli._fit_many(build_experiment_model, cfg,
                                     ((Xtr, ytr, s) for s in seeds)))
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


class TestFullBatch:
    """A batch_size past every training set's rows gives one full batch per
    epoch, whatever its size."""

    def test_huge_batch_size_equals_the_longest_set_in_results_and_memory(self):
        Xs, ys = unequal_training_sets()
        seeds = (11, 12, 13)
        runs = []
        for batch_size in (max(len(y) for y in ys), 10**9):
            models = [build_experiment_model(5, s) for s in seeds]
            tracemalloc.start()
            try:
                out = train_models(models, Xs, ys, LOSS, CONFIGS["rmsprop"], 2, batch_size,
                                   [np.random.default_rng(s) for s in seeds])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            runs.append((out, models, peak))
        (full, full_models, full_peak), (huge, huge_models, huge_peak) = runs
        for a, b in zip(full, huge):
            assert np.array_equal(a.model.flat, b.model.flat)
            assert [h.train_loss for h in a.history] == [h.train_loss for h in b.history]
        for a, b in zip(full_models, huge_models):
            assert np.array_equal(a.flat, b.flat)
        assert abs(huge_peak - full_peak) <= 0.01 * full_peak


# parameters of the sonar experiment model (60 features), and its bytes
SONAR_PARAMS = 6657
SONAR_PARAM_BYTES = SONAR_PARAMS * 8


class TestMemory:
    """What stacked training holds at once."""

    def test_train_models_peak_in_parameter_sized_arrays(self):
        # A stacked RMSprop model holds five arrays shaped like its
        # parameters while it trains: its row of the stack, the
        # accumulators, the best-iterate snapshot, the gradient and one work
        # array. Few rows and small minibatches keep the activations and
        # dropout draws small beside them. Holding a second work array, a
        # new snapshot per improvement or the input models' own buffers puts
        # the peak above the bound (7.6 arrays per model when all were held).
        bound = 6.5
        rng = np.random.default_rng(0)
        Xs = [rng.normal(size=(16, 60)) for _ in range(5)]
        ys = [rng.integers(0, 2, 16) for _ in range(5)]
        models = [build_experiment_model(60, s) for s in range(5)]
        assert models[0].flat.size == SONAR_PARAMS
        tracemalloc.start()
        try:
            out = train_models(models, Xs, ys, LOSS, CONFIGS["rmsprop"], 2, BATCH,
                               [np.random.default_rng(s) for s in range(5)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(isinstance(r, TrainResult) for r in out)
        assert peak / (5 * SONAR_PARAM_BYTES) < bound

    def test_cv_holds_one_stacks_training_matrices(self, monkeypatch):
        cfg = sonar_config("epochs=1", "k=5", "repeats=2")  # ten cells, two stacks
        data = cli._load_dataset(cfg)
        scaled = []
        real_apply = data_pipeline.apply_scaler

        def recording_apply(X, stats):
            out = real_apply(X, stats)
            scaled.append(weakref.ref(out))
            return out

        held = []

        def recording_train(models, *args, **kwargs):
            gc.collect()
            held.append((len(models), sum(r() is not None for r in scaled)))
            return train_models(models, *args, **kwargs)

        monkeypatch.setattr(data_pipeline, "apply_scaler", recording_apply)
        monkeypatch.setattr(cli, "train_models", recording_train)
        repeated_cv(data, cfg.k, cfg.repeats, cli._train_predictor_fn(cfg),
                    cli._accuracy_metric, cfg.seed, scaling=cfg.scaling)
        per_stack = cli.STACK_PARAMS // SONAR_PARAMS
        assert held == [(per_stack, per_stack)] * (10 // per_stack)
