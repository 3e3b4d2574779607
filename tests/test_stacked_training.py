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
import tracemalloc
import weakref

import numpy as np
import pytest

from xmargin import cli, data_pipeline, optimizer
from xmargin.config import load_config
from xmargin.data_pipeline import Dataset, repeated_cv
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
            grads = backward(trace, state.model, dvals / len(idx))
            state.note_loss(batch_mean)
            if config.method is Method.SUBGRADIENT:
                subgradient_step(state, grads.flat)
            else:
                rmsprop_step(state, grads.flat)
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


def stacked_fn(config, sabotage_seed=None):
    """A repeated_cv train_fn training every cell of a call as one stack;
    the model of `sabotage_seed` gets first-layer weights that overflow."""

    def fn(Xs, ys, seeds):
        Xs = list(Xs)  # read twice below; repeated_cv's train_Xs can be read once
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

    def test_failed_model_keeps_its_parameters(self):
        Xs, ys = unequal_training_sets()
        seeds = [11, 12, 13]
        models = [build_experiment_model(5, s) for s in seeds]
        models[1].layers[0].weights[...] = 1e308
        Xs[1] = np.abs(Xs[1]) + 1.0
        before = models[1].flat.copy()
        out = train_models(models, Xs, ys, LOSS, CONFIGS["rmsprop"], EPOCHS, BATCH,
                           [np.random.default_rng(s) for s in seeds])
        assert isinstance(out[1], FloatingPointError)
        assert np.array_equal(models[1].flat, before)
        for b in (0, 2):
            assert not np.shares_memory(models[1].flat, models[b].flat)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_non_finite_gradient_fails_its_model_only(self, monkeypatch, name):
        Xs, ys = unequal_training_sets()
        seeds = [11, 12, 13]

        def run():
            models = [build_experiment_model(5, s) for s in seeds]
            return models, train_models(models, Xs, ys, LOSS, CONFIGS[name], EPOCHS,
                                        BATCH, [np.random.default_rng(s) for s in seeds])

        clean_models, clean = run()
        before = []

        def poisoned(trace, model, dvals, out=None):
            # model 1's gradient turns NaN at the fourth step; its loss does not
            grads = backward(trace, model, dvals, out=out)
            before.append(model.flat[1].copy())
            if len(before) == 4:
                grads.flat[1, 0] = np.nan
            return grads

        monkeypatch.setattr(optimizer, "backward", poisoned)
        models, out = run()
        assert type(out[1]) is ValueError
        assert str(out[1]) == "non-finite gradient; step rejected"
        assert np.array_equal(models[1].flat, before[3])
        for b in (0, 2):
            assert np.array_equal(out[b].model.flat, clean[b].model.flat)
            assert np.array_equal(models[b].flat, clean_models[b].flat)
            assert ([h.train_loss for h in out[b].history]
                    == [h.train_loss for h in clean[b].history])

    @staticmethod
    def poisoned_run(monkeypatch, poison):
        """Train three models with rmsprop; `poison(grads.flat)` edits the
        stack's gradient at the fourth step."""
        Xs, ys = unequal_training_sets()
        calls = []

        def poisoned(trace, model, dvals, out=None):
            grads = backward(trace, model, dvals, out=out)
            calls.append(None)
            if len(calls) == 4:
                poison(grads.flat)
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

    def test_infinities_of_both_signs_fail_exactly_their_models(self, monkeypatch):
        def poison(g):
            g[0, 0], g[2, 0] = np.inf, -np.inf

        _, out = self.poisoned_run(monkeypatch, poison)
        for b in (0, 2):
            assert type(out[b]) is ValueError
            assert str(out[b]) == "non-finite gradient; step rejected"
        assert type(out[1]) is TrainResult

    def test_a_stack_whose_models_all_fail_returns_only_errors(self):
        Xs, ys = unequal_training_sets()
        Xs = [X.copy() for X in Xs]
        Xs[0][0, 0] = np.nan
        Xs[1] = np.abs(Xs[1]) + 1.0
        Xs[2] = np.abs(Xs[2]) + 1.0
        models = [build_experiment_model(5, s) for s in range(3)]
        for m in models[1:]:
            m.layers[0].weights[...] = 1e308
        out = train_models(models, Xs, ys, LOSS, CONFIGS["rmsprop"], EPOCHS, BATCH,
                           [np.random.default_rng(s) for s in range(3)])
        assert "non-finite input" in str(out[0])
        assert all(isinstance(o, FloatingPointError) for o in out[1:])

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


class TestStreamedCells:
    """repeated_cv scores each cell as its predictor arrives from train_fn."""

    @staticmethod
    def constant(X):
        return np.full(len(X), 0.7)

    def test_cells_are_scored_as_their_predictors_arrive(self):
        data = thirteen_rows()
        events = []

        def train_fn(Xs, ys, seeds):
            for s in seeds:
                events.append(("train", s))
                yield self.constant

        def metric(predictor, X, y):
            events.append(("score",))
            return accuracy_metric(predictor, X, y)

        rep = repeated_cv(data, 3, 1, train_fn, metric, seed=3)
        assert events == [e for s in (3000, 3001, 3002) for e in (("train", s), ("score",))]
        listed = repeated_cv(data, 3, 1, lambda Xs, ys, seeds: [self.constant] * len(seeds),
                             accuracy_metric, seed=3)
        assert rep.fold_scores == listed.fold_scores

    def test_an_iterator_that_raises_fails_the_cell_it_was_due_for(self):
        data = thirteen_rows()

        def train_fn(Xs, ys, seeds):
            yield self.constant
            yield self.constant
            raise ValueError("second stack")

        with pytest.raises(RuntimeError, match=r"^CV cell failed at repeat 0, fold 2: second stack"):
            repeated_cv(data, 3, 1, train_fn, accuracy_metric, seed=3)

    def test_too_few_or_too_many_predictors(self):
        data = thirteen_rows()
        with pytest.raises(RuntimeError, match=r"repeat 0, fold 2: train_fn returned 2 predictors "
                                               r"for 3 cells"):
            repeated_cv(data, 3, 1, lambda Xs, ys, seeds: [self.constant] * 2,
                        accuracy_metric, seed=3)
        with pytest.raises(RuntimeError, match=r"repeat 0, fold 0: train_fn returned more "
                                               r"predictors than the 3 cells"):
            repeated_cv(data, 3, 1, lambda Xs, ys, seeds: [self.constant] * 4,
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
        grads = backward(trace, stack, seeds)
        for b, m in enumerate(models):
            single = forward(m, X[b], Mode.TRAIN, kept=kept[b])
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
        monkeypatch.setattr(cli, "STACK_PARAMS", 3 * 6657)
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

        def recording_apply(X, method, stats):
            out = real_apply(X, method, stats)
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
