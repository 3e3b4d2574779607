import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmargin.data_pipeline import (CvReport, Dataset, IngestionError, Scaling,
                                   apply_scaler, fit_scaler, load_csv,
                                   repeated_cv, scale_features, stratified_kfold,
                                   stratified_split)

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def toy_dataset(n0=10, n1=10, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n0 + n1, d))
    y = np.array([0] * n0 + [1] * n1)
    order = rng.permutation(len(y))
    return Dataset(features=X[order], labels=y[order],
                   default_class_raw_label="pos")


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1.0,2.0,yes\n3.5,-1.0,no\n0.0,0.5,yes\n")
        data = load_csv(path, default_class_raw_label="yes")
        assert data.n == 3 and data.d == 2
        assert list(data.labels) == [1, 0, 1]
        assert data.features[1, 0] == 3.5

    def test_default_label_defaults_to_lexicographically_last(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1,a\n2,b\n")
        data = load_csv(path)
        assert data.default_class_raw_label == "b"

    def test_label_column_zero(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("yes,1.0,2.0\nno,3.0,4.0\n")
        data = load_csv(path, label_column=0, default_class_raw_label="yes")
        assert data.d == 2 and list(data.labels) == [1, 0]

    def test_header_row(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("f1,f2,cls\n1,2,a\n3,4,b\n")
        data = load_csv(path, header=True)
        assert data.feature_names == ["f1", "f2"]
        assert data.n == 2

    def test_three_classes_rejected(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1,a\n2,b\n3,c\n")
        with pytest.raises(IngestionError, match="exactly two classes"):
            load_csv(path)

    def test_unparseable_cell_reports_location(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1.0,a\noops,b\n")
        with pytest.raises(IngestionError, match="row 2, column 1"):
            load_csv(path)

    def test_ragged_row_reports_location(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1.0,2.0,a\n1.0,b\n")
        with pytest.raises(IngestionError, match="row 2"):
            load_csv(path)

    def test_missing_file(self):
        with pytest.raises(IngestionError, match="not found"):
            load_csv("/nonexistent/x.csv")

    def test_wrong_default_label(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1,a\n2,b\n")
        with pytest.raises(IngestionError, match="default label"):
            load_csv(path, default_class_raw_label="z")


class TestShippedStandins:
    def test_sonar_shape_and_classes(self):
        data = load_csv(os.path.join(DATA_DIR, "sonar_standin.csv"),
                        default_class_raw_label="M")
        assert (data.n, data.d) == (208, 60)
        # class balance of the shipped file (label flips included)
        assert int(data.labels.sum()) == 103

    def test_ionosphere_shape_and_constant_feature(self):
        data = load_csv(os.path.join(DATA_DIR, "ionosphere_standin.csv"),
                        default_class_raw_label="g")
        assert (data.n, data.d) == (351, 34)
        assert int(data.labels.sum()) == 225
        assert np.ptp(data.features[:, 1]) == 0.0


class TestScaling:
    def test_minmax_unit_interval_on_fit_rows(self):
        data = toy_dataset()
        scaled = scale_features(data, Scaling.MINMAX, np.arange(data.n))
        assert scaled.features.min() >= 0.0 and scaled.features.max() <= 1.0
        assert np.isclose(scaled.features.min(axis=0), 0.0).all()
        assert np.isclose(scaled.features.max(axis=0), 1.0).all()

    def test_zscore_moments_on_fit_rows(self):
        data = toy_dataset(n0=50, n1=50)
        scaled = scale_features(data, Scaling.ZSCORE, np.arange(data.n))
        assert np.allclose(scaled.features.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(scaled.features.std(axis=0), 1.0, atol=1e-10)

    def test_held_out_rows_may_exceed_unit_interval(self):
        data = toy_dataset(n0=30, n1=30)
        fit_on = np.arange(40)
        scaled = scale_features(data, Scaling.MINMAX, fit_on)
        held = scaled.features[40:]
        assert held.max() > 1.0 or held.min() < 0.0

    def test_constant_feature_maps_to_zero_minmax(self):
        X = np.column_stack([np.full(6, 3.0), np.arange(6.0)])
        stats = fit_scaler(X, Scaling.MINMAX, np.arange(6))
        out = apply_scaler(X, Scaling.MINMAX, stats)
        assert (out[:, 0] == 0.0).all()
        assert np.isfinite(out).all()

    def test_constant_feature_finite_zscore(self):
        X = np.column_stack([np.full(6, 3.0), np.arange(6.0)])
        stats = fit_scaler(X, Scaling.ZSCORE, np.arange(6))
        out = apply_scaler(X, Scaling.ZSCORE, stats)
        assert np.isfinite(out).all()

    def test_none_is_identity(self):
        data = toy_dataset()
        scaled = scale_features(data, Scaling.NONE, np.arange(data.n))
        assert np.array_equal(scaled.features, data.features)

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            fit_scaler(np.zeros((3, 2)), Scaling.MINMAX, np.array([], dtype=int))


class TestStratifiedKfold:
    def test_balanced_counts(self):
        data = toy_dataset(n0=10, n1=10)
        plan = stratified_kfold(data, k=2, seed=0)
        for fold in range(2):
            mask = plan.assignments == fold
            assert mask.sum() == 10
            assert (data.labels[mask] == 1).sum() == 5

    def test_uneven_counts_within_one(self):
        data = toy_dataset(n0=10, n1=11)
        plan = stratified_kfold(data, k=2, seed=3)
        sizes = [int((plan.assignments == f).sum()) for f in range(2)]
        assert sorted(sizes) == [10, 11]
        ones = [int((data.labels[plan.assignments == f] == 1).sum())
                for f in range(2)]
        assert sorted(ones) == [5, 6]

    def test_k_too_small(self):
        with pytest.raises(ValueError, match="k must be >= 2"):
            stratified_kfold(toy_dataset(), k=1, seed=0)

    def test_class_smaller_than_k(self):
        with pytest.raises(ValueError, match="fewer than k"):
            stratified_kfold(toy_dataset(n0=3, n1=10), k=5, seed=0)

    def test_deterministic_and_seed_sensitive(self):
        data = toy_dataset(n0=20, n1=20)
        a = stratified_kfold(data, k=5, seed=7).assignments
        b = stratified_kfold(data, k=5, seed=7).assignments
        c = stratified_kfold(data, k=5, seed=8).assignments
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @given(st.integers(5, 30), st.integers(5, 30), st.integers(2, 5),
           st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n0, n1, k, seed):
        data = toy_dataset(n0=n0, n1=n1, seed=seed % 97)
        if min(n0, n1) < k:
            return
        plan = stratified_kfold(data, k=k, seed=seed)
        # every instance lands in exactly one fold
        assert ((plan.assignments >= 0) & (plan.assignments < k)).all()
        for cls in (0, 1):
            counts = np.bincount(plan.assignments[data.labels == cls], minlength=k)
            assert counts.max() - counts.min() <= 1


class TestStratifiedSplit:
    def test_proportions(self):
        data = toy_dataset(n0=40, n1=60)
        train_idx, test_idx = stratified_split(data, 0.3, seed=0)
        assert len(set(train_idx) & set(test_idx)) == 0
        assert len(train_idx) + len(test_idx) == 100
        assert (data.labels[test_idx] == 0).sum() == 12
        assert (data.labels[test_idx] == 1).sum() == 18

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            stratified_split(toy_dataset(), 0.0, seed=0)

    def test_class_exhausted(self):
        with pytest.raises(ValueError, match="too small"):
            stratified_split(toy_dataset(n0=2, n1=30), 0.9, seed=0)


class TestCvReport:
    def test_mean_std_worked_example(self):
        rep = CvReport(k=2, repeats=1, seed=0, scaling=Scaling.NONE,
                       fold_scores=[[0.8, 0.6]])
        assert rep.repeat_means == [pytest.approx(0.7)]
        assert rep.repeat_stds == [pytest.approx(0.1)]  # population std

    def test_envelopes(self):
        rep = CvReport(k=2, repeats=3, seed=0, scaling=Scaling.NONE,
                       fold_scores=[[0.8, 0.6], [0.9, 0.7], [0.5, 0.5]])
        assert rep.mean_envelope == (pytest.approx(0.5), pytest.approx(0.8))
        assert rep.std_envelope == (pytest.approx(0.0), pytest.approx(0.1))


def constant_train_fn(Xs, ys, cell_seeds):
    return [lambda Xe: np.full(len(Xe), 0.75) for _ in Xs]


def accuracy_metric(predictor, X, y):
    return float(np.mean((predictor(X) >= 0.5).astype(int) == y))


class TestRepeatedCv:
    def test_shape_of_report(self):
        data = toy_dataset(n0=12, n1=12)
        rep = repeated_cv(data, k=3, repeats=4, train_fn=constant_train_fn,
                          metric_fn=accuracy_metric, seed=5)
        assert len(rep.fold_scores) == 4
        assert all(len(s) == 3 for s in rep.fold_scores)
        # constant predictor: every fold scores its class-1 fraction
        for scores in rep.fold_scores:
            assert all(abs(s - 0.5) <= 0.01 for s in scores)

    def test_deterministic(self):
        data = toy_dataset(n0=12, n1=12)

        def tfn(Xs, ys, cell_seeds):
            ws = [np.random.default_rng(s).normal(size=X.shape[1])
                  for X, s in zip(Xs, cell_seeds)]
            return [lambda Xe, w=w: 1.0 / (1.0 + np.exp(-(Xe @ w))) for w in ws]

        a = repeated_cv(data, 3, 3, tfn, accuracy_metric, seed=11)
        b = repeated_cv(data, 3, 3, tfn, accuracy_metric, seed=11)
        assert a.fold_scores == b.fold_scores

    def test_cell_failure_is_annotated(self):
        data = toy_dataset(n0=6, n1=6)

        def bad_fn(Xs, ys, cell_seeds):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match=r"repeat 0, fold 0"):
            repeated_cv(data, 2, 1, bad_fn, accuracy_metric, seed=0)

    def test_scaling_fitted_without_leakage(self):
        # the scaled training matrix handed to train_fn must not depend on
        # values in the held-out fold
        base = toy_dataset(n0=10, n1=10, seed=3)
        seen = {}

        def recording_fn(tag):
            def fn(Xs, ys, cell_seeds):
                seen.setdefault(tag, []).extend(X.copy() for X in Xs)
                return [lambda Xe: np.full(len(Xe), 0.75) for _ in Xs]
            return fn

        repeated_cv(base, 2, 1, recording_fn("a"), accuracy_metric,
                    seed=4, scaling=Scaling.MINMAX)
        plan = stratified_kfold(base, 2, seed=4 ^ 0)
        victim = int(np.flatnonzero(plan.assignments == 1)[0])
        perturbed_X = base.features.copy()
        perturbed_X[victim] += 1e6
        perturbed = Dataset(features=perturbed_X, labels=base.labels.copy(),
                            default_class_raw_label="pos")
        repeated_cv(perturbed, 2, 1, recording_fn("b"), accuracy_metric,
                    seed=4, scaling=Scaling.MINMAX)
        # fold 0 is trained on fold-!=0 rows minus the victim's influence:
        # cell order is (fold 0 held out? no...) — cells run fold=0 then fold=1;
        # when fold 1 is held out (second cell) the victim is excluded from
        # fitting, so that training matrix must be identical
        assert np.array_equal(seen["a"][1], seen["b"][1])
        # when the victim is inside the training folds the stats must differ
        assert not np.array_equal(seen["a"][0], seen["b"][0])
