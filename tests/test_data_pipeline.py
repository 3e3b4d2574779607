import csv
import itertools
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xmargin import data_pipeline
from xmargin.data_pipeline import (CELL, PARTITION, ConfigError, CvReport, Dataset,
                                   IngestionError, LabelChoiceError, Scaling, apply_scaler,
                                   fit_scaler, load_csv, repeated_cv, stratified_kfold,
                                   stratified_split, stream)

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def toy_dataset(n0=10, n1=10, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n0 + n1, d))
    y = np.array([0] * n0 + [1] * n1)
    order = rng.permutation(len(y))
    return Dataset(features=X[order], labels=y[order],
                   default_class_raw_label="pos")


def reference_load(path, label_column=-1, default_class_raw_label=None, header=False):
    """The parse load_csv must reproduce: every non-blank row of csv.reader
    after a leading byte-order mark, the first dropped as a header, features
    through float."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [r for r in csv.reader(fh) if r][1 if header else 0:]
    label_idx = label_column % len(rows[0])
    raw = [r.pop(label_idx).strip() for r in rows]
    default = max(raw) if default_class_raw_label is None else default_class_raw_label
    features = np.array([[float(c) for c in r] for r in rows], dtype=float)
    return features, np.array([int(r == default) for r in raw]), default, len(set(raw))


def assert_matches_reference(path, **kwargs):
    features, labels, default, n_classes = reference_load(path, **kwargs)
    if n_classes != 2:
        with pytest.raises(LabelChoiceError, match="exactly two classes"):
            load_csv(path, **kwargs)
        return
    data = load_csv(path, **kwargs)
    assert data.features.dtype == np.float64 and data.features.flags.c_contiguous
    assert data.features.shape == features.shape
    assert data.features.tobytes() == features.tobytes()
    assert data.labels.dtype == labels.dtype and data.labels.tobytes() == labels.tobytes()
    assert data.default_class_raw_label == default


def csv_cell(text, quoted):
    if quoted or "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_files(draw):
    """A small two-class CSV as (text, load_csv kwargs)."""
    n, width = draw(st.integers(1, 30)), draw(st.integers(2, 8))
    label_idx = draw(st.sampled_from([0, width // 2, width - 1]))  # first, middle, last
    label_column = draw(st.sampled_from([label_idx, label_idx - width]))
    pair = draw(st.lists(st.sampled_from(["a", "b", "M", "R", "yes", "no", "x,y", 'say "g"']),
                         min_size=2, max_size=2, unique=True))
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      st.integers(-10 ** 6, 10 ** 6).map(str),
                      st.sampled_from(["0", "-0.0", "+1.5", "1e-300", " 2.5 ", "1_000"]))
    pad = st.sampled_from(["", " ", "  "])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    header = draw(st.booleans())
    if header:
        lines.append(",".join(f"col{j}" for j in range(width)))
    for _ in range(n):
        cells = [draw(value) for _ in range(width - 1)]
        cells.insert(label_idx, draw(pad) + draw(st.sampled_from(pair)) + draw(pad))
        lines.append(",".join(csv_cell(c, draw(st.booleans())) for c in cells))
        lines.extend([""] * draw(st.integers(0, 2)))  # blank lines are skipped
    default = draw(st.sampled_from([None, *pair]))
    bom = draw(st.sampled_from(["", "\ufeff"]))  # as Excel's "CSV UTF-8" writes
    return bom + newline.join(lines) + newline, {"label_column": label_column,
                                                 "header": header,
                                                 "default_class_raw_label": default}


# file contents (None: no file), load_csv kwargs, the exception's exact type and
# a fragment of its message ({path} stands for the file); one row per error a
# reader could report, and one per pair of errors whose order it could change
INGEST_ERRORS = {
    "missing_file": (None, {}, IngestionError, "dataset file not found: {path}"),
    "not_utf8": (b"1.0,yes\n2.0,n\xf6\n", {}, IngestionError, "{path}: not UTF-8 text"),
    "not_utf8_in_last_row_after_a_bad_label_column": (
        b"1,a\n2,b\n3,\xff\n", {"label_column": 5}, IngestionError, "{path}: not UTF-8 text"),
    "csv_error_after_a_ragged_row": (
        "1,a\n1,2,b\n" + "9" * 131073 + ",a\n", {}, IngestionError,
        "{path}: field larger than field limit"),
    "header_on_an_empty_file": ("", {"header": True}, IngestionError, "{path}: empty file"),
    "header_only": ("f,cls\n", {"header": True}, IngestionError, "{path}: no data rows"),
    "blank_lines_only": ("\n\r\n\n", {}, IngestionError, "{path}: no data rows"),
    "label_column_outside_the_row": ("1,a\n2,b\n", {"label_column": 2}, LabelChoiceError,
                                     "{path}: label column 2 outside row width 2"),
    "only_a_label_column": ("a\nb\n", {}, IngestionError,
                            "{path}: rows hold only the label column, no features"),
    "ragged_row": ("1.0,2.0,a\n1.0,b\n", {}, IngestionError,
                   "{path}: row 2 has 2 cells, expected 3"),
    "ragged_row_after_a_bad_cell": ("oops,a\n1,b\n1,2,a\n", {}, IngestionError,
                                    "{path}: row 3 has 3 cells, expected 2"),
    "three_classes": ("1,a\n2,b\n3,c\n", {}, LabelChoiceError,
                      "{path}: expected exactly two classes in label column -1, found 3"),
    "features_in_the_label_column": ("0.1,x,a\n0.2,y,b\n0.3,z,a\n", {"label_column": 0},
                                     LabelChoiceError, "exactly two classes in label column 0"),
    "three_classes_after_a_bad_cell_in_row_1": ("oops,a\n2,b\n3,c\n", {}, LabelChoiceError,
                                                "exactly two classes"),
    "wrong_default_label": ("1,a\n2,b\n", {"default_class_raw_label": "z"}, LabelChoiceError,
                            "{path}: default label 'z' not among ['a', 'b']"),
    "wrong_default_label_after_a_bad_cell": ("oops,a\n2,b\n", {"default_class_raw_label": "z"},
                                             LabelChoiceError, "default label 'z'"),
    "unparseable_cell": ("1.0,a\noops,b\n", {}, IngestionError,
                         "{path}: unparseable cell at row 2, column 1: 'oops'"),
    "unparseable_cell_after_a_first_label_column": (
        "a,1,x\nb,2,3\n", {"label_column": 0}, IngestionError, "row 1, column 3: 'x'"),
    "unparseable_cell_after_a_middle_label_column": (
        "1,a,2\n3,b,zz\n", {"label_column": 1}, IngestionError, "row 2, column 3: 'zz'"),
    "first_of_two_unparseable_cells": ("1,x,a\ny,2,b\n", {}, IngestionError,
                                       "row 1, column 2: 'x'"),
    "unparseable_cell_counted_past_header_and_blank_lines": (
        "f,cls\n\n1,a\n\noops,b\n", {"header": True}, IngestionError, "row 2, column 1"),
    "non_finite_feature": ("nan,a\n1,b\n", {}, IngestionError,
                           "{path}: non-finite feature value at row 1, column 1: nan"),
    "overflowing_feature_counted_past_header_and_blank_lines": (
        "f,g,cls\n\n1,2,a\n\n3,1e999,b\n", {"header": True}, IngestionError,
        "{path}: non-finite feature value at row 2, column 2: inf"),
    "non_finite_feature_after_a_first_label_column": (
        "a,1,2\nb,-inf,3\n", {"label_column": 0}, IngestionError,
        "{path}: non-finite feature value at row 2, column 2: -inf"),
    "wrong_default_label_after_a_non_finite_cell": (
        "nan,a\n2,b\n", {"default_class_raw_label": "z"}, LabelChoiceError, "default label 'z'"),
    "unparseable_cell_after_a_non_finite_one": ("nan,a\noops,b\n", {}, IngestionError,
                                               "unparseable cell at row 2, column 1"),
}


def assert_ingest_error(tmp_path, case):
    content, kwargs, exc_type, fragment = INGEST_ERRORS[case]
    path = tmp_path / "toy.csv"
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8", newline="")
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(Exception) as info:
        load_csv(path, **kwargs)
    assert type(info.value) is exc_type
    assert fragment.format(path=path) in str(info.value)


# the earlier single-case tests, by name
NAMED_ERRORS = {"not_utf8", "features_in_the_label_column", "three_classes",
                "unparseable_cell", "ragged_row", "missing_file", "wrong_default_label"}


class TestLoadCsv:
    @pytest.mark.parametrize("case", sorted(set(INGEST_ERRORS) - NAMED_ERRORS))
    def test_error_precedence(self, tmp_path, case):
        assert_ingest_error(tmp_path, case)

    def test_not_utf8_names_the_file(self, tmp_path):
        assert_ingest_error(tmp_path, "not_utf8")

    def test_label_column_checked_before_features_are_parsed(self, tmp_path):
        assert_ingest_error(tmp_path, "features_in_the_label_column")

    def test_three_classes_rejected(self, tmp_path):
        assert_ingest_error(tmp_path, "three_classes")

    def test_unparseable_cell_reports_location(self, tmp_path):
        assert_ingest_error(tmp_path, "unparseable_cell")

    def test_ragged_row_reports_location(self, tmp_path):
        assert_ingest_error(tmp_path, "ragged_row")

    def test_missing_file(self, tmp_path):
        assert_ingest_error(tmp_path, "missing_file")

    def test_wrong_default_label(self, tmp_path):
        assert_ingest_error(tmp_path, "wrong_default_label")

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
        assert data.n == 2 and data.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("text, kwargs", [
        ("-0.5,2,yes\n3.5,-1,no\n0,0.5,yes\n", {}),
        ("yes,-0.5,2\nno,3.5,-1\nyes,0,0.5\n", {"label_column": 0}),
        ("f1,f2,cls\n-0.5,2,yes\n3.5,-1,no\n0,0.5,yes\n", {"header": True}),
    ], ids=["label_last", "label_first", "header"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text, kwargs):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        a, b = load_csv(plain, **kwargs), load_csv(marked, **kwargs)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tolist() == b.labels.tolist() == [1, 0, 1]
        assert a.default_class_raw_label == b.default_class_raw_label == "yes"
        assert_matches_reference(marked, **kwargs)

    @given(csv_files())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_the_reference_parse(self, tmp_path, case):
        text, kwargs = case
        path = tmp_path / "toy.csv"  # rewritten for every example
        path.write_text(text, encoding="utf-8", newline="")
        assert_matches_reference(path, **kwargs)


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

    @pytest.mark.parametrize("name, default", [("sonar_standin.csv", "M"),
                                               ("ionosphere_standin.csv", "g")])
    def test_matches_the_reference_parse(self, name, default):
        assert_matches_reference(os.path.join(DATA_DIR, name), default_class_raw_label=default)

    @pytest.mark.parametrize("name", ["sonar_standin.csv", "ionosphere_standin.csv"])
    def test_peak_memory_is_a_few_feature_matrices(self, name):
        # one pass holds the labels and the feature buffer, not the file's cells
        path = os.path.join(DATA_DIR, name)
        load_csv(path)  # warm: codecs and the csv module's first-call state
        tracemalloc.start()
        try:
            data = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * data.features.nbytes

    def test_regenerates_byte_for_byte(self, tmp_path):
        # the script writes ../data beside itself
        (tmp_path / "scripts").mkdir()
        script = shutil.copy(os.path.join(DATA_DIR, "..", "scripts", "generate_standin_data.py"),
                             tmp_path / "scripts")
        subprocess.run([sys.executable, script], check=True, capture_output=True)
        for name in ("sonar_standin.csv", "ionosphere_standin.csv"):
            with open(os.path.join(DATA_DIR, name), "rb") as shipped:
                assert (tmp_path / "data" / name).read_bytes() == shipped.read(), name


class TestDataset:
    @pytest.mark.parametrize("features,labels,message", [
        (np.array([[0.0, np.inf]]), np.array([0]), "non-finite feature values"),
        (np.zeros((2, 2)), np.array([0, 2]), "labels must be 0 or 1"),
        (np.arange(4.0), np.array([0, 1, 0, 1]), "features must be 2-D"),
        (np.arange(40.0).reshape(20, 2), np.array([0, 1] * 9), "not one per row"),
        (np.zeros((2, 2)), np.array([[0, 1]]), "not one per row"),
    ], ids=["non_finite", "labels_0_1", "features_1d", "too_few_labels", "labels_2d"])
    def test_malformed_dataset_rejected(self, features, labels, message):
        with pytest.raises(IngestionError, match=message):
            Dataset(features, labels, "x")


class TestScaling:
    def test_minmax_unit_interval_on_fit_rows(self):
        data = toy_dataset()
        scaled = apply_scaler(data.features,
                              fit_scaler(data.features, Scaling.MINMAX, np.arange(data.n)))
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        assert np.isclose(scaled.min(axis=0), 0.0).all()
        assert np.isclose(scaled.max(axis=0), 1.0).all()

    def test_zscore_moments_on_fit_rows(self):
        data = toy_dataset(n0=50, n1=50)
        scaled = apply_scaler(data.features,
                              fit_scaler(data.features, Scaling.ZSCORE, np.arange(data.n)))
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-10)

    def test_held_out_rows_may_exceed_unit_interval(self):
        data = toy_dataset(n0=30, n1=30)
        fit_on = np.arange(40)
        scaled = apply_scaler(data.features,
                              fit_scaler(data.features, Scaling.MINMAX, fit_on))
        held = scaled[40:]
        assert held.max() > 1.0 or held.min() < 0.0

    def test_constant_feature_maps_to_zero_minmax(self):
        X = np.column_stack([np.full(6, 3.0), np.arange(6.0)])
        stats = fit_scaler(X, Scaling.MINMAX, np.arange(6))
        out = apply_scaler(X, stats)
        assert (out[:, 0] == 0.0).all()
        assert np.isfinite(out).all()

    def test_constant_feature_finite_zscore(self):
        X = np.column_stack([np.full(6, 3.0), np.arange(6.0)])
        stats = fit_scaler(X, Scaling.ZSCORE, np.arange(6))
        out = apply_scaler(X, stats)
        assert np.isfinite(out).all()

    def test_none_is_identity(self):
        data = toy_dataset()
        scaled = apply_scaler(data.features,
                              fit_scaler(data.features, Scaling.NONE, np.arange(data.n)))
        assert np.array_equal(scaled, data.features)

    @staticmethod
    def constant_columns(method):
        """Two columns constant on the three fitted rows, scaled: held-out
        values below, at and above the constant value, and a column of 0.1s,
        whose mean can differ from 0.1 in its last bits."""
        X = np.column_stack([[3.0, 3.0, 3.0, 2.0, 3.0, 4.0], np.full(6, 0.1), np.arange(6.0)])
        return apply_scaler(X, fit_scaler(X, method, np.arange(3)))[:, :2]

    def test_constant_column_maps_held_out_rows_to_plus_zero_minmax(self):
        out = self.constant_columns(Scaling.MINMAX)
        assert (out == 0.0).all() and not np.signbit(out).any()

    def test_constant_column_maps_held_out_rows_to_plus_zero_zscore(self):
        out = self.constant_columns(Scaling.ZSCORE)
        assert (out == 0.0).all() and not np.signbit(out).any()

    def test_column_whose_std_underflows_maps_to_zero_zscore(self):
        X = np.array([[0.0, 0.0], [1e-200, 1.0], [5e-201, 2.0]])
        stats = fit_scaler(X, Scaling.ZSCORE, np.arange(2))
        assert X[:2, 0].std() == 0.0  # though the column is not constant
        assert (apply_scaler(X, stats)[:, 0] == 0.0).all()

    def test_none_returns_a_new_array_bit_for_bit(self):
        X = np.array([[-0.0, 5e-324], [-1e308, 0.1]])
        out = apply_scaler(X, fit_scaler(X, Scaling.NONE, np.arange(2)))
        assert not np.shares_memory(out, X)
        assert out.dtype == X.dtype and out.tobytes() == X.tobytes()

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            fit_scaler(np.zeros((3, 2)), Scaling.MINMAX, np.array([], dtype=int))


class TestStratifiedKfold:
    def test_balanced_counts(self):
        data = toy_dataset(n0=10, n1=10)
        folds = stratified_kfold(data, k=2, seed=0)
        for fold in range(2):
            mask = folds == fold
            assert mask.sum() == 10
            assert (data.labels[mask] == 1).sum() == 5

    def test_uneven_counts_within_one(self):
        data = toy_dataset(n0=10, n1=11)
        folds = stratified_kfold(data, k=2, seed=3)
        sizes = [int((folds == f).sum()) for f in range(2)]
        assert sorted(sizes) == [10, 11]
        ones = [int((data.labels[folds == f] == 1).sum())
                for f in range(2)]
        assert sorted(ones) == [5, 6]

    def test_k_too_small(self):
        with pytest.raises(ValueError, match="k must be >= 2"):
            stratified_kfold(toy_dataset(), k=1, seed=0)

    def test_class_smaller_than_k(self):
        with pytest.raises(ConfigError, match="^class 0 has 3 members, fewer than k=5$"):
            stratified_kfold(toy_dataset(n0=3, n1=10), k=5, seed=0)

    def test_deterministic_and_seed_sensitive(self):
        data = toy_dataset(n0=20, n1=20)
        a = stratified_kfold(data, k=5, seed=7)
        b = stratified_kfold(data, k=5, seed=7)
        c = stratified_kfold(data, k=5, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @given(st.integers(5, 30), st.integers(5, 30), st.integers(2, 5),
           st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n0, n1, k, seed):
        data = toy_dataset(n0=n0, n1=n1, seed=seed % 97)
        if min(n0, n1) < k:
            return
        folds = stratified_kfold(data, k=k, seed=seed)
        # every instance lands in exactly one fold
        assert ((folds >= 0) & (folds < k)).all()
        for cls in (0, 1):
            counts = np.bincount(folds[data.labels == cls], minlength=k)
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
        with pytest.raises(ConfigError, match="^class 0 too small for test_fraction 0.9$"):
            stratified_split(toy_dataset(n0=2, n1=30), 0.9, seed=0)


class TestCvReport:
    def test_mean_std_worked_example(self):
        rep = CvReport(fold_scores=[[0.8, 0.6]])
        assert rep.repeat_means == [pytest.approx(0.7)]
        assert rep.repeat_stds == [pytest.approx(0.1)]  # population std

    def test_envelopes(self):
        rep = CvReport(fold_scores=[[0.8, 0.6], [0.9, 0.7], [0.5, 0.5]])
        assert rep.mean_envelope == (pytest.approx(0.5), pytest.approx(0.8))
        assert rep.std_envelope == (pytest.approx(0.0), pytest.approx(0.1))


def constant_train_fn(jobs):
    return [lambda Xe: np.full(len(Xe), 0.75) for _ in jobs]


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

        def tfn(jobs):
            ws = [np.random.default_rng(s).normal(size=X.shape[1]) for X, _, s in jobs]
            return [lambda Xe, w=w: 1.0 / (1.0 + np.exp(-(Xe @ w))) for w in ws]

        a = repeated_cv(data, 3, 3, tfn, accuracy_metric, seed=11)
        b = repeated_cv(data, 3, 3, tfn, accuracy_metric, seed=11)
        assert a.fold_scores == b.fold_scores

    def test_repeats_below_one_rejected(self):
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            repeated_cv(toy_dataset(), 2, 0, None, accuracy_metric, seed=0)

    def test_cell_failure_is_annotated(self):
        data = toy_dataset(n0=6, n1=6)

        def bad_fn(jobs):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match=r"repeat 0, fold 0: boom$"):
            repeated_cv(data, 2, 1, bad_fn, accuracy_metric, seed=0)

    def test_each_repeat_draws_its_folds_from_its_own_stream(self):
        # feature 0 is the row index, unscaled, so a cell's training matrix
        # names the rows of its partition
        base = toy_dataset(n0=9, n1=9)
        data = Dataset(features=np.arange(float(base.n))[:, None], labels=base.labels,
                       default_class_raw_label="pos")
        cells = []

        def fn(jobs):
            cells.extend((X[:, 0].astype(int), s) for X, _, s in jobs)
            return [lambda Xe: np.full(len(Xe), 0.75) for _ in cells]

        repeated_cv(data, 3, 3, fn, accuracy_metric, seed=12, scaling=Scaling.NONE)
        assert len(cells) == 9
        for i, (rows, seed) in enumerate(cells):
            r, f = divmod(i, 3)
            folds = stratified_kfold(data, 3, stream(12, PARTITION, r))
            assert np.array_equal(rows, np.flatnonzero(folds != f)), (r, f)
            assert (seed.entropy, seed.spawn_key) == (12, (CELL, r, f))
        # the three repeats draw three partitions
        assert len({tuple(rows) for rows, _ in cells}) == 9

    @pytest.mark.parametrize("read", [0, 1, 4])
    def test_a_job_is_made_only_when_it_is_read(self, monkeypatch, read):
        # a train_fn that reads `read` jobs and raises has had exactly that many
        # cells' training rows scaled, and drawn that many cell streams
        data = toy_dataset(n0=9, n1=9)
        scaled, cell_streams = [], []
        real_apply, real_stream = data_pipeline.apply_scaler, data_pipeline.stream

        def counting_apply(X, stats):
            scaled.append(len(X))
            return real_apply(X, stats)

        def counting_stream(seed, *path):
            if path[0] == CELL:
                cell_streams.append(path)
            return real_stream(seed, *path)

        def train_fn(jobs):
            for _ in itertools.islice(jobs, read):
                pass
            raise RuntimeError("stop")

        monkeypatch.setattr(data_pipeline, "apply_scaler", counting_apply)
        monkeypatch.setattr(data_pipeline, "stream", counting_stream)
        with pytest.raises(RuntimeError, match=r"^CV cell failed at repeat 0, fold 0: stop$"):
            repeated_cv(data, 3, 2, train_fn, accuracy_metric, seed=1)
        assert scaled == [12] * read  # the training rows of a 3-fold cell of 18 rows
        assert cell_streams == [(CELL, r, f) for r in range(2) for f in range(3)][:read]

    def test_scaling_fitted_without_leakage(self):
        # the scaled training matrix handed to train_fn must not depend on
        # values in the held-out fold
        base = toy_dataset(n0=10, n1=10, seed=3)
        seen = {}

        def recording_fn(tag):
            def fn(jobs):
                seen.setdefault(tag, []).extend(X.copy() for X, _, _ in jobs)
                return [lambda Xe: np.full(len(Xe), 0.75) for _ in seen[tag]]
            return fn

        repeated_cv(base, 2, 1, recording_fn("a"), accuracy_metric,
                    seed=4, scaling=Scaling.MINMAX)
        folds = stratified_kfold(base, 2, seed=stream(4, PARTITION, 0))  # repeat 0's folds
        victim = int(np.flatnonzero(folds == 1)[0])
        perturbed_X = base.features.copy()
        perturbed_X[victim] += 1e6
        perturbed = Dataset(features=perturbed_X, labels=base.labels.copy(),
                            default_class_raw_label="pos")
        repeated_cv(perturbed, 2, 1, recording_fn("b"), accuracy_metric,
                    seed=4, scaling=Scaling.MINMAX)
        # the victim is in fold 1, so the second cell, which holds fold 1 out,
        # fits its scaler without the victim and must get the same matrix
        assert np.array_equal(seen["a"][1], seen["b"][1])
        # when the victim is inside the training folds the stats must differ
        assert not np.array_equal(seen["a"][0], seen["b"][0])
