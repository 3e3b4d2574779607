"""Dataset ingestion, scaling, stratified splitting, and repeated CV.

CSV files hold one instance per row with numeric features and a two-valued
label column; the configured "default" raw label maps to class 1. A scaling
transform is always fitted on a caller-chosen subset (the training rows)
so cross-validation stays leakage-free.
"""

from __future__ import annotations

import array
import csv
import enum
import itertools
import os
from dataclasses import dataclass, field

import numpy as np


class Scaling(enum.Enum):
    NONE = "none"
    MINMAX = "minmax"
    ZSCORE = "zscore"


class ConfigError(ValueError):
    """A setting that is malformed or does not fit the data (exit 1), raised where found."""


class IngestionError(ValueError):
    pass


class LabelChoiceError(IngestionError, ConfigError):
    """A label column or default label that does not fit the file: exit 1, not 2."""


@dataclass
class Dataset:
    features: np.ndarray           # (n, d) floats
    labels: np.ndarray             # (n,) ints in {0, 1}
    default_class_raw_label: str

    def __post_init__(self):
        if np.ndim(self.features) != 2:
            raise IngestionError(f"features must be 2-D, got shape {np.shape(self.features)}")
        if np.shape(self.labels) != (len(self.features),):
            raise IngestionError(f"labels of shape {np.shape(self.labels)} for "
                                 f"{len(self.features)} feature rows, not one per row")
        if not np.isfinite(self.features).all():
            raise IngestionError("non-finite feature values")
        if not np.isin(self.labels, (0, 1)).all():
            raise IngestionError("labels must be 0 or 1")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def load_csv(path, label_column: int = -1, default_class_raw_label: str | None = None,
             header: bool = False) -> Dataset:
    """Parse a two-class UTF-8 CSV, a leading byte-order mark skipped, into a
    Dataset: a read-through, then one pass.

    The pass holds only each row's stripped raw label and one float64 buffer
    of feature values, which becomes the (n, d) feature matrix uncopied. The
    raw label equal to ``default_class_raw_label`` becomes class 1, the other
    class 0. A bad feature cell is reported, by row and column, after all else.
    """
    if not os.path.exists(path):
        raise IngestionError(f"dataset file not found: {path}")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            for _ in csv.reader(fh):  # so that a UTF-8 or csv error anywhere comes first
                pass
        except UnicodeDecodeError as exc:
            raise IngestionError(f"{path}: not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise IngestionError(f"{path}: {exc}") from None
        fh.seek(0)
        rows = filter(None, csv.reader(fh))
        if header and next(rows, None) is None:
            raise IngestionError(f"{path}: empty file")
        first = next(rows, None)
        if first is None:
            raise IngestionError(f"{path}: no data rows")
        width = len(first)
        label_idx = label_column if label_column >= 0 else width + label_column
        if not (0 <= label_idx < width):
            raise LabelChoiceError(f"{path}: label column {label_column} outside row width {width}")
        if width == 1:
            raise IngestionError(f"{path}: rows hold only the label column, no features")

        def where(flat):  # the file's row and column of a flat feature index
            i, j = divmod(flat, width - 1)
            return f"row {i + 1}, column {j + 1 + (j >= label_idx)}"

        raw_labels, values, bad_cell = [], array.array("d"), None
        for i, row in enumerate(itertools.chain([first], rows), 1):
            if len(row) != width:
                raise IngestionError(f"{path}: row {i} has {len(row)} cells, expected {width}")
            raw_labels.append(row.pop(label_idx).strip())
            if bad_cell is None:
                try:
                    values.extend(map(float, row))
                except ValueError:  # extend kept the cells before the bad one
                    bad_cell = f"{where(len(values))}: {row[len(values) % (width - 1)]!r}"

    # labels come first, so a column of features is reported as the wrong label column
    classes = sorted(set(raw_labels))
    if len(classes) != 2:
        shown = ", ".join(map(repr, classes[:5])) + (", ..." if len(classes) > 5 else "")
        raise LabelChoiceError(f"{path}: expected exactly two classes in label column "
                               f"{label_column}, found {len(classes)}: {shown}")
    if default_class_raw_label is None:
        default_class_raw_label = classes[-1]
    if default_class_raw_label not in classes:
        raise LabelChoiceError(
            f"{path}: default label {default_class_raw_label!r} not among {classes}")
    if bad_cell is not None:
        raise IngestionError(f"{path}: unparseable cell at {bad_cell}")

    features = np.frombuffer(values).reshape(-1, width - 1)
    bad = np.flatnonzero(~np.isfinite(features))
    if bad.size:
        raise IngestionError(f"{path}: non-finite feature value at {where(bad[0])}: "
                             f"{float(features.flat[bad[0]])!r}")
    labels = np.array([1 if r == default_class_raw_label else 0 for r in raw_labels])
    return Dataset(features=features, labels=labels,
                   default_class_raw_label=default_class_raw_label)


def fit_scaler(features: np.ndarray, method: Scaling, fit_on) -> tuple:
    """Fit `method` on the given row subset only, as the transform that
    `apply_scaler` applies: (shift, scale, constant). A column that is
    constant on the rows, or whose standard deviation underflows to 0, is
    marked `constant`, so every value of it maps to 0."""
    fit_rows = features[fit_on]
    if fit_rows.shape[0] == 0:
        raise ValueError("fit_on must be non-empty")
    if method is Scaling.NONE:
        return 0.0, 1.0, False
    low = fit_rows.min(axis=0)
    span = fit_rows.max(axis=0) - low
    shift, scale = ((low, span) if method is Scaling.MINMAX
                    else (fit_rows.mean(axis=0), fit_rows.std(axis=0)))
    constant = (span == 0.0) | (scale == 0.0)
    return shift, np.where(constant, 1.0, scale), constant


def apply_scaler(features: np.ndarray, stats: tuple) -> np.ndarray:
    """A new array, `(features - shift) / scale` with 0 in the `constant` columns."""
    shift, scale, constant = stats
    return np.where(constant, 0.0, (features - shift) / scale)


# Stream paths below a run seed, one per draw: (SPLIT,) the train/test split, (PARTITION, r)
# repeat r's folds, (CELL, r, f) a CV cell's model, (MEMBER, m) a bias member's, (MODEL,)
# that of train, boundary and risk; + (INIT,) a model's weights, + (DRAWS,) its training.
SPLIT, PARTITION, CELL, MEMBER, MODEL = range(5)
INIT, DRAWS = range(2)


def stream(seed: int | np.random.SeedSequence, *path: int) -> np.random.SeedSequence:
    """The stream at `path` below a run seed or a stream, whose spawn_key it extends."""
    if isinstance(seed, np.random.SeedSequence):
        seed, path = seed.entropy, seed.spawn_key + path
    return np.random.SeedSequence(seed, spawn_key=path)


def stratified_kfold(data: Dataset, k: int, seed: int | np.random.SeedSequence) -> np.ndarray:
    """Each instance's fold index in a deterministic stratified partition:
    shuffle each class with the seed and deal round-robin, so per-fold class
    counts are balanced to within 1. A class smaller than k is a ConfigError."""
    if k < 2:
        raise ValueError("k must be >= 2 (one fold must be held out)")
    rng = np.random.default_rng(seed)
    assignments = np.full(data.n, -1, dtype=int)
    for cls in (0, 1):
        idx = np.flatnonzero(data.labels == cls)
        if idx.size < k:
            raise ConfigError(f"class {cls} has {idx.size} members, fewer than k={k}")
        idx = rng.permutation(idx)
        assignments[idx] = np.arange(idx.size) % k
    return assignments


def stratified_split(data: Dataset, test_fraction: float,
                     seed: int | np.random.SeedSequence) -> tuple[np.ndarray, np.ndarray]:
    """Index split into (train, test) preserving class proportions; a
    test_fraction that leaves a class no training row is a ConfigError."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for cls in (0, 1):
        idx = rng.permutation(np.flatnonzero(data.labels == cls))
        n_test = max(1, int(round(idx.size * test_fraction)))
        if n_test >= idx.size:
            raise ConfigError(f"class {cls} too small for test_fraction {test_fraction}")
        test_idx.extend(idx[:n_test])
        train_idx.extend(idx[n_test:])
    return np.sort(np.array(train_idx)), np.sort(np.array(test_idx))


@dataclass
class CvReport:
    fold_scores: list[list[float]]   # [repeat][fold]
    repeat_means: list[float] = field(init=False)
    repeat_stds: list[float] = field(init=False)

    def __post_init__(self):
        self.repeat_means = [float(np.mean(s)) for s in self.fold_scores]
        # population standard deviation over the k folds
        self.repeat_stds = [float(np.std(s)) for s in self.fold_scores]

    @property
    def mean_envelope(self) -> tuple[float, float]:
        return min(self.repeat_means), max(self.repeat_means)

    @property
    def std_envelope(self) -> tuple[float, float]:
        return min(self.repeat_stds), max(self.repeat_stds)


def repeated_cv(data: Dataset, k: int, repeats: int, train_fn, metric_fn,
                seed: int, scaling: Scaling = Scaling.ZSCORE) -> CvReport:
    """Repeated stratified k-fold cross-validation.

    Repeat r's folds are drawn from ``stream(seed, PARTITION, r)``; cell (r, f)
    has seed ``stream(seed, CELL, r, f)`` and scaling fitted on its k-1
    training folds. Every cell is handed to one ``train_fn(jobs)`` call as a
    job ``(X, y, seed)``, in (repeat, fold) order; ``jobs`` can be read once,
    and makes each job, its training rows scaled, only when it is read, so a
    ``train_fn`` that reads its jobs a few at a time holds only those. It
    returns an iterable (a list, or an iterator that trains as it is read) with
    per cell a predictor (callable X -> probability vector), and
    ``metric_fn(predictor, X, y)`` scores each held-out fold as its predictor
    arrives, which is then let go. The first failed cell in (repeat, fold)
    order is reported: an exception raised while reading the iterable fails the
    cell whose predictor it was to give, the first cell when raised by the call
    itself.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    cells = []  # (repeat, fold, held-out mask, fitted scaler)
    for r in range(repeats):
        folds = stratified_kfold(data, k, stream(seed, PARTITION, r))
        for fold in range(k):
            test_mask = folds == fold
            cells.append((r, fold, test_mask,
                          fit_scaler(data.features, scaling, ~test_mask)))
    jobs = ((apply_scaler(data.features[~mask], stats), data.labels[~mask],
             stream(seed, CELL, r, fold)) for r, fold, mask, stats in cells)

    def failure(r, fold, exc):
        return RuntimeError(f"CV cell failed at repeat {r}, fold {fold}: {exc}")

    try:
        predictors = iter(train_fn(jobs))
    except Exception as exc:
        raise failure(*cells[0][:2], exc) from exc
    flat = []
    for r, fold, test_mask, stats in cells:
        try:
            predictor = next(predictors, None)
            if predictor is None:
                raise ValueError(f"train_fn returned {len(flat)} predictors "
                                 f"for {len(cells)} cells")
            flat.append(float(metric_fn(
                predictor, apply_scaler(data.features[test_mask], stats),
                data.labels[test_mask])))
        except Exception as exc:
            raise failure(r, fold, exc) from exc
        del predictor  # not held while the next cells train
    if next(predictors, None) is not None:
        raise failure(*cells[0][:2], ValueError(
            f"train_fn returned more predictors than the {len(cells)} cells"))

    return CvReport([flat[r * k:(r + 1) * k] for r in range(repeats)])
