"""Dataset ingestion, scaling, stratified splitting, and repeated CV.

CSV files hold one instance per row with numeric features and a two-valued
label column; the configured "default" raw label maps to class 1. Scaling
statistics are always fitted on a caller-chosen subset (the training rows)
so cross-validation stays leakage-free.
"""

from __future__ import annotations

import csv
import enum
import os
from dataclasses import dataclass, field, replace

import numpy as np


class Scaling(enum.Enum):
    NONE = "none"
    MINMAX = "minmax"
    ZSCORE = "zscore"

    @classmethod
    def parse(cls, name: str) -> "Scaling":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown scaling method: {name!r}") from None


class IngestionError(ValueError):
    pass


@dataclass
class Dataset:
    features: np.ndarray           # (n, d) floats
    labels: np.ndarray             # (n,) ints in {0, 1}
    default_class_raw_label: str
    feature_names: list[str] | None = None
    scaling: Scaling = Scaling.NONE
    scaling_stats: dict | None = None

    def __post_init__(self):
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

    def subset(self, idx) -> "Dataset":
        return replace(self, features=self.features[idx], labels=self.labels[idx])


def load_csv(path, label_column: int = -1, default_class_raw_label: str | None = None,
             header: bool = False) -> Dataset:
    """Parse a two-class CSV into a Dataset.

    The raw label equal to ``default_class_raw_label`` becomes class 1, the
    other class 0. Parse failures report the offending row and column.
    """
    if not os.path.exists(path):
        raise IngestionError(f"dataset file not found: {path}")
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    feature_names = None
    if header:
        if not rows:
            raise IngestionError(f"{path}: empty file")
        feature_names = rows[0]
        rows = rows[1:]
    if not rows:
        raise IngestionError(f"{path}: no data rows")

    width = len(rows[0])
    label_idx = label_column if label_column >= 0 else width + label_column
    if not (0 <= label_idx < width):
        raise IngestionError(f"{path}: label column {label_column} outside row width {width}")

    raw_labels = []
    feats = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise IngestionError(f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
        raw_labels.append(row[label_idx].strip())
        vec = []
        for j, cell in enumerate(row):
            if j == label_idx:
                continue
            try:
                vec.append(float(cell))
            except ValueError:
                raise IngestionError(
                    f"{path}: unparseable cell at row {i + 1}, column {j + 1}: {cell!r}"
                ) from None
        feats.append(vec)

    classes = sorted(set(raw_labels))
    if len(classes) != 2:
        raise IngestionError(
            f"{path}: expected exactly two classes, found {len(classes)}: {classes}")
    if default_class_raw_label is None:
        default_class_raw_label = classes[-1]
    if default_class_raw_label not in classes:
        raise IngestionError(
            f"{path}: default label {default_class_raw_label!r} not among {classes}")

    labels = np.array([1 if r == default_class_raw_label else 0 for r in raw_labels])
    if feature_names is not None:
        feature_names = [n for k, n in enumerate(feature_names) if k != label_idx]
    return Dataset(features=np.array(feats, dtype=float), labels=labels,
                   default_class_raw_label=default_class_raw_label,
                   feature_names=feature_names)


def fit_scaler(features: np.ndarray, method: Scaling, fit_on) -> dict:
    """Fit scaling statistics on the given row subset only."""
    fit_rows = features[fit_on]
    if fit_rows.shape[0] == 0:
        raise ValueError("fit_on must be non-empty")
    if method is Scaling.MINMAX:
        return {"min": fit_rows.min(axis=0), "max": fit_rows.max(axis=0)}
    if method is Scaling.ZSCORE:
        return {"mean": fit_rows.mean(axis=0),
                "std": np.maximum(fit_rows.std(axis=0), 1e-12)}
    return {}


def apply_scaler(features: np.ndarray, method: Scaling, stats: dict) -> np.ndarray:
    if method is Scaling.MINMAX:
        span = stats["max"] - stats["min"]
        # constant features map to 0 rather than erroring
        safe = np.where(span == 0.0, 1.0, span)
        return np.where(span == 0.0, 0.0, (features - stats["min"]) / safe)
    if method is Scaling.ZSCORE:
        return (features - stats["mean"]) / stats["std"]
    return features.copy()


def scale_features(data: Dataset, method: Scaling, fit_on) -> Dataset:
    """Return a Dataset scaled with statistics fitted on ``fit_on`` rows and
    applied to all rows (held-out rows may fall outside [0,1] under MinMax)."""
    stats = fit_scaler(data.features, method, fit_on)
    return replace(data, features=apply_scaler(data.features, method, stats),
                   scaling=method, scaling_stats=stats)


@dataclass
class FoldPlan:
    k: int
    assignments: np.ndarray  # per-instance fold index
    seed: int


def stratified_kfold(data: Dataset, k: int, seed: int) -> FoldPlan:
    """Deterministic stratified partition: shuffle each class with the seed
    and deal round-robin, so per-fold class counts are balanced to within 1."""
    if k < 2:
        raise ValueError("k must be >= 2 (one fold must be held out)")
    rng = np.random.default_rng(seed)
    assignments = np.full(data.n, -1, dtype=int)
    for cls in (0, 1):
        idx = np.flatnonzero(data.labels == cls)
        if idx.size < k:
            raise ValueError(f"class {cls} has {idx.size} members, fewer than k={k}")
        idx = rng.permutation(idx)
        assignments[idx] = np.arange(idx.size) % k
    return FoldPlan(k=k, assignments=assignments, seed=seed)


def stratified_split(data: Dataset, test_fraction: float,
                     seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Index split into (train, test) preserving class proportions."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for cls in (0, 1):
        idx = rng.permutation(np.flatnonzero(data.labels == cls))
        n_test = max(1, int(round(idx.size * test_fraction)))
        if n_test >= idx.size:
            raise ValueError(f"class {cls} too small for test_fraction {test_fraction}")
        test_idx.extend(idx[:n_test])
        train_idx.extend(idx[n_test:])
    return np.sort(np.array(train_idx)), np.sort(np.array(test_idx))


@dataclass
class CvReport:
    k: int
    repeats: int
    seed: int
    scaling: Scaling
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
                seed: int, scaling: Scaling = Scaling.MINMAX) -> CvReport:
    """Repeated stratified k-fold cross-validation.

    Per repeat r a fresh FoldPlan is drawn with seed ``seed ^ r``; for each
    fold, scaling is fitted on the k-1 training folds. Every cell is handed
    to one ``train_fn(train_Xs, train_ys, cell_seeds)`` call, as lists in
    (repeat, fold) order; it returns per cell a predictor (callable X ->
    probability vector) or the exception the cell failed with, and
    ``metric_fn(predictor, X, y)`` scores the held-out fold. The first
    failed cell in (repeat, fold) order is reported; an exception raised by
    ``train_fn`` itself fails the first cell.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    cells = []  # (repeat, fold, held-out mask, scaler statistics)
    train_Xs, train_ys, seeds = [], [], []
    for r in range(repeats):
        plan = stratified_kfold(data, k, seed ^ r)
        for fold in range(k):
            test_mask = plan.assignments == fold
            train_idx = np.flatnonzero(~test_mask)
            stats = fit_scaler(data.features, scaling, train_idx)
            cells.append((r, fold, test_mask, stats))
            train_Xs.append(apply_scaler(data.features[train_idx], scaling, stats))
            train_ys.append(data.labels[train_idx])
            seeds.append((seed ^ r) * 1000 + fold)

    def failure(r, fold, exc):
        return RuntimeError(f"CV cell failed at repeat {r}, fold {fold}: {exc}")

    try:
        predictors = train_fn(train_Xs, train_ys, seeds)
        if len(predictors) != len(cells):
            raise ValueError(f"train_fn returned {len(predictors)} predictors "
                             f"for {len(cells)} cells")
    except Exception as exc:
        raise failure(*cells[0][:2], exc) from exc
    flat = []
    # held-out rows are scaled when scored, so only training matrices are
    # held for every cell at once
    for (r, fold, test_mask, stats), predictor in zip(cells, predictors):
        try:
            if isinstance(predictor, Exception):
                raise predictor
            test_X = apply_scaler(data.features[test_mask], scaling, stats)
            flat.append(float(metric_fn(predictor, test_X, data.labels[test_mask])))
        except Exception as exc:
            raise failure(r, fold, exc) from exc

    fold_scores = [flat[r * k:(r + 1) * k] for r in range(repeats)]
    return CvReport(k=k, repeats=repeats, seed=seed, scaling=scaling,
                    fold_scores=fold_scores)
