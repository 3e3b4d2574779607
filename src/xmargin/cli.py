"""Command-line experiment driver.

    xmargin <train|cv|grid|boundary|loss-curve|bias|risk> --config FILE
            [--override key=value ...] [command flags]

Exit codes: 0 success, 1 configuration/validation error, 2 runtime failure.
Every command writes a deterministic report (plus CSV payloads) into the
configured output directory; wall-clock timing goes to a separate meta file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config, validate
from .data_pipeline import (Dataset, apply_scaler, fit_scaler, load_csv,
                            repeated_cv, stratified_split)
from .loss_core import LossFamily, LossParams, predict_label, xtreme_margin_loss
from .metrics import (LabelConfidence, accuracy, auc, bias_estimate,
                      conditional_accuracy, conditional_risk, confusion,
                      precision_recall)
from .network import build_boundary_model, build_experiment_model, predict_proba
from .optimizer import train as train_loop
from .optimizer import train_models
from .report import write_csv, write_meta, write_report


def _load_dataset(cfg: ExperimentConfig) -> Dataset:
    return load_csv(cfg.dataset, label_column=cfg.label_column,
                    default_class_raw_label=cfg.default_label or None,
                    header=cfg.header)


def _fit(build, cfg: ExperimentConfig, X, y, seed: int,
         params: LossParams | None = None, **eval_data):
    """Train `build(X.shape[1], seed)` with cfg's optimizer, epochs and batch
    size, shuffling and dropping out with a generator seeded by `seed`."""
    return train_loop(build(X.shape[1], seed), X, y, params or cfg.loss_params(),
                      cfg.optimizer_config(), epochs=cfg.epochs, batch_size=cfg.batch_size,
                      rng=np.random.default_rng(seed), **eval_data)


# Parameters trained as one stack. Each stacked model of the sonar experiment
# (6657 parameters) adds about 0.8 MB to the peak memory of `xmargin cv`; a
# stack of three keeps that peak at the level of training one model at a
# time while taking most of the speed-up.
STACK_PARAMS = 3 * 6657


def _fit_many(build, cfg: ExperimentConfig, Xs, ys, seeds,
              params: LossParams | None = None):
    """`_fit` for many (X, y, seed), in order: yields one TrainResult, or the
    exception that model failed with, per seed. The models are trained in
    stacks of at most STACK_PARAMS parameters, so the memory that training
    takes does not grow with their number."""
    per_stack = max(1, STACK_PARAMS // build(Xs[0].shape[1], seeds[0]).flat.size)
    for lo in range(0, len(seeds), per_stack):
        part = slice(lo, lo + per_stack)
        yield from train_models([build(X.shape[1], seed) for X, seed in
                                 zip(Xs[part], seeds[part])],
                                Xs[part], ys[part], params or cfg.loss_params(),
                                cfg.optimizer_config(), epochs=cfg.epochs,
                                batch_size=cfg.batch_size,
                                rngs=[np.random.default_rng(seed) for seed in seeds[part]])


def _train_predictor_fn(cfg: ExperimentConfig):
    """A train_fn for repeated_cv: trains the fixed experiment model for
    every cell in stacks and returns their inference predictors (or the
    exception a cell failed with)."""

    def train_fn(Xs, ys, cell_seeds):
        return [r if isinstance(r, Exception) else functools.partial(predict_proba, r.model)
                for r in _fit_many(build_experiment_model, cfg, Xs, ys, cell_seeds)]

    return train_fn


def _accuracy_metric(predictor, X, y) -> float:
    return accuracy((predictor(X) >= 0.5).astype(int), y)


def _final_metrics(probs: np.ndarray, y: np.ndarray) -> dict:
    preds = (probs >= 0.5).astype(int)
    c = confusion(preds, y)
    prec, rec = precision_recall(c)
    out = {
        "accuracy": accuracy(preds, y),
        "precision": prec,
        "recall": rec,
        "tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn,
    }
    for cls in (0, 1):
        if (y == cls).any():
            out[f"conditional_accuracy_class{cls}"] = conditional_accuracy(preds, y, cls)
    if (y == 1).any() and (y == 0).any():
        out["auc"] = auc(probs[y == 1], probs[y == 0])
    return out


def _split_and_scale(cfg: ExperimentConfig, data: Dataset):
    """(Xtr, ytr, Xte, yte, test_idx), scaled by training-row statistics."""
    train_idx, test_idx = stratified_split(data, cfg.test_fraction, cfg.seed)
    stats = fit_scaler(data.features, cfg.scaling, train_idx)
    X = apply_scaler(data.features, cfg.scaling, stats)
    return (X[train_idx], data.labels[train_idx], X[test_idx], data.labels[test_idx],
            test_idx)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_train(cfg: ExperimentConfig) -> dict:
    data = _load_dataset(cfg)
    Xtr, ytr, Xte, yte, _ = _split_and_scale(cfg, data)
    result = _fit(build_experiment_model, cfg, Xtr, ytr, cfg.seed, eval_X=Xte, eval_y=yte)
    rows = [(h.epoch, h.train_loss, h.train_acc, h.eval_acc) for h in result.history]
    write_csv(os.path.join(cfg.output_dir, "curves.csv"),
              ["epoch", "train_loss", "train_acc", "test_acc"], rows)
    probs = predict_proba(result.model, Xte)
    return {
        "command": "train",
        "n_train": len(ytr), "n_test": len(yte),
        "final": _final_metrics(probs, yte),
        "curve_file": "curves.csv",
    }


def cmd_cv(cfg: ExperimentConfig) -> dict:
    data = _load_dataset(cfg)
    report = repeated_cv(data, cfg.k, cfg.repeats, _train_predictor_fn(cfg),
                         _accuracy_metric, cfg.seed, scaling=cfg.scaling)
    return {
        "command": "cv",
        "metric": "accuracy",
        "std_definition": "population",
        "mean_envelope": list(report.mean_envelope),
        "std_envelope": list(report.std_envelope),
        "repeat_means": report.repeat_means,
        "repeat_stds": report.repeat_stds,
        "fold_scores": {f"repeat_{r}": scores
                        for r, scores in enumerate(report.fold_scores)},
    }


def cmd_grid(cfg: ExperimentConfig, lambda_grid: list[tuple[float, float]]) -> dict:
    if not lambda_grid:
        raise ConfigError("lambda grid must be non-empty")
    data = _load_dataset(cfg)
    rows = []
    cells = []
    for l1, l2 in lambda_grid:
        cell_cfg = dataclasses.replace(cfg, lambda1=l1, lambda2=l2)
        try:
            rep = repeated_cv(data, cfg.k, cfg.repeats, _train_predictor_fn(cell_cfg),
                              _accuracy_metric, cfg.seed, scaling=cfg.scaling)
            mean = float(np.mean(rep.repeat_means))
            std = float(np.mean(rep.repeat_stds))
            rows.append((l1, l2, mean, std, "ok"))
            cells.append((l1, l2, mean, std))
        except Exception as exc:  # a failed cell is excluded from the argmax
            print(f"warning: grid cell (lambda1={l1}, lambda2={l2}) failed: {exc}",
                  file=sys.stderr)
            rows.append((l1, l2, float("nan"), float("nan"), "failed"))
    write_csv(os.path.join(cfg.output_dir, "grid.csv"),
              ["lambda1", "lambda2", "mean_cv_accuracy", "std_cv_accuracy", "status"],
              rows)
    if not cells:
        raise RuntimeError("every grid cell failed")
    # argmax mean; ties broken by smaller std, then smaller lambda1, lambda2
    best = min(cells, key=lambda c: (-c[2], c[3], c[0], c[1]))
    return {
        "command": "grid",
        "cells_evaluated": len(cells),
        "cells_failed": len(rows) - len(cells),
        "argmax": {"lambda1": best[0], "lambda2": best[1],
                   "mean_cv_accuracy": best[2], "std_cv_accuracy": best[3]},
        "grid_file": "grid.csv",
    }


def cmd_boundary(cfg: ExperimentConfig, feature_pair: tuple[int, int],
                 resolution: int) -> dict:
    f1, f2 = feature_pair
    if f1 == f2:
        raise ConfigError("boundary features must be distinct")
    if resolution < 2:
        raise ConfigError("grid resolution must be >= 2")
    data = _load_dataset(cfg)
    for f in (f1, f2):
        if not (0 <= f < data.d):
            raise ConfigError(f"feature index {f} outside 0..{data.d - 1}")
        if np.ptp(data.features[:, f]) == 0.0:
            raise ConfigError(f"selected feature {f} is constant")

    feats = data.features[:, [f1, f2]]
    stats = fit_scaler(feats, cfg.scaling, np.arange(len(feats)))
    X = apply_scaler(feats, cfg.scaling, stats)
    result = _fit(build_boundary_model, cfg, X, data.labels, cfg.seed)

    lo = feats.min(axis=0)
    hi = feats.max(axis=0)
    pad = 0.1 * (hi - lo)
    g1 = np.linspace(lo[0] - pad[0], hi[0] + pad[0], resolution)
    g2 = np.linspace(lo[1] - pad[1], hi[1] + pad[1], resolution)
    gx, gy = np.meshgrid(g1, g2)
    grid_raw = np.column_stack([gx.ravel(), gy.ravel()])
    probs = predict_proba(result.model, apply_scaler(grid_raw, cfg.scaling, stats))
    grid_rows = [(p1, p2, pr, predict_label(float(pr)))
                 for (p1, p2), pr in zip(grid_raw, probs)]
    write_csv(os.path.join(cfg.output_dir, "boundary_grid.csv"),
              ["x1", "x2", "probability", "hard_label"], grid_rows)
    write_csv(os.path.join(cfg.output_dir, "boundary_points.csv"),
              ["x1", "x2", "label"],
              [(a, b, int(l)) for (a, b), l in zip(feats, data.labels)])
    return {
        "command": "boundary",
        "features": [f1, f2],
        "resolution": resolution,
        "grid_rows": len(grid_rows),
        "train_accuracy": accuracy((predict_proba(result.model, X) >= 0.5).astype(int),
                                   data.labels),
        "grid_file": "boundary_grid.csv",
        "points_file": "boundary_points.csv",
    }


def cmd_loss_curve(cfg: ExperimentConfig, y_true: int, samples: int) -> dict:
    if samples < 2:
        raise ConfigError("samples must be >= 2")
    params = cfg.loss_params()
    if params.family is not LossFamily.XTREME_MARGIN:
        params = LossParams(cfg.lambda1, cfg.lambda2, LossFamily.XTREME_MARGIN)
    lam = params.lambda1 if y_true == 0 else params.lambda2
    rows = []
    for y in np.linspace(0.0, 1.0, samples):
        y = float(y)
        lv = xtreme_margin_loss(y, y_true, params)
        correct_case = 1.0 / (1.0 + lam * (2.0 * y - 1.0) ** 2)
        misclassified_case = math.exp(abs(y_true - y))
        rows.append((y, lv.value, lv.branch.value, correct_case, misclassified_case))
    write_csv(os.path.join(cfg.output_dir, "loss_curve.csv"),
              ["y", "loss", "branch", "correct_case", "misclassified_case"], rows)
    return {
        "command": "loss_curve",
        "y_true": y_true,
        "samples": samples,
        "lambda_active": lam,
        "curve_file": "loss_curve.csv",
    }


def parse_variant(spec: str) -> LossParams:
    """'xm:L1:L2', 'bce', or 'hinge'."""
    parts = spec.split(":")
    try:
        family = LossFamily.parse(parts[0])
        lambdas = [float(v) for v in parts[1:]]
        if family is LossFamily.XTREME_MARGIN and len(lambdas) == 2:
            return LossParams(*lambdas, family)
    except ValueError as exc:
        raise ConfigError(f"bad variant {spec!r}: {exc}") from None
    if family is LossFamily.XTREME_MARGIN:
        raise ConfigError(f"xtreme-margin variant needs xm:L1:L2, got {spec!r}")
    if lambdas:
        raise ConfigError(f"{parts[0]} variant takes no lambdas, got {spec!r}")
    return LossParams(family=family)


def cmd_bias(cfg: ExperimentConfig, variants: list[LossParams],
             ensemble_size: int) -> dict:
    if ensemble_size < 2:
        raise ConfigError("ensemble_size must be >= 2")
    data = _load_dataset(cfg)
    Xtr, ytr, Xte, yte, _ = _split_and_scale(cfg, data)
    table = []
    warnings = []
    seeds = [cfg.seed + 7919 * (member + 1) for member in range(ensemble_size)]
    for params in variants:
        preds = []
        for result in _fit_many(build_experiment_model, cfg, [Xtr] * ensemble_size,
                                [ytr] * ensemble_size, seeds, params):
            if isinstance(result, Exception):
                raise result
            preds.append(predict_proba(result.model, Xte))
        preds = np.array(preds)
        if np.allclose(preds, preds[0], atol=0.0):
            warnings.append(f"degenerate ensemble for {params.family.value}: "
                            "all members produced identical predictions")
        rep = bias_estimate(preds, yte)
        table.append((params.family.value,
                      params.lambda1 if params.family is LossFamily.XTREME_MARGIN else "N/A",
                      params.lambda2 if params.family is LossFamily.XTREME_MARGIN else "N/A",
                      rep.bias))
    write_csv(os.path.join(cfg.output_dir, "bias.csv"),
              ["loss_family", "lambda1", "lambda2", "bias"], table)
    out = {
        "command": "bias",
        "bias_estimator": "ensemble-mean-prediction squared deviation, "
                          "averaged over the evaluation set",
        "ensemble_size": ensemble_size,
        "variants": len(variants),
        "bias_file": "bias.csv",
    }
    if warnings:
        out["warnings"] = warnings
    return out


def cmd_risk(cfg: ExperimentConfig, confidence_const: tuple[float, float] | None,
             confidence_column: int | None) -> dict:
    if (confidence_const is None) == (confidence_column is None):
        raise ConfigError("exactly one of --confidence / --confidence-column is required")
    const = None
    if confidence_const is not None:
        try:
            const = LabelConfidence(*confidence_const)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    data = _load_dataset(cfg)
    if confidence_column is not None and not (0 <= confidence_column < data.d):
        raise ConfigError(f"confidence column {confidence_column} out of range")
    Xtr, ytr, Xte, _, test_idx = _split_and_scale(cfg, data)
    confs = [const] * len(test_idx)
    if const is None:
        for i, inst in enumerate(test_idx):
            p1 = float(data.features[inst, confidence_column])
            try:
                confs[i] = LabelConfidence(1.0 - p1, p1)
            except ValueError:
                raise ConfigError(f"confidence column {confidence_column} holds {p1!r} "
                                  f"at instance {inst}, not a probability") from None
    result = _fit(build_experiment_model, cfg, Xtr, ytr, cfg.seed)
    probs = predict_proba(result.model, Xte)
    params = cfg.loss_params()
    rows = [(int(inst), float(y), conditional_risk(float(y), conf, params))
            for inst, y, conf in zip(test_idx, probs, confs)]
    write_csv(os.path.join(cfg.output_dir, "risk.csv"),
              ["instance", "predicted_probability", "conditional_risk"], rows)
    return {
        "command": "risk",
        "n_evaluated": len(rows),
        "mean_risk": float(np.mean([r[2] for r in rows])),
        "risk_file": "risk.csv",
    }


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _parse_pair(flag: str, text: str, kind=float) -> tuple:
    """'a,b' -> (kind(a), kind(b)); anything else is a ConfigError."""
    try:
        a, b = (kind(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag} needs two comma-separated {kind.__name__} "
                          f"values, got {text!r}") from None
    return a, b


def _parse_lambda_grid(text: str) -> list[tuple[float, float]]:
    """'1,1;10,10;100,100' -> [(1,1), (10,10), (100,100)]."""
    return [_parse_pair("--lambda-grid cell", cell.strip())
            for cell in text.split(";") if cell.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xmargin", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")

    common(sub.add_parser("train", help="train once and export learning curves"))
    common(sub.add_parser("cv", help="repeated stratified cross-validation"))

    p = sub.add_parser("grid", help="lambda grid search over repeated CV")
    common(p)
    p.add_argument("--lambda-grid", required=True,
                   help="semicolon-separated l1,l2 cells, e.g. '1,1;10,10'")

    p = sub.add_parser("boundary", help="2-feature decision boundary grid export")
    common(p)
    p.add_argument("--features", default="0,2", help="two feature indices, e.g. '0,2'")
    p.add_argument("--resolution", type=int, default=100)

    p = sub.add_parser("loss-curve", help="loss-vs-probability table export")
    common(p)
    p.add_argument("--y-true", type=int, choices=(0, 1), default=1)
    p.add_argument("--samples", type=int, default=201)

    p = sub.add_parser("bias", help="ensemble bias comparison across loss settings")
    common(p)
    p.add_argument("--variants", default="xm:1:50,xm:50:1,bce,hinge",
                   help="comma-separated variants: xm:L1:L2, bce, hinge")
    p.add_argument("--ensemble-size", type=int, default=5)

    p = sub.add_parser("risk", help="per-instance conditional risk evaluation")
    common(p)
    p.add_argument("--confidence", help="constant 'p0,p1' label confidence")
    p.add_argument("--confidence-column", type=int,
                   help="feature column holding p1 per instance")
    return parser


def _dispatch(args) -> dict:
    cfg = load_config(args.config, args.override)
    needs_dataset = args.command != "loss-curve"
    validate(cfg, needs_dataset=needs_dataset)
    if args.command == "train":
        return cfg, cmd_train(cfg)
    if args.command == "cv":
        return cfg, cmd_cv(cfg)
    if args.command == "grid":
        return cfg, cmd_grid(cfg, _parse_lambda_grid(args.lambda_grid))
    if args.command == "boundary":
        return cfg, cmd_boundary(cfg, _parse_pair("--features", args.features, int),
                                 args.resolution)
    if args.command == "loss-curve":
        return cfg, cmd_loss_curve(cfg, args.y_true, args.samples)
    if args.command == "bias":
        variants = [parse_variant(v) for v in args.variants.split(",") if v.strip()]
        return cfg, cmd_bias(cfg, variants, args.ensemble_size)
    if args.command == "risk":
        const = _parse_pair("--confidence", args.confidence) if args.confidence else None
        return cfg, cmd_risk(cfg, const, args.confidence_column)
    raise ConfigError(f"unknown command {args.command}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        cfg, payload = _dispatch(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    sections = {"config": cfg.echo(), "payload": payload}
    write_report(os.path.join(cfg.output_dir, "report.txt"), sections)
    write_meta(os.path.join(cfg.output_dir, "meta.txt"),
               time.monotonic() - started, __version__)
    print(f"report written to {os.path.join(cfg.output_dir, 'report.txt')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
