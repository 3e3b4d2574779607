"""Command-line experiment driver.

    xmargin <train|cv|grid|boundary|loss-curve|bias|risk> --config FILE
            [--override key=value ...] [command flags]

Exit codes: 0 success, 1 configuration/validation error (a usage error
included), 2 runtime failure.
Every command writes a deterministic report (plus CSV payloads) into the
configured output directory; wall-clock timing goes to a separate meta file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import os
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config, member, validate
from .data_pipeline import (DRAWS, INIT, MEMBER, MODEL, SPLIT, Dataset, apply_scaler,
                            fit_scaler, load_csv, repeated_cv, stratified_split, stream)
from .loss_core import LossFamily, LossParams, branches, hard_labels, loss_and_grad_vec, pieces
from .metrics import LabelConfidence, bias_estimate, conditional_risk, scores
from .network import build_boundary_model, build_experiment_model, predict_proba
from .optimizer import train as train_loop
from .optimizer import train_models
from .report import Indexed, write_csv, write_meta, write_report


def _load_dataset(cfg: ExperimentConfig) -> Dataset:
    """The configured dataset. A label column or default label that does not
    fit the file raises a LabelChoiceError, which is a ConfigError."""
    return load_csv(cfg.dataset, label_column=cfg.label_column,
                    default_class_raw_label=cfg.default_label or None, header=cfg.header)


def _fit(build, cfg: ExperimentConfig, X, y, seed, **eval_data):
    """Train `build(X.shape[1], stream(seed, INIT))` with cfg's loss, optimizer, epochs
    and batch size, shuffling and dropping out with `stream(seed, DRAWS)`: `seed` is the
    model's stream, as in `_fit_many`."""
    return train_loop(build(X.shape[1], stream(seed, INIT)), X, y, cfg.loss_params(),
                      cfg.optimizer_config(), epochs=cfg.epochs, batch_size=cfg.batch_size,
                      rng=np.random.default_rng(stream(seed, DRAWS)), **eval_data)


# Parameters trained as one stack: five models of the sonar experiment (6657
# parameters each). While it trains, a stacked RMSprop model holds five arrays
# of its parameters' size (its row of the stack, the accumulators, the
# best-iterate snapshot, the gradient and one work array), its share of the
# epoch's shuffled rows, labels and dropout keep flags, and its share of one
# step's activations: 9.0 parameter-sized arrays in all at the tracemalloc
# peak of `train_models` (five sonar models, 187 rows, minibatches of 16), the
# shuffled rows 1.7 of them. `xmargin cv` on sonar (repeats=1, epochs=50, run
# in-process) peaks at 38.2-38.4 MB `VmHWM` one model at a time, 40.3-40.4 MB
# in stacks of five and 43.0-43.2 MB in stacks of ten.
STACK_PARAMS = 5 * 6657


def _fit_many(build, cfg: ExperimentConfig, jobs):
    """`_fit` for many jobs (X, y, seed), in order: yields one TrainResult per job. The
    models are trained in stacks of at most STACK_PARAMS parameters, and each job is read
    when its stack is built, so neither the memory that training takes nor the training
    data held at once grows with their number. A stack that fails raises, when it is
    reached, its error, which names the model by its index in the stack."""

    def train(stack):
        models, Xs, ys, seeds = zip(*stack)
        return train_models(list(models), Xs, ys, cfg.loss_params(), cfg.optimizer_config(),
                            epochs=cfg.epochs, batch_size=cfg.batch_size,
                            rngs=[np.random.default_rng(stream(s, DRAWS)) for s in seeds])

    stack = []
    for X, y, seed in jobs:
        stack.append((build(X.shape[1], stream(seed, INIT)), X, y, seed))
        if (len(stack) + 1) * stack[0][0].flat.size > STACK_PARAMS:  # full
            yield from train(stack)
            stack = []
    if stack:
        yield from train(stack)


def _train_predictor_fn(cfg: ExperimentConfig):
    """A train_fn for repeated_cv: an iterator that trains the fixed experiment model
    for the jobs a stack at a time as it is read, giving their inference predictors; a
    stack that fails raises when it is read. Unlike a generator expression, `map`
    holds no earlier result while the next stack trains."""

    def train_fn(jobs):
        return map(lambda r: functools.partial(predict_proba, r.model),
                   _fit_many(build_experiment_model, cfg, jobs))

    return train_fn


def _accuracy_metric(predictor, X, y) -> float:
    return scores(predictor(X), y)["accuracy"]


def _cv(cfg: ExperimentConfig, data: Dataset):
    """Repeated stratified CV of the experiment model under `cfg`, scored by accuracy."""
    return repeated_cv(data, cfg.k, cfg.repeats, _train_predictor_fn(cfg),
                       _accuracy_metric, cfg.seed, scaling=cfg.scaling)


def _split_and_scale(cfg: ExperimentConfig, data: Dataset):
    """(Xtr, ytr, Xte, yte, test_idx), scaled by training-row statistics; a
    test_fraction that leaves a class no training row raises a ConfigError."""
    train_idx, test_idx = stratified_split(data, cfg.test_fraction, stream(cfg.seed, SPLIT))
    stats = fit_scaler(data.features, cfg.scaling, train_idx)
    X = apply_scaler(data.features, stats)
    return (X[train_idx], data.labels[train_idx], X[test_idx], data.labels[test_idx],
            test_idx)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_train(cfg: ExperimentConfig) -> dict:
    data = _load_dataset(cfg)
    Xtr, ytr, Xte, yte, _ = _split_and_scale(cfg, data)
    result = _fit(build_experiment_model, cfg, Xtr, ytr, stream(cfg.seed, MODEL),
                  eval_X=Xte, eval_y=yte)
    write_csv(os.path.join(cfg.output_dir, "curves.csv"),
              ["epoch", "train_loss", "train_acc", "test_acc"],
              list(zip(*map(dataclasses.astuple, result.history))))
    probs = predict_proba(result.model, Xte)
    return {
        "command": "train",
        "n_train": len(ytr), "n_test": len(yte),
        "final": scores(probs, yte),
        "curve_file": "curves.csv",
    }


def cmd_cv(cfg: ExperimentConfig) -> dict:
    report = _cv(cfg, _load_dataset(cfg))
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


def cmd_grid(cfg: ExperimentConfig, lambda_grid: list[LossParams]) -> dict:
    """Repeated CV of each (lambda1, lambda2) cell of `lambda_grid`. Only the
    Xtreme Margin loss reads lambda, so any other loss family is refused."""
    if cfg.loss_family is not LossFamily.XTREME_MARGIN:
        raise ConfigError("grid needs loss_family = xtreme_margin: "
                          f"{cfg.loss_family.value} has no lambda to vary")
    data = _load_dataset(cfg)
    rows = []
    for l1, l2 in ((p.lambda1, p.lambda2) for p in lambda_grid):
        try:
            rep = _cv(dataclasses.replace(cfg, lambda1=l1, lambda2=l2), data)
            rows.append((l1, l2, float(np.mean(rep.repeat_means)),
                         float(np.mean(rep.repeat_stds)), "ok"))
        except RuntimeError as exc:  # a failed cell is excluded from the argmax
            print(f"warning: grid cell (lambda1={l1}, lambda2={l2}) failed: {exc}",
                  file=sys.stderr)
            rows.append((l1, l2, float("nan"), float("nan"), "failed"))
    write_csv(os.path.join(cfg.output_dir, "grid.csv"),
              ["lambda1", "lambda2", "mean_cv_accuracy", "std_cv_accuracy", "status"],
              list(zip(*rows)))
    evaluated = [row for row in rows if row[4] == "ok"]
    if not evaluated:
        raise RuntimeError("every grid cell failed")
    # argmax mean; ties broken by smaller std, then smaller lambda1, lambda2
    best = min(evaluated, key=lambda c: (-c[2], c[3], c[0], c[1]))
    return {
        "command": "grid",
        "cells_evaluated": len(evaluated),
        "cells_failed": len(rows) - len(evaluated),
        "argmax": {"lambda1": best[0], "lambda2": best[1],
                   "mean_cv_accuracy": best[2], "std_cv_accuracy": best[3]},
        "grid_file": "grid.csv",
    }


def cmd_boundary(cfg: ExperimentConfig, features: tuple[int, int],
                 resolution: int) -> dict:
    f1, f2 = features
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
    X = apply_scaler(feats, stats)
    result = _fit(build_boundary_model, cfg, X, data.labels, stream(cfg.seed, MODEL))

    lo = feats.min(axis=0)
    hi = feats.max(axis=0)
    pad = 0.1 * (hi - lo)
    g1, g2 = np.linspace(lo - pad, hi + pad, resolution).T
    # scaling is elementwise per column, so scaling the two axes and then
    # crossing them gives the scaled grid bit for bit;
    # row i * resolution + j of the grid is (g1[j], g2[i])
    s1, s2 = apply_scaler(np.column_stack([g1, g2]), stats).T
    grid = np.empty((resolution, resolution, 2))
    grid[..., 0] = s1
    grid[..., 1] = s2[:, None]
    probs = predict_proba(result.model, grid.reshape(-1, 2))
    # freed before write_csv, not for memory: glibc malloc raises its mmap
    # and trim thresholds only after a large block is freed, and with them
    # low every CSV block's text, bytes and cell list is mapped afresh
    # (9,997 minor faults in write_csv at resolution 600 against 368)
    del grid
    steps = np.arange(resolution)
    write_csv(os.path.join(cfg.output_dir, "boundary_grid.csv"),
              ["x1", "x2", "probability", "hard_label"],
              [Indexed(g1, np.tile(steps, resolution)), Indexed(g2, np.repeat(steps, resolution)),
               probs, hard_labels(probs).view(np.uint8)])
    write_csv(os.path.join(cfg.output_dir, "boundary_points.csv"),
              ["x1", "x2", "label"], [feats[:, 0], feats[:, 1], data.labels])
    return {
        "command": "boundary",
        "features": [f1, f2],
        "resolution": resolution,
        "grid_rows": len(probs),
        "train_accuracy": scores(predict_proba(result.model, X), data.labels)["accuracy"],
        "grid_file": "boundary_grid.csv",
        "points_file": "boundary_points.csv",
    }


def cmd_loss_curve(cfg: ExperimentConfig, y_true: int, samples: int) -> dict:
    if samples < 2:
        raise ConfigError("samples must be >= 2")
    params = cfg.loss_params()
    y = np.linspace(0.0, 1.0, samples)
    header, columns = ["y", "loss"], [y, loss_and_grad_vec(y, y_true, params)[0]]
    xm = params.family is LossFamily.XTREME_MARGIN  # only it has λ, branches and pieces
    if xm:
        header += ["branch", "correct_case", "misclassified_case"]
        columns += [[b.value for b in branches(y, y_true)], *pieces(y, y_true, params)[:2]]
    write_csv(os.path.join(cfg.output_dir, "loss_curve.csv"), header, columns)
    return {
        "command": "loss_curve",
        "y_true": y_true,
        "samples": samples,
        "lambda_active": (params.lambda1 if y_true == 0 else params.lambda2) if xm else "N/A",
        "curve_file": "loss_curve.csv",
    }


def parse_variant(spec: str) -> LossParams:
    """'xm:L1:L2', 'bce', or 'hinge': a family as a config names it, or `xm`."""
    parts = spec.split(":")
    try:
        family = (LossFamily.XTREME_MARGIN if parts[0].strip().lower() == "xm"
                  else member(LossFamily, parts[0]))
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
    rows = []
    warnings = []
    seeds = [stream(cfg.seed, MEMBER, m) for m in range(ensemble_size)]
    for params in variants:
        variant_cfg = dataclasses.replace(cfg, loss_family=params.family,
                                          lambda1=params.lambda1, lambda2=params.lambda2)
        results = _fit_many(build_experiment_model, variant_cfg,
                            ((Xtr, ytr, s) for s in seeds))
        preds = np.array([predict_proba(r.model, Xte) for r in results])
        if (preds == preds[0]).all():
            warnings.append(f"degenerate ensemble for {params.family.value}: "
                            "all members produced identical predictions")
        xm = params.family is LossFamily.XTREME_MARGIN
        rows.append((params.family.value, params.lambda1 if xm else "N/A",
                     params.lambda2 if xm else "N/A", bias_estimate(preds, yte)))
    write_csv(os.path.join(cfg.output_dir, "bias.csv"),
              ["loss_family", "lambda1", "lambda2", "bias"], list(zip(*rows)))
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


def cmd_risk(cfg: ExperimentConfig, confidence: LabelConfidence | None,
             confidence_column: int | None) -> dict:
    if (confidence is None) == (confidence_column is None):
        raise ConfigError("exactly one of --confidence / --confidence-column is required")
    data = _load_dataset(cfg)
    if confidence_column is not None and not (0 <= confidence_column < data.d):
        raise ConfigError(f"confidence column {confidence_column} out of range")
    Xtr, ytr, Xte, _, test_idx = _split_and_scale(cfg, data)
    if confidence is None:
        p1 = data.features[test_idx, confidence_column]
        bad = np.flatnonzero(~((p1 >= 0.0) & (p1 <= 1.0)))
        if bad.size:
            raise ConfigError(f"confidence column {confidence_column} holds "
                              f"{float(p1[bad[0]])!r} at instance {test_idx[bad[0]]}, "
                              "not a probability")
        p0 = 1.0 - p1
    else:
        p0, p1 = confidence.p0, confidence.p1
    result = _fit(build_experiment_model, cfg, Xtr, ytr, stream(cfg.seed, MODEL))
    probs = predict_proba(result.model, Xte)
    risk = conditional_risk(probs, p0, p1, cfg.loss_params())
    write_csv(os.path.join(cfg.output_dir, "risk.csv"),
              ["instance", "predicted_probability", "conditional_risk"],
              [test_idx, probs, risk])
    return {
        "command": "risk",
        "n_evaluated": len(risk),
        "mean_risk": float(np.mean(risk)),
        "risk_file": "risk.csv",
    }


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError, so that it exits 1 like every
    other bad input. Subparsers are built from the same class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _flag_type(parse):
    """`parse` as an argparse `type=`: the ValueError it raises becomes an
    ArgumentTypeError, whose message argparse reports as it is."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _pair(text: str, kind=float) -> tuple:
    """'a,b' -> (kind(a), kind(b))."""
    try:
        a, b = (kind(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"needs two comma-separated {kind.__name__} values, "
                         f"got {text!r}") from None
    return a, b


@_flag_type
def _lambda_grid(text: str) -> list[LossParams]:
    """'1,1;10,10' -> [LossParams(1, 1), LossParams(10, 10)]."""
    cells = [LossParams(*_pair(cell.strip())) for cell in text.split(";") if cell.strip()]
    if not cells:
        raise ValueError("lambda grid must be non-empty")
    return cells


@_flag_type
def _variants(text: str) -> list[LossParams]:
    """'xm:1:50,bce' -> [LossParams(1, 50), LossParams(family=BCE)]."""
    variants = [parse_variant(v) for v in text.split(",") if v.strip()]
    if not variants:
        raise ValueError("variants must be non-empty")
    return variants


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xmargin", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(required=True)

    def command(name, run, help, needs_dataset=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.set_defaults(run=run, needs_dataset=needs_dataset)
        return p

    command("train", cmd_train, "train once and export learning curves")
    command("cv", cmd_cv, "repeated stratified cross-validation")

    p = command("grid", cmd_grid, "lambda grid search over repeated CV")
    p.add_argument("--lambda-grid", type=_lambda_grid, required=True,
                   help="semicolon-separated l1,l2 cells, e.g. '1,1;10,10'")

    p = command("boundary", cmd_boundary, "2-feature decision boundary grid export")
    p.add_argument("--features", type=_flag_type(functools.partial(_pair, kind=int)),
                   default="0,2", help="two feature indices, e.g. '0,2'")
    p.add_argument("--resolution", type=int, default=100)

    p = command("loss-curve", cmd_loss_curve, "loss-vs-probability table export",
                needs_dataset=False)
    p.add_argument("--y-true", type=int, choices=(0, 1), default=1)
    p.add_argument("--samples", type=int, default=201)

    p = command("bias", cmd_bias, "ensemble bias comparison across loss settings")
    p.add_argument("--variants", default="xm:1:50,xm:50:1,bce,hinge", type=_variants,
                   help="comma-separated variants: xm:L1:L2, bce, hinge")
    p.add_argument("--ensemble-size", type=int, default=5)

    p = command("risk", cmd_risk, "per-instance conditional risk evaluation")
    p.add_argument("--confidence", type=_flag_type(lambda text: LabelConfidence(*_pair(text))),
                   help="constant 'p0,p1' label confidence")
    p.add_argument("--confidence-column", type=int,
                   help="feature column holding p1 per instance")
    return parser


def _dispatch(args) -> tuple[ExperimentConfig, dict]:
    """Load and validate the config, make its output directory, and run the
    command on its converted flags. If the command raises, the levels of the
    output directory made here that are still empty are removed again."""
    flags = dict(vars(args))
    cfg = load_config(flags.pop("config"), flags.pop("override"))
    validate(cfg, needs_dataset=flags.pop("needs_dataset"))
    path = level = os.path.abspath(cfg.output_dir)
    made = []  # the levels of path that makedirs creates, innermost first
    while not os.path.lexists(level):
        made.append(level)
        level = os.path.dirname(level)
    try:
        os.makedirs(path, exist_ok=True)
        return cfg, flags.pop("run")(cfg, **flags)
    except BaseException:
        for level in made:
            with contextlib.suppress(OSError):  # a level that holds files stays
                os.rmdir(level)
        raise


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        cfg, payload = _dispatch(build_parser().parse_args(argv))
        write_report(os.path.join(cfg.output_dir, "report.txt"),
                     {"config": cfg.echo(), "payload": payload})
        write_meta(os.path.join(cfg.output_dir, "meta.txt"),
                   time.monotonic() - started, __version__)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    print(f"report written to {os.path.join(cfg.output_dir, 'report.txt')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
