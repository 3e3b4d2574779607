"""Experiment configuration: a flat key=value file plus CLI overrides.

Unknown keys are rejected; validation collects every problem before
reporting so a bad config fails with the full list at once.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import dataclass, fields

from .data_pipeline import ConfigError, Scaling  # ConfigError is re-exported
from .loss_core import LossFamily, LossParams
from .optimizer import Method, OptimizerConfig


@dataclass
class ExperimentConfig:
    dataset: str = ""
    label_column: int = -1
    default_label: str = ""
    header: bool = False
    loss_family: LossFamily = LossFamily.XTREME_MARGIN
    lambda1: float = 1.0
    lambda2: float = 1.0
    optimizer: Method = Method.RMSPROP
    alpha: float = 0.001
    epochs: int = 100
    batch_size: int = 16
    k: int = 10
    repeats: int = 20
    seed: int | None = None
    scaling: Scaling = Scaling.ZSCORE
    test_fraction: float = 0.3
    output_dir: str = "out"

    def loss_params(self) -> LossParams:
        return LossParams(lambda1=self.lambda1, lambda2=self.lambda2,
                          family=self.loss_family)

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(method=self.optimizer, alpha=self.alpha)

    def echo(self) -> dict:
        """Complete effective configuration, defaults included, for report
        provenance."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.value if isinstance(value, enum.Enum) else value
        return out


def _parse_bool(v: str) -> bool:
    low = str(v).strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def member(kind: type[enum.Enum], text: str) -> enum.Enum:
    """The member of `kind` whose value `text` names, in any case and with
    '-' for '_'."""
    try:
        return kind(text.strip().lower().replace("-", "_"))
    except ValueError:
        raise ValueError(f"{text!r} is not one of "
                         + ", ".join(m.value for m in kind)) from None


# each key's parser, from its field's annotation (a string under
# `from __future__ import annotations`)
_BY_TYPE = {"str": str, "int": int, "int | None": int, "float": float, "bool": _parse_bool,
            **{kind.__name__: functools.partial(member, kind)
               for kind in (LossFamily, Method, Scaling)}}
_PARSERS = {f.name: _BY_TYPE[f.type] for f in fields(ExperimentConfig)}


def _parse_item(item: str, where: str, key_kind: str = "key") -> tuple:
    """'key = value' -> (key, parsed value); each error message starts with
    `where`."""
    key, eq, val = (part.strip() for part in item.partition("="))
    if not eq:
        raise ConfigError(f"{where}expected 'key = value', got {item!r}")
    if key not in _PARSERS:
        raise ConfigError(f"{where}unknown {key_kind} {key!r}")
    try:
        return key, _PARSERS[key](val)
    except ValueError as exc:
        raise ConfigError(f"{where}bad value for {key}: {exc}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse 'key = value' lines; '#' starts a comment; blank lines ignored."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _parse_item(line, f"{source}:{lineno}: ")
            if key in values:
                raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
            values[key] = value
    return values


def load_config(path: str, overrides: list[str] = ()) -> ExperimentConfig:
    """Read a UTF-8 config file, a leading byte-order mark skipped, and apply
    'key=value' overrides on top."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    values = parse_config_text(text, source=path)
    values.update(_parse_item(item, "--override: ", "override key") for item in overrides)
    return ExperimentConfig(**values)


def validate(cfg: ExperimentConfig, needs_dataset: bool = True) -> None:
    """Check the whole config, reporting every failure at once."""
    problems = []
    if cfg.seed is None:
        problems.append("seed is mandatory (no wall-clock seeding)")
    if needs_dataset:
        if not cfg.dataset:
            problems.append("dataset path is required")
        elif not os.path.exists(cfg.dataset):
            problems.append(f"dataset file does not exist: {cfg.dataset}")
        elif not os.path.isfile(cfg.dataset):
            problems.append(f"dataset is not a file: {cfg.dataset}")
    if not cfg.output_dir:
        problems.append("output_dir is empty")
    try:
        os.fsencode(cfg.output_dir)
    except UnicodeEncodeError as exc:
        problems.append(f"output_dir is not a file name in this locale: {exc}")
    if "\0" in cfg.output_dir:
        problems.append(f"output_dir holds a NUL byte: {cfg.output_dir!r}")
    for name, ok in [
        ("seed", cfg.seed is None or cfg.seed >= 0),
        ("lambda1", cfg.lambda1 >= 0 and math.isfinite(cfg.lambda1)),
        ("lambda2", cfg.lambda2 >= 0 and math.isfinite(cfg.lambda2)),
        ("alpha", cfg.alpha >= 0 and math.isfinite(cfg.alpha)),
        ("epochs", cfg.epochs >= 1),
        ("batch_size", cfg.batch_size >= 1),
        ("k", cfg.k >= 2),
        ("repeats", cfg.repeats >= 1),
        ("test_fraction", 0.0 < cfg.test_fraction < 1.0),
    ]:
        if not ok:
            problems.append(f"invalid {name}: {getattr(cfg, name)}")
    if problems:
        raise ConfigError("invalid configuration:\n  - " + "\n  - ".join(problems))
