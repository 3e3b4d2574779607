"""Workload definitions and output correctness checks.

Each workload is one `xmargin` command on a checked-in preset. The
benchmark seed reaches the program only as `--override seed=<s>`. The
checks test invariants of the outputs, never a frozen digest, so a later
change in floating-point reduction order is not counted as a failure.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

SONAR = "presets/sonar_table1.cfg"
IONOSPHERE = "presets/ionosphere_boundary.cfg"
BIAS_VARIANTS = "xm:1:50,xm:50:1,bce,hinge"

# Acceptance criterion 10: every repeat mean of the sonar CV lies in this band.
CV_BAND = (0.70, 0.90)


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    args: tuple[str, ...]       # command and flags, without --config/--override
    overrides: tuple[str, ...]  # key=value pairs besides seed and output_dir
    models: int                 # models trained to completion per execution
    check: Callable[["Workload", str], list[str]]
    resolution: int = 0
    variants: int = 0

    def argv(self, seed: int, out_dir: str) -> list[str]:
        argv = [self.args[0], "--config", self.preset, *self.args[1:]]
        for item in (*self.overrides, f"seed={seed}", f"output_dir={out_dir}"):
            argv += ["--override", item]
        return argv

    def setup_overrides(self, seed: int) -> list[str]:
        return [*self.overrides, f"seed={seed}"]


def payload_digest(out_dir: str) -> str:
    """sha256 over every output file except meta.txt (wall-clock data)."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name == "meta.txt":
            continue
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _read(out_dir: str, name: str) -> str | None:
    try:
        with open(os.path.join(out_dir, name)) as fh:
            return fh.read()
    except OSError:
        return None


def _report_list(report: str, key: str) -> list[float] | None:
    m = re.search(rf"^\s*{key}: \[(.*)\]$", report, re.MULTILINE)
    if m is None:
        return None
    return [float(v) for v in m.group(1).split(",") if v.strip()]


def check_cv(w: Workload, out_dir: str) -> list[str]:
    report = _read(out_dir, "report.txt")
    if report is None:
        return ["report.txt missing"]
    means = _report_list(report, "repeat_means")
    if not means:
        return ["report has no repeat_means"]
    cells = sum(len([v for v in m.split(",") if v.strip()]) for m in
                re.findall(r"^\s*repeat_\d+: \[(.*)\]$", report, re.MULTILINE))
    problems = []
    if cells != w.models:
        problems.append(f"report holds {cells} fold scores, expected {w.models}")
    lo, hi = CV_BAND
    for r, m in enumerate(means):
        if not (lo <= m <= hi):
            problems.append(f"repeat {r} mean accuracy {m} outside [{lo}, {hi}]")
    return problems


def check_bias(w: Workload, out_dir: str) -> list[str]:
    report = _read(out_dir, "report.txt")
    table = _read(out_dir, "bias.csv")
    if report is None or table is None:
        return ["report.txt or bias.csv missing"]
    problems = []
    if "degenerate ensemble" in report:
        problems.append("report warns of a degenerate ensemble")
    rows = table.splitlines()[1:]
    if len(rows) != w.variants:
        problems.append(f"bias.csv has {len(rows)} rows, expected {w.variants}")
    for row in rows:
        bias = float(row.rsplit(",", 1)[1])
        if not (math.isfinite(bias) and 0.0 <= bias <= 1.0):
            problems.append(f"bias {bias} not a finite value in [0, 1]: {row}")
    return problems


def check_boundary(w: Workload, out_dir: str) -> list[str]:
    text = _read(out_dir, "boundary_grid.csv")
    if text is None:
        return ["boundary_grid.csv missing"]
    lines = text.splitlines()
    if lines[0] != "x1,x2,probability,hard_label":
        return [f"unexpected header {lines[0]!r}"]
    rows = lines[1:]
    problems = []
    if len(rows) != w.resolution ** 2:
        problems.append(f"{len(rows)} grid rows, expected {w.resolution ** 2}")
    for i, row in enumerate(rows):
        _, _, p, label = row.split(",")
        p = float(p)
        if not (0.0 <= p <= 1.0) or label != ("1" if p >= 0.5 else "0"):
            problems.append(f"grid row {i}: probability {p} with hard_label {label}")
            break
    return problems


def _cv(repeats: int, extra: tuple[str, ...], models: int) -> Workload:
    return Workload("cv_sonar", SONAR, ("cv",), (f"repeats={repeats}", *extra),
                    models, check_cv)


def _bias(ensemble: int, extra: tuple[str, ...]) -> Workload:
    variants = len(BIAS_VARIANTS.split(","))
    return Workload("bias_mixed", SONAR,
                    ("bias", "--variants", BIAS_VARIANTS,
                     "--ensemble-size", str(ensemble)),
                    extra, variants * ensemble, check_bias, variants=variants)


def _boundary(resolution: int, extra: tuple[str, ...]) -> Workload:
    return Workload("boundary_dense", IONOSPHERE,
                    ("boundary", "--features", "0,2",
                     "--resolution", str(resolution)),
                    extra, 1, check_boundary, resolution=resolution)


# "full" is the benchmark; "tiny" only serves the benchmark's own smoke test.
WORKLOADS = {
    "full": {w.name: w for w in (
        _cv(1, ("epochs=50",), 10),
        _bias(5, ("epochs=25",)),
        _boundary(600, ()),
    )},
    "tiny": {w.name: w for w in (
        _cv(1, ("k=3", "epochs=20"), 3),
        _bias(2, ("epochs=5",)),
        _boundary(20, ("epochs=5",)),
    )},
}
