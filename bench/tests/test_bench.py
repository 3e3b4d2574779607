"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest bench/tests -q

Run from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, payload_digest  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS["tiny"]))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        if m["name"].endswith(("_p50", "_p99")):
            # defined only with at least 10 samples beyond the percentile
            calls = metrics[m["name"].rsplit(".", 1)[0] + ".calls"]["value"]
            q = 0.5 if m["name"].endswith("_p50") else 0.99
            assert (got["value"] is None) == (calls * (1 - q) < 10)
        else:
            assert isinstance(got["value"], (int, float)), m["name"]
    if not trace:
        assert all(metrics[k]["value"] > 0 for k in metrics)
    else:
        assert metrics["optimizer.train.calls"]["value"] == WORKLOADS["tiny"][workload].models


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "cv_sonar", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _span(name, start, end, parent):
    return [name, start, end, parent]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),    # overlaps a: [1, 6] is covered once
        _span("a", 1.5, 2.0, 1),    # nested in a
        _span("c", 8.0, 9.0, 0),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx([4.0, 2.5, 3.0, 0.5, 1.0])
    assert tracer.busy(spans, {"a"}) == pytest.approx(3.0)
    assert tracer.busy(spans, {"a", "b"}) == pytest.approx(6.0)
    assert tracer.busy(spans, {"cli.main", "c"}) == pytest.approx(10.0)


def test_percentile_needs_ten_samples_beyond_it():
    assert tracer.percentile(list(range(1000)), 0.99) == 989
    assert tracer.percentile(list(range(999)), 0.99) is None
    assert tracer.percentile(list(range(20)), 0.5) == 9
    assert tracer.percentile(list(range(19)), 0.5) is None


def test_end_to_end_times_are_scaled_by_the_host_probe():
    assert run.speed_scale(run.PROBE_REF_S, run.PROBE_REF_S) == 1.0
    # the host ran at half the reference speed: every time is halved
    half = run.speed_scale(1.5 * run.PROBE_REF_S, 2.5 * run.PROBE_REF_S)
    assert half == pytest.approx(0.5)
    w = WORKLOADS["full"]["cv_sonar"]
    runs = [{"run_s": t, "cpu_s": 2 * t, "peak_rss_mb": 100.0, "scale": half,
             "problems": [], "traced": False} for t in (2.0, 6.0, 4.0)]
    runs.append({"run_s": 99.0, "cpu_s": 99.0, "peak_rss_mb": 999.0, "scale": 1.0,
                 "problems": ["exit code 1"], "traced": False})
    got = run.end_to_end(w, runs, [0.2, 0.3, 0.25])
    assert got == pytest.approx({"run_s": 2.0, "models_per_s": w.models / 2.0,
                                 "setup_s": 0.25, "cpu_s": 4.0, "peak_rss_mb": 100.0})


def _write(path, text):
    path.write_text(text)
    return path


def test_checker_flags_a_corrupted_boundary_payload(tmp_path):
    w = WORKLOADS["tiny"]["boundary_dense"]
    rows = [f"{i}.0,{j}.0,{p!r},{int(p >= 0.5)}"
            for (i, j), p in zip([(a, b) for a in range(w.resolution)
                                  for b in range(w.resolution)],
                                 [k / (w.resolution ** 2) for k in range(w.resolution ** 2)])]
    grid = _write(tmp_path / "boundary_grid.csv",
                  "x1,x2,probability,hard_label\n" + "\n".join(rows) + "\n")
    _write(tmp_path / "meta.txt", "elapsed_seconds: 1.000\n")
    assert w.check(w, str(tmp_path)) == []
    digest = payload_digest(str(tmp_path))
    _write(tmp_path / "meta.txt", "elapsed_seconds: 2.000\n")
    assert payload_digest(str(tmp_path)) == digest

    flipped = rows[-1][:-1] + ("0" if rows[-1].endswith("1") else "1")
    _write(grid, "x1,x2,probability,hard_label\n" + "\n".join(rows[:-1] + [flipped]) + "\n")
    assert w.check(w, str(tmp_path))
    assert payload_digest(str(tmp_path)) != digest

    _write(grid, "x1,x2,probability,hard_label\n" + "\n".join(rows[:-1]) + "\n")
    assert w.check(w, str(tmp_path))


def test_checker_flags_out_of_band_cv_and_degenerate_bias(tmp_path):
    cv = WORKLOADS["full"]["cv_sonar"]
    scores = ", ".join(["0.8"] * cv.models)
    report = f"payload:\n  repeat_means: [{{}}]\n  fold_scores:\n    repeat_0: [{scores}]\n"
    _write(tmp_path / "report.txt", report.format("0.8"))
    assert cv.check(cv, str(tmp_path)) == []
    _write(tmp_path / "report.txt", report.format("0.55"))
    assert cv.check(cv, str(tmp_path))

    bias = WORKLOADS["full"]["bias_mixed"]
    table = "loss_family,lambda1,lambda2,bias\n" + "bce,N/A,N/A,0.1\n" * bias.variants
    _write(tmp_path / "bias.csv", table)
    _write(tmp_path / "report.txt", "payload:\n  command: bias\n")
    assert bias.check(bias, str(tmp_path)) == []
    _write(tmp_path / "report.txt",
           "payload:\n  warnings: [degenerate ensemble for bce: all members ...]\n")
    assert bias.check(bias, str(tmp_path))
    _write(tmp_path / "report.txt", "payload:\n  command: bias\n")
    _write(tmp_path / "bias.csv", table.replace("0.1\n", "nan\n", 1))
    assert bias.check(bias, str(tmp_path))
