"""scripts/bench_pairs.py's summary, on hand-made runs: no benchmark is started."""

import importlib.util
import json
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def run(run_s, models_per_s=1.0, **rest):
    """A successful run of `bench/run.py` as `bench_run` records it."""
    metrics = dict.fromkeys(m["name"] for m in SPEC["end_to_end"])
    metrics.update(run_s=run_s, models_per_s=models_per_s, setup_s=0.1, cpu_s=run_s,
                   peak_rss_mb=40.0)
    return {"seed": 0, "environment": {"nproc": 1}, "attempted": 3, "failed": 0,
            "metrics": metrics, **rest}


def pair(i, parent, change):
    return {"seed": i, "first": "parent" if i % 2 else "change",
            "parent": parent, "change": change}


def test_quartiles_wins_ties_and_order_effect():
    # run_s: the change wins pairs 1, 2 and 4, ties pair 3 and loses pair 5
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 1.0, 3.0, 3.0, 6.0]
    # models_per_s is higher-better: the change wins pair 1 and ties the rest
    pairs = [pair(i, run(p, models_per_s=1.0), run(c, models_per_s=1.0 + (i == 1)))
             for i, (p, c) in enumerate(zip(parent, change), 1)]
    got = bench_pairs.summarize(pairs, SPEC)
    run_s = got["metrics"]["run_s"]
    assert run_s["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert run_s["change"] == {"q1": 1.0, "median": 3.0, "q3": 3.0}
    assert (run_s["pairs_won"], run_s["pairs_lost"]) == (3, 1)
    assert run_s["change_pct"] == 0.0 and not run_s["beyond_parent_iqr"]
    assert [p["change"] for p in run_s["pairs"]] == change
    mps = got["metrics"]["models_per_s"]
    assert (mps["pairs_won"], mps["pairs_lost"]) == (1, 0)
    assert mps["change_pct"] == 0.0
    # first minus second run_s: the parent ran first in pairs 1, 3 and 5
    assert got["order_effect_run_s"] == -1.0  # of 0.5, -1.0, 0.0, -1.0, -1.0
    assert (got["runs_attempted"], got["runs_failed"], got["errors"]) == (10, 0, [])
    assert got["parent_executions"] == {"attempted": 15, "failed": 0}
    assert got["environment"] == {"parent": {"nproc": 1}, "change": {"nproc": 1}}


def test_gain_beyond_the_parents_spread():
    pairs = [pair(i, run(1.0 + 0.01 * i), run(0.9 + 0.01 * i)) for i in range(1, 11)]
    run_s = bench_pairs.summarize(pairs, SPEC)["metrics"]["run_s"]
    assert run_s["pairs_won"] == 10 and run_s["beyond_parent_iqr"]
    assert run_s["change_pct"] == pytest.approx(-100 * 0.1 / 1.055)


def test_a_failed_run_is_left_out_and_fails_the_comparison(monkeypatch, tmp_path):
    runs = iter([run(1.0), run(0.9),
                 {**run(1.0), "failed": 1, "error": "exit 0: payload bytes differ"}, run(0.9)])
    monkeypatch.setattr(bench_pairs, "bench_run", lambda *args: next(runs))
    out = tmp_path / "bench.json"
    argv = [str(REPO), str(REPO), "--workload", "cv_sonar", "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    got = json.loads(out.read_text())
    assert (got["pairs_compared"], got["runs_attempted"], got["runs_failed"]) == (1, 4, 1)
    # pair 2 runs the change first, so the third run made is the change's
    assert got["errors"] == ["pair 2, change: exit 0: payload bytes differ"]
    assert got["change_executions"] == {"attempted": 6, "failed": 1}
    assert got["parent_executions"] == {"attempted": 6, "failed": 0}
    assert got["metrics"]["run_s"]["pairs_won"] == 1
    assert got["seeds"] == [1, 2]
