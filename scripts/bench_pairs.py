"""Compare two trees on one benchmark workload in alternating pairs of runs.

    python scripts/bench_pairs.py PARENT CHANGE --workload W [--pairs 10]
        [--seconds 55] [--seed-base N] [--size full|tiny] --out BENCH_<pr>.json

PARENT and CHANGE are checkouts of this repository (say, exported with
`git archive REV | tar -x -C DIR`). Pair i (1 to --pairs) runs both trees
on seed N+i, the parent first on odd pairs and the change first on even
ones, so that an order effect falls on both sides alike. Each run is
CHANGE's `bench/run.py --trace 0`, started with its own tree's root as the
working directory: both sides are measured by the same benchmark code, and
each measures the `src/` of the tree it runs in.

The JSON written to --out holds, for each end-to-end metric of CHANGE's
`BENCHMARK.json`, the per-pair values, each side's median and quartiles,
the change of the medians in percent and the pairs the change won (the
direction from the metric's `better`; ties count for neither side), plus
the order effect (the median over pairs of first-run minus second-run
`run_s`), the runs and executions attempted and failed, and each side's
environment line. The exit code is 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, interpolated between the sorted values (as
    numpy's default percentile)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def bench_run(bench: str, tree: str, workload: str, seed: int, seconds: float,
              size: str) -> dict:
    """One `bench/run.py --trace 0` run with `tree` as the working directory:
    its metrics, execution counts and environment, and `error` when it failed."""
    proc = subprocess.run([sys.executable, bench, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0", "--size", size],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    rec = {"seed": seed, "environment": next(
        (json.loads(line.split(":", 1)[1]) for line in lines
         if line.startswith("environment: ")), None)}
    try:
        result = json.loads(lines[-1])
        rec.update(attempted=result["attempted"], failed=result["failed"],
                   metrics={k: m["value"] for k, m in result["metrics"].items()})
    except (IndexError, ValueError, KeyError, TypeError):
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        rec["error"] = f"exit {proc.returncode}: {proc.stderr[-500:]}"
    return rec


def summarize(pairs: list[dict], spec: dict) -> dict:
    """The comparison of `pairs`, each {"first": side, "parent": run,
    "change": run}, under `spec` (a BENCHMARK.json). Only pairs whose two
    runs both succeeded are compared."""
    runs = [p[side] for p in pairs for side in SIDES]
    good = [p for p in pairs if not any("error" in p[side] for side in SIDES)]
    metrics = {}
    for m in spec["end_to_end"]:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        values = {side: [p[side]["metrics"][name] for p in good] for side in SIDES}
        out = {"unit": m["unit"], "better": m["better"],
               "pairs": [{"seed": p["seed"], "first": p["first"],
                          **{side: p[side]["metrics"][name] for side in SIDES}} for p in good]}
        if good:
            out.update({side: quartiles(values[side]) for side in SIDES})
            parent, change = out["parent"]["median"], out["change"]["median"]
            out["change_pct"] = 100.0 * (change - parent) / parent
            gains = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
            out["pairs_won"] = sum(g > 0 for g in gains)
            out["pairs_lost"] = sum(g < 0 for g in gains)
            out["beyond_parent_iqr"] = (sign * (change - parent)
                                        > out["parent"]["q3"] - out["parent"]["q1"])
        metrics[name] = out
    order = [p[p["first"]]["metrics"]["run_s"]
             - p["change" if p["first"] == "parent" else "parent"]["metrics"]["run_s"]
             for p in good]
    return {
        "pairs_compared": len(good),
        "metrics": metrics,
        "order_effect_run_s": statistics.median(order) if order else None,
        "runs_attempted": len(runs),
        "runs_failed": sum("error" in r for r in runs),
        **{f"{side}_executions": {
            "attempted": sum(p[side].get("attempted", 0) for p in pairs),
            "failed": sum(p[side].get("failed", 0) for p in pairs)} for side in SIDES},
        "environment": {side: next((p[side]["environment"] for p in pairs
                                    if p[side]["environment"]), None) for side in SIDES},
        "errors": [f"pair {i}, {side}: {p[side]['error']}" for i, p in enumerate(pairs, 1)
                   for side in SIDES if "error" in p[side]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {side: getattr(args, side) for side in SIDES}
    bench = os.path.join(os.path.abspath(trees["change"]), "bench", "run.py")
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    pairs = []
    for i in range(1, args.pairs + 1):
        seed = args.seed_base + i
        pair = {"seed": seed, "first": "parent" if i % 2 else "change"}
        for side in sorted(SIDES, key=lambda s: s != pair["first"]):
            pair[side] = bench_run(bench, trees[side], args.workload, seed, args.seconds,
                                   args.size)
            print(f"pair {i} seed {seed} {side}: "
                  + (pair[side].get("error") or f"run_s={pair[side]['metrics']['run_s']!r}"),
                  file=sys.stderr, flush=True)
        pairs.append(pair)

    summary = summarize(pairs, spec)
    report = {"workload": args.workload, "size": args.size, "seconds": args.seconds,
              "trees": trees, "seeds": [p["seed"] for p in pairs], **summary}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, m in summary["metrics"].items():
        if "change_pct" in m:
            print(f"{name}: parent {m['parent']['median']!r} change {m['change']['median']!r} "
                  f"({m['change_pct']:+.2f}%), change won {m['pairs_won']} of "
                  f"{summary['pairs_compared']} pairs")
    print(f"runs failed: {summary['runs_failed']} of {summary['runs_attempted']}")
    return 1 if summary["runs_failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
