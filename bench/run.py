"""The xmargin benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each execution of the workload is a fresh
interpreter that calls `xmargin.cli.main` once; executions run one after
another while the next one should end within S seconds (at least two, so
that their payloads can be compared byte for byte). Every output is
checked for correctness. With --trace 0 the end-to-end metrics of BENCHMARK.json are reported; with
--trace 1, untraced and traced executions alternate and the per-layer
metrics are reported. A host-speed probe runs between the timed steps, and
every end-to-end time is scaled to the reference host speed (see
`host_probe`). The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
from workloads import WORKLOADS, payload_digest

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

# One BLAS thread: the default of one thread per core was neither faster nor
# steady on these tiny matrices, and it doubled the CPU time. XMARGIN_THREADS
# stays unset, which is the program's default of sequential CV cells.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
UNSET_ENV = ("XMARGIN_THREADS",)
EXEC_TIMEOUT_S = 150

# The host's speed drifts by up to about 1.5x, in phases of seconds to
# minutes, because other tenants share its cores; a median over one run
# cannot remove that. So a fixed probe is timed before the first and after
# every timed step, and each step's wall and CPU seconds are multiplied by
# PROBE_REF_S over the mean of the two probes around it: seconds at the host
# speed at which the probe takes PROBE_REF_S.
PROBE_LOOPS = 800_000
PROBE_ROWS = 25_000
PROBE_REF_S = 0.160


class BenchError(Exception):
    pass


def host_probe() -> float:
    """Wall seconds, in this process, of the two kinds of work the workloads
    do: a pure-Python integer loop (bytecode dispatch, as in the training
    steps) and building and formatting rows of floats (allocation and
    `repr`, as in the CSV reports)."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    rows = [(i * 0.37, i * 1.1, i * 0.0123) for i in range(PROBE_ROWS)]
    "\n".join(",".join(repr(v) for v in row) for row in rows)
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    for key in UNSET_ENV:
        env.pop(key, None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=EXEC_TIMEOUT_S)


def time_setup(w, seed: int) -> float:
    """Wall time of one fresh process that imports xmargin.cli, loads and
    validates the config and load_csv's the dataset."""
    start = time.perf_counter()
    try:
        proc = spawn(["setup", w.preset, *w.setup_overrides(seed)])
    except subprocess.TimeoutExpired:
        raise BenchError(f"setup probe timed out after {EXEC_TIMEOUT_S} s") from None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"setup probe exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace')[-500:]}")
    return elapsed


def execute(w, seed: int, run_id: int, traced: bool) -> dict:
    """One execution: returns its measurements, payload digest and any
    correctness problems."""
    out_rel = os.path.join(".bench_work", "out", w.name)
    out_dir = os.path.join(ROOT, out_rel)
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = os.path.join(WORK, "result.json")
    trace_path = os.path.join(WORK, "spans-run.json") if traced else "-"
    for path in (result_path, trace_path):
        if os.path.exists(path):
            os.remove(path)
    rec = {"run_id": run_id, "traced": traced, "problems": []}
    try:
        proc = spawn(["run", result_path, trace_path, *w.argv(seed, out_rel)])
    except subprocess.TimeoutExpired:
        rec["problems"].append(f"timed out after {EXEC_TIMEOUT_S} s")
        return rec
    if proc.returncode != 0:
        rec["problems"].append(f"exit code {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-500:]}")
        return rec
    with open(result_path) as fh:
        rec.update(json.load(fh))
    rec["problems"] += w.check(w, out_dir)
    rec["digest"] = payload_digest(out_dir)
    if traced:
        with open(trace_path) as fh:
            trace = json.load(fh)
        rec["spans"] = trace["spans"]
        rec["layers"] = tracer.layer_metrics(trace["spans"], trace["counts"])
    shutil.rmtree(out_dir, ignore_errors=True)
    return rec


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):  # never look above the checkout
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "xmargin", "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_version,
        **PINNED_ENV,
        **{key: "unset" for key in UNSET_ENV},
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def speed_scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two host probes into
    seconds at the reference host speed."""
    return PROBE_REF_S / ((before + after) / 2)


def end_to_end(w, runs: list[dict], setups: list[float]) -> dict:
    """Medians over the successful untraced executions; `setups` and each
    execution's `scale` come from `speed_scale`."""
    ok = [r for r in runs if not r["problems"] and not r["traced"]]
    run_s = statistics.median(r["run_s"] * r["scale"] for r in ok)
    return {
        "run_s": run_s,
        "models_per_s": w.models / run_s,
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["cpu_s"] * r["scale"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def per_layer(runs: list[dict]) -> dict:
    plain = [r["run_s"] for r in runs if not r["problems"] and not r["traced"]]
    traced = [r for r in runs if not r["problems"] and r["traced"]]
    if not plain or not traced:
        raise BenchError("no successful untraced and traced execution to compare")
    out = {}
    for key in traced[0]["layers"]:
        values = [r["layers"][key] for r in traced if r["layers"][key] is not None]
        # median_low returns a measured value, so counts stay whole numbers
        out[key] = statistics.median_low(values) if values else None
    out["trace.overhead_ratio"] = (statistics.median(r["run_s"] for r in traced)
                                   / statistics.median(plain) - 1.0)
    return out


def write_spans(w, seed: int, runs: list[dict]) -> str:
    path = os.path.join(WORK, "trace", f"{w.name}-seed{seed}.jsonl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for r in runs:
            for name, start, end, parent in r.get("spans", ()):
                fh.write(json.dumps({"run": r["run_id"], "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(WORKLOADS), default="full",
                        help="'tiny' shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    workloads = WORKLOADS[args.size]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    w = workloads[args.workload]

    for path in ("BENCHMARK.json", "src/xmargin/cli.py", w.preset):
        if not os.path.isfile(os.path.join(ROOT, path)):
            print(f"error: {path} not found; run from the repository root",
                  file=sys.stderr)
            return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    os.environ.update(PINNED_ENV)
    for key in UNSET_ENV:
        os.environ.pop(key, None)
    os.makedirs(WORK, exist_ok=True)
    print("environment: " + json.dumps(environment(), sort_keys=True))
    # Every timed step and every host probe runs on the same CPU (child
    # processes inherit the affinity), so that the probes measure the speed
    # of the CPU the steps ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    try:
        time_setup(w, args.seed)  # untimed warm-up: fills the bytecode and file caches
        setups, probes, runs = [], [host_probe()], []
        deadline = time.perf_counter() + args.seconds
        last = 0.0
        # Start another round only if it should end before the deadline. With
        # --trace 0 a set-up probe precedes each execution, so the probes
        # sample the same stretch of a noisy host's time as the executions.
        # A host-speed probe follows every timed step.
        while len(runs) < 2 or time.perf_counter() + last < deadline:
            start, first_probe = time.perf_counter(), len(probes) - 1
            if not args.trace:
                setup_s = time_setup(w, args.seed)
                probes.append(host_probe())
                setups.append(setup_s * speed_scale(*probes[-2:]))
            rec = execute(w, args.seed, len(runs), traced=bool(args.trace) and len(runs) % 2 == 1)
            probes.append(host_probe())
            rec["scale"] = speed_scale(*probes[-2:])
            last = time.perf_counter() - start
            runs.append(rec)
            status = "; ".join(rec["problems"]) or "ok"
            print(f"run {rec['run_id']}{' traced' if rec['traced'] else ''}: "
                  + (f"setup_s={setup_s!r} " if not args.trace else "")
                  + f"run_s={rec.get('run_s', float('nan'))!r} host_probe_s="
                  + ",".join(repr(p) for p in probes[first_probe:]) + f" {status}",
                  file=sys.stderr)
        reference = next((r["digest"] for r in runs if "digest" in r), None)
        for r in runs:
            if "digest" in r and r["digest"] != reference:
                r["problems"].append("payload bytes differ from an earlier run of this seed")
        if not any(not r["problems"] and not r["traced"] for r in runs):
            raise BenchError("no untraced execution succeeded: "
                             + "; ".join(p for r in runs for p in r["problems"]))
        metrics = per_layer(runs) if args.trace else end_to_end(w, runs, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    if args.trace:
        print(f"spans: {os.path.relpath(write_spans(w, args.seed, runs), ROOT)}")
    failed = sum(1 for r in runs if r["problems"])
    for name, value in metrics.items():
        print(f"{name}: {value} {declared[name]}")
    print(f"host_probe: median {statistics.median(probes)} s over {len(probes)} probes "
          f"(reference {PROBE_REF_S} s)")
    print(f"failed_ops_ratio: {failed / len(runs)} ratio ({failed}/{len(runs)} runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
