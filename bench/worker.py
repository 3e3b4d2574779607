"""One measured step of the benchmark, in a fresh interpreter.

    worker.py setup <preset> <override>...
        import xmargin.cli, load and validate the config, load_csv the
        dataset, and exit; the parent times the whole process.
    worker.py run <result.json> <trace.json|-> <xmargin argv>...
        call xmargin.cli.main(argv) once; write its wall time and the
        process's CPU time and peak RSS to result.json and, when a trace
        path is given, the spans of the traced call to that path.

Run from the checkout root with src/ on PYTHONPATH; `run.py` starts it.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def setup(preset: str, overrides: list[str]) -> int:
    from xmargin import cli
    from xmargin.data_pipeline import load_csv

    cfg = cli.load_config(preset, overrides)
    cli.validate(cfg)
    data = load_csv(cfg.dataset, label_column=cfg.label_column,
                    default_class_raw_label=cfg.default_label or None,
                    header=cfg.header)
    return 0 if data.n > 0 else 2


def run(result_path: str, trace_path: str, argv: list[str]) -> int:
    from xmargin import cli

    main, tracer = cli.main, None
    if trace_path != "-":
        import tracer as tracing

        tracer = tracing.Tracer()
        main = tracing.install(tracer)
    start = time.perf_counter()
    rc = main(argv)
    run_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(result_path, "w") as fh:
        json.dump({"run_s": run_s,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}, fh)
    if tracer is not None:
        with open(trace_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(setup(rest[0], rest[1:]))
    sys.exit(run(rest[0], rest[1], rest[2:]))
