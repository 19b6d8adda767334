"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload text_train --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout: it imports the program from the
checkout's ``src`` directory.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs the workload's fixed work
list untraced, then traced, and reports the per-layer metrics.  The line
before the result records the environment.  Spans and results are also
written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

BLAS_THREADS = 1       # fixed so that runs on a busy or larger box stay comparable
# setup_s is the median over set-ups, each with its warm-up, made at the start
# of each of SETUP_REPEATS parts of the run; a part repeats its set-up until
# SETUP_PART_S have passed, so that cheap set-ups get many samples
SETUP_REPEATS = 3
SETUP_PART_S = 0.5
TRACE_PASSES = 3       # the traced run alternates this many untraced and traced passes
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment(args, np, load_start) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": "smoke" if args.smoke else "full",
    }


def run_untraced(workload_cls, args, sizes, work_dir, ledger) -> dict:
    """The timed loop runs in SETUP_REPEATS parts, each on a fresh set-up,
    so that the set-up samples span the run as the timed samples do."""
    import workloads

    setups, samples = [], {}
    timed_s = 0.0
    for part in range(SETUP_REPEATS):
        start = time.perf_counter()
        while True:
            workload = None  # free the previous set-up's models first
            workload = workload_cls(args.seed, sizes, work_dir)
            began = time.perf_counter()
            workload.setup()
            workload.warm_up(ledger)
            setups.append(time.perf_counter() - began)
            if time.perf_counter() - start >= SETUP_PART_S:
                break
        began = time.perf_counter()
        workload.timed((args.seconds - timed_s) / (SETUP_REPEATS - part), ledger, samples)
        timed_s += time.perf_counter() - began
    peak = peak_rss_mb()  # of the workload; the checks below may load a second model
    workload.check(ledger)
    return {"setup_s": statistics.median(setups), "peak_rss_mb": peak,
            "work_per_s": workloads.work_per_s(samples)}


def run_traced(workload_cls, args, sizes, work_dir, ledger, run_id, autodiff, out_dir):
    import layers
    from tracer import Tracer

    workload = workload_cls(args.seed, sizes, work_dir)
    workload.setup()
    workload.warm_up(ledger)
    tracer = Tracer(run_id)
    figures, untraced, windows = [], [], []
    for _ in range(TRACE_PASSES):
        start = time.perf_counter()
        figures.append(workload.fixed_work(ledger))
        untraced.append(time.perf_counter() - start)
        layers.instrument(tracer, autodiff)
        try:
            start = time.perf_counter()
            workload.fixed_work(ledger)
            windows.append((start, time.perf_counter()))
        finally:
            tracer.restore()
    tracer.write(os.path.join(out_dir, f"{run_id}.spans.jsonl"))
    if tracer.missing:
        print(f"absent (not found in the program): {', '.join(sorted(tracer.missing))}",
              file=sys.stderr)
    medians = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    return layers.layer_metrics(tracer, windows, untraced, medians, ledger.attempted, ledger.failed)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "s2t", "__init__.py")):
        print(f"error: the program is missing ({src}/s2t not found)", file=sys.stderr)
        return 2
    load_start = os.getloadavg()[0]
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)

    import numpy as np
    from s2t import autodiff
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    out_dir = os.path.join(root, ".bench_out")
    work_dir = os.path.join(root, ".bench_work", run_id)
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work_dir)
    ledger = workloads.Ledger()
    workload_cls = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            values = run_traced(workload_cls, args, sizes, work_dir, ledger, run_id, autodiff, out_dir)
        else:
            values = {name: (value, END_TO_END_UNITS[name]) for name, value in
                      run_untraced(workload_cls, args, sizes, work_dir, ledger).items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = {name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
               for name, (value, unit) in values.items()}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    env = environment(args, np, load_start)
    with open(os.path.join(out_dir, f"{run_id}.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result}, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
