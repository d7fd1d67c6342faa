"""One repeat of one workload in a fresh process; prints one JSON line.

Started by run.py, which passes the CLOCK_MONOTONIC time at which it
launched this process, so set-up time covers interpreter start, imports
and instance construction.  The timed region runs the round's operations
back to back; checks run after it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import mixshor
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("MIXSHOR_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    if Path(mixshor.__file__).resolve().parent != SRC / "mixshor":
        print(f"mixshor imported from {mixshor.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    scope = tracer.operation if tracer else nullcontext

    first_call = time.monotonic()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    outputs = []
    for op in ops:
        try:
            with scope():
                outputs.append((op.call(), None))
        except Exception:
            outputs.append((None, traceback.format_exc()))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    problems, fingerprints, failed = [], [], 0
    for op, (out, error) in zip(ops, outputs):
        found = [error] if error else op.check(out)
        if found:
            failed += 1
            problems += [f"{op.label}: {p}" for p in found]
        fingerprints.append(None if error else op.fingerprint(out))

    record = {
        "setup_s": first_call - args.launched,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "fingerprints": fingerprints,
        "env": environment(),
    }
    if tracer:
        record["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
