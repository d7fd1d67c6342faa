"""mixshor benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload ensemble4 --seed 1 --seconds 60 --trace 0

Each repeat runs the workload's round of operations in a fresh Python
process (bench/worker.py), one process at a time, with the environment
as found: no thread variable is set.  Repeats start while another one
still fits in --seconds; every metric is the median over the repeats.

--trace 0 reports the end-to-end metrics: setup_s, wall_s, cpu_s and
peak_rss_mb.  --trace 1 alternates untraced and traced repeats and
reports the per-layer metrics of the traced ones (the lower median, so
counts stay whole), plus the tracing overhead (traced minus untraced
wall time).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the full record, with
the environment, goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("ensemble4", "crossing15", "noise15", "leaf_sweep")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def run_repeat(args, traced: bool, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another repeat")
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Import from cached bytecode, as an installed package does; the first
    # repeat writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    launched = time.monotonic()
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(traced)), "--launched", repr(launched), "--spans", str(spans),
    ]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repeat exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    record = json.loads(lines[-1])
    record["traced"] = traced
    return record


def summarize(args, records) -> tuple[dict, list]:
    """The result object, and the integrity problems that make it incorrect."""
    problems = []
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len({r["attempted"] for r in records}) != 1:
        problems.append("repeats attempted different numbers of operations")
    # Repeats of one seed must reproduce each operation's fingerprint.
    first = records[0]["fingerprints"]
    for r in records[1:]:
        mismatched = sum(a != b for a, b in zip(first, r["fingerprints"]))
        if mismatched:
            failed += mismatched
            r["problems"].append(f"{mismatched} outputs differ from the first repeat")
    plain = [r for r in records if not r["traced"]]
    if args.trace:
        traced = [r for r in records if r["traced"]]
        calls = [{k: v for k, v in r["layers"].items() if k.endswith(".calls")} for r in traced]
        if any(c != calls[0] for c in calls):
            problems.append("traced repeats made different numbers of calls")
        metrics = {
            name: {
                "value": statistics.median_low(r["layers"][name]["value"] for r in traced),
                "unit": m["unit"],
            }
            for name, m in traced[0]["layers"].items()
        }
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_wall - plain_wall) / plain_wall,
            "unit": "%",
        }
    else:
        metrics = {
            name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mixshor" / "__init__.py").is_file():
        print(f"bench: no mixshor sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    modes = (False, True) if args.trace else (False,)
    records = []
    try:
        while True:
            round_start = time.monotonic()
            records += [run_repeat(args, traced, deadline) for traced in modes]
            now = time.monotonic()
            if now + (now - round_start) > start + args.seconds:
                break
    except BenchError as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    result, problems = summarize(args, records)
    for r in records:
        problems += r["problems"]
    for p in problems:
        print(f"bench: {p}", file=sys.stderr)
    env = records[0]["env"]
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump({"args": vars(args), "env": env, "records": records, "result": result}, fh, indent=1)
    print(f"# {args.workload} seed={args.seed} repeats={len(records)} env={json.dumps(env)}")
    for metric, m in result["metrics"].items():
        print(f"# {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
