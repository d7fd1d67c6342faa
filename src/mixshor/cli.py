"""Command-line front end: experiment selection, CSV and plot emission.

Exit codes: 0 success, 2 validation error (nothing computed), 1 runtime
error.  CSV output is UTF-8 with LF line endings, a header line and
12-significant-digit floats, so identical invocations (including the
seed) produce byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import experiments, noise, svgplot
from .circuit import InitialStateKind, build_instance, reference_distribution

__all__ = ["parse_and_run", "write_csv", "main"]

_KINDS = {kind.value: kind for kind in InitialStateKind}

# Range grids: values are rounded to 12 decimals and ends match within
# that rounding; a range may hold at most _MAX_GRID_POINTS values.
_GRID_ROUNDING = 1e-12
_MAX_GRID_POINTS = 10**6


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def write_csv(rows, schema, path) -> None:
    """Write homogeneous rows under a header; floats get 12 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(schema) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _parse_values(text: str) -> list[float]:
    """Grid syntax: either 'v1,v2,...' or 'start:stop:step' (ends inclusive).

    Every part must be a finite number, no item may be empty, and the
    grid must not be empty.  A range's
    point count is computed in closed form before any point is: a step
    below the grid's 1e-12 rounding, or more than _MAX_GRID_POINTS points,
    is rejected.
    """
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise ValueError(f"bad range {text!r}, expected start:stop:step")
        start, stop, step = _finite(pieces, text)
        if step <= 0:
            raise ValueError("range step must be positive")
        if step < _GRID_ROUNDING:
            raise ValueError(f"range step {step:g} is below the grid rounding {_GRID_ROUNDING:g}")
        end = stop + _GRID_ROUNDING
        span = (end - start) / step  # +-inf when the subtraction overflows
        if span >= _MAX_GRID_POINTS:
            raise ValueError(f"range {text!r} has more than {_MAX_GRID_POINTS} points")
        values = []
        for i in range(math.floor(max(span, 0.0)) + 2):  # one spare point for round-off
            if (v := start + i * step) > end:
                break
            values.append(round(v, 12))
    else:
        values = _finite(text.split(","), text)
    if not values:
        raise ValueError(f"grid {text!r} is empty")
    return values


def _finite(pieces, text: str) -> list[float]:
    if not all(pieces):
        raise ValueError(f"grid {text!r} has an empty item")
    values = [float(p) for p in pieces]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid {text!r} has a non-finite value")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixshor",
        description="Density-matrix simulation of single-control-qubit period finding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_args(p):
        p.add_argument("--n", type=int, required=True, help="number to factor, N")
        p.add_argument("--a", type=int, required=True, help="base coprime to N")

    def add_kind(p, default="pure"):
        p.add_argument("--kind", choices=sorted(_KINDS), default=default)

    def add_output(p):
        p.add_argument("--out", required=True)
        p.add_argument("--emit-plot", action="store_true")

    p = sub.add_parser("profile", help="exact per-stage entanglement and mixedness")
    add_instance_args(p)
    add_kind(p)
    p.add_argument("--epsilon", type=float, default=0.0, help="control mixing strength")
    add_output(p)
    p.set_defaults(run=_cmd_profile)

    p = sub.add_parser("ensemble", help="stage profile averaged over all (N, a)")
    p.add_argument("--bits", type=int, choices=(4, 5), required=True)
    add_kind(p, default="mixed-n")
    add_output(p)
    p.set_defaults(run=_cmd_ensemble)

    p = sub.add_parser("noise", help="Monte Carlo success counts over noise levels")
    add_instance_args(p)
    add_kind(p)
    p.add_argument("--noise", choices=(noise.MEASUREMENT, noise.PAULI), required=True)
    p.add_argument("--probs", required=True, help="list v1,v2,... or range start:stop:step")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exclude-control", action="store_true")
    add_output(p)
    p.set_defaults(run=_cmd_noise)

    p = sub.add_parser("mix", help="exact success and entanglement vs control mixing")
    add_instance_args(p)
    add_kind(p)
    p.add_argument("--epsilons", required=True, help="list v1,v2,... or range start:stop:step")
    add_output(p)
    p.set_defaults(run=_cmd_mix)

    p = sub.add_parser("baseline", help="success probability of uniform random outcomes")
    add_instance_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_baseline)

    p = sub.add_parser("oracle-check", help="compare the staged engine to the closed-form oracle")
    add_instance_args(p)
    p.add_argument("--tol", type=float, default=1e-9, help="finite and positive")
    p.set_defaults(run=_cmd_oracle_check)

    return parser


def _emit(args, rows, series, xlabel, ylabel, title) -> int:
    """Write dataclass `rows`, one column per field, as CSV to --out and, with
    --emit-plot, `series` as an SVG beside it.
    """
    header = [field.name for field in dataclasses.fields(rows[0])]
    write_csv([dataclasses.astuple(row) for row in rows], header, args.out)
    if args.emit_plot:
        svgplot.write_line_plot(
            _plot_path(args.out), series, xlabel=xlabel, ylabel=ylabel, title=title
        )
    return 0


def _emit_stage_reports(args, reports, title) -> int:
    idx = list(range(len(reports)))
    series = {
        "avg_logneg": (idx, [r.avg_logneg for r in reports]),
        "mixedness": (idx, [r.mixedness for r in reports]),
    }
    return _emit(args, reports, series, "sampling point", "value", title)


def _cmd_profile(args) -> int:
    inst = build_instance(args.n, args.a)
    result = experiments.tree_profile(inst, _KINDS[args.kind], epsilon=args.epsilon)
    return _emit_stage_reports(args, result.reports, f"N={args.n} a={args.a} kind={args.kind}")


def _cmd_ensemble(args) -> int:
    reports = experiments.ensemble_profile(args.bits, _KINDS[args.kind])
    return _emit_stage_reports(args, reports, f"{args.bits}-digit ensemble, kind={args.kind}")


def _cmd_noise(args) -> int:
    inst = build_instance(args.n, args.a)
    sweep = experiments.monte_carlo_sweep(
        inst, _KINDS[args.kind], args.noise, _parse_values(args.probs), args.runs,
        exclude_control=args.exclude_control, seed=args.seed,
    )
    series = {"success rate": ([r.prob for r in sweep], [r.rate for r in sweep])}
    title = f"N={args.n} a={args.a} {args.noise} noise"
    return _emit(args, sweep, series, "noise probability", "success rate", title)


def _cmd_mix(args) -> int:
    inst = build_instance(args.n, args.a)
    sweep = experiments.mix_sweep(inst, _KINDS[args.kind], _parse_values(args.epsilons))
    epsilons = [r.epsilon for r in sweep]
    series = {
        "success_prob": (epsilons, [r.success_prob for r in sweep]),
        "avg_entanglement": (epsilons, [r.avg_entanglement for r in sweep]),
    }
    title = f"N={args.n} a={args.a} kind={args.kind}"
    return _emit(args, sweep, series, "epsilon", "value", title)


def _cmd_baseline(args) -> int:
    inst = build_instance(args.n, args.a)
    value = experiments.random_baseline(inst)
    if args.out:
        write_csv([(inst.N, inst.a, value)], ["N", "a", "baseline"], args.out)
    print(f"random baseline for N={inst.N}, a={inst.a}: {value:.12g}")
    return 0


def _cmd_oracle_check(args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    inst = build_instance(args.n, args.a)
    worst = 0.0
    for kind in InitialStateKind:
        leaf = experiments.tree_leaf_distribution(inst, kind)
        oracle = reference_distribution(inst, kind)
        dev = float(np.max(np.abs(leaf - oracle)))
        worst = max(worst, dev)
        print(f"kind={kind.value}: max outcome deviation {dev:.3g}")
    if worst >= args.tol:
        print(f"FAIL: deviation {worst:.3g} exceeds {args.tol:.3g}")
        return 1
    print(f"OK: engine matches the closed-form distribution within {args.tol:.3g}")
    return 0


def _plot_path(out: str) -> str:
    stem = out[:-4] if out.lower().endswith(".csv") else out
    return stem + ".svg"


def _check_writable(path: str) -> None:
    """Reject a path that is empty, ends in a separator or is unwritable, before computing."""
    target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
    names_file = os.path.basename(path) and not os.path.isdir(path)
    if not names_file or not os.access(target, os.W_OK):
        raise ValueError(f"cannot write output file {path}")


def parse_and_run(argv) -> int:
    """Parse arguments, validate them, then run the selected experiment."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    try:
        if getattr(args, "out", None) is not None:
            _check_writable(args.out)
        if getattr(args, "emit_plot", False):
            _check_writable(_plot_path(args.out))
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - surface anything else as runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
