"""Span tracing of mixshor's layers, wrapped from outside the package.

Each wrapped function records a span (id, parent, name, start, end,
thread id, extra) in memory; spans are written out once, after the
timed region.  A span opened on a thread with no open span (a thread-pool
worker) takes the benchmark's current operation span as its parent, so
self times stay correct across threads.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import mixshor.circuit
import mixshor.densemat
import mixshor.entanglement
import mixshor.experiments
import mixshor.noise
import mixshor.numtheory


def _eigvalsh_extra(args, out):
    shape = np.shape(args[0])
    return (int(np.prod(shape[:-2], dtype=np.int64)), int(shape[-1]))


def _dead_branches(args, out):
    return sum(branch is None for _, branch in out)


# (module, attribute, span name, extra).  Several attributes may hold one
# function (experiments imports noise_pass by name); each is patched.
TARGETS = [
    (np.linalg, "eigvalsh", "numpy.eigvalsh", _eigvalsh_extra),
    (mixshor.entanglement, "average_log_negativity", "entanglement.average_log_negativity", None),
    (mixshor.entanglement, "mixedness", "entanglement.mixedness", None),
    (mixshor.circuit, "run_stage_gates", "circuit.run_stage_gates", None),
    (mixshor.circuit, "measure_control", "circuit.measure_control", _dead_branches),
    (mixshor.circuit, "reprepare_control", "circuit.reprepare_control", None),
    (mixshor.circuit, "stage_gates", "circuit.stage_gates", None),
    (mixshor.circuit, "initial_state", "circuit.initial_state", None),
    (mixshor.noise, "noise_pass", "noise.noise_pass", None),
    (mixshor.experiments, "noise_pass", "noise.noise_pass", None),
    (mixshor.noise, "depolarize_qubit", "noise.depolarize_qubit", None),
    (mixshor.noise, "dephase_qubit", "noise.dephase_qubit", None),
    (mixshor.densemat, "apply_local_gate", "densemat.apply_local_gate", None),
    (mixshor.experiments, "ensemble_profile", "experiments.ensemble_profile", None),
    (mixshor.experiments, "find_entanglement_crossing", "experiments.find_entanglement_crossing", None),
    (mixshor.experiments, "monte_carlo_sweep", "experiments.monte_carlo_sweep", None),
    (mixshor.experiments, "tree_profile", "experiments.tree_profile", None),
    (mixshor.experiments, "run_trajectory", "experiments.run_trajectory", None),
    (mixshor.experiments, "tree_leaf_distribution", "experiments.tree_leaf_distribution", None),
    (mixshor.numtheory, "extract_period", "numtheory.extract_period", None),
]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name, _ in TARGETS))
LAYERS = list(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))
ROOT = "bench.operation"

# Complex Hermitian tridiagonal reduction (zhetrd) takes 16/3 d^3 real
# flops; the tridiagonal eigenvalue solve is O(d^2) and left out.
EIGVALSH_FLOP_COEFF = 16.0 / 3.0


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.pct"] = "%"
    units["numpy.eigvalsh.matrices"] = "count"
    units["numpy.eigvalsh.gflop_computed"] = "GFLOP"
    units["circuit.dead_branches"] = "count"
    units["experiments.workers"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_pct"] = "%"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def operation(self):
        """Root span of one call from the benchmark into the program."""
        sid = next(self._ids)
        self._stack().append(sid)
        self._root = sid
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._root = None
            self._stack().pop()
            self.spans.append((sid, None, ROOT, start, end, threading.get_ident(), None))

    def _wrap(self, fn, name, extra_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            out = extra = None
            try:
                out = fn(*args, **kwargs)
                if extra_fn is not None:
                    extra = extra_fn(args, out)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end, threading.get_ident(), extra))

        return traced

    def install(self) -> None:
        wrappers = {}
        for module, attr, name, extra_fn in TARGETS:
            original = getattr(module, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(original, name, extra_fn)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\tthread\textra\n")
            for sid, parent, name, start, end, thread, extra in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\t{thread}\t{extra}\n")

    def layer_metrics(self) -> dict[str, dict]:
        """Calls, span time and self time per layer, as shares of the op time.

        Times are percentages of the summed operation spans, so a layer
        busy on two threads at once can exceed 100.
        """
        children = defaultdict(list)
        for span in self.spans:
            children[span[1]].append(span)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        busy = dict.fromkeys(SPAN_NAMES, 0.0)
        self_time = dict.fromkeys(LAYERS, 0.0)
        op_time = matrices = flop = dead = 0.0
        workers = set()
        for sid, _, name, start, end, thread, extra in self.spans:
            if name == ROOT:
                op_time += end - start
                continue
            calls[name] += 1
            busy[name] += end - start
            self_time[name.split(".")[0]] += end - start - _covered(start, end, children[sid])
            if name == "experiments.tree_profile":
                workers.add(thread)
            elif extra is None:  # the call raised
                continue
            elif name == "numpy.eigvalsh":
                matrices += extra[0]
                flop += extra[0] * EIGVALSH_FLOP_COEFF * extra[1] ** 3
            elif name == "circuit.measure_control":
                dead += extra
        pct = 100.0 / op_time
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.pct"] = busy[name] * pct
        out["numpy.eigvalsh.matrices"] = int(matrices)
        out["numpy.eigvalsh.gflop_computed"] = flop / 1e9
        out["circuit.dead_branches"] = int(dead)
        out["experiments.workers"] = len(workers)
        for layer in LAYERS:
            out[f"{layer}.self_pct"] = self_time[layer] * pct
        units = layer_metric_units()
        return {key: {"value": value, "unit": units[key]} for key, value in out.items()}


def _covered(start: float, end: float, spans) -> float:
    """Length of [start, end] covered by the union of the spans' intervals."""
    total, reach = 0.0, start
    for _, _, _, s, e, _, _ in sorted(spans, key=lambda sp: sp[3]):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total
