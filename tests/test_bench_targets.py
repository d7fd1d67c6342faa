import importlib.util
import sys
from pathlib import Path

from mixshor import experiments
from mixshor.circuit import InitialStateKind, build_instance

MIXED_N = InitialStateKind.MIXED_N

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_trace_targets_exist_and_are_callable(monkeypatch):
    # the benchmark's tracer patches these attributes by name, so renaming
    # or deleting one breaks its per-layer metrics
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, name, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, name)


def test_tracer_counts_the_measures_of_a_tree(monkeypatch):
    # the tracer wraps module attributes, so the tree must reach both
    # measures through entanglement's own globals: a name imported into
    # experiments would keep the unwrapped function and count nothing
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    inst = build_instance(9, 2)
    points = [point for point, *_ in experiments._tree_steps(inst, MIXED_N, 0.0)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation():
            experiments.tree_profile(inst, MIXED_N)
    finally:
        tracer.uninstall()
    layers = {name: metric["value"] for name, metric in tracer.layer_metrics().items()}
    assert layers["entanglement.average_log_negativity.calls"] == len(points)
    assert layers["entanglement.mixedness.calls"] == sum(point % 2 for point in points)
    assert layers["numpy.eigvalsh.calls"] > 0
