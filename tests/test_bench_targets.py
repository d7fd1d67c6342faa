import importlib.util
import sys
from pathlib import Path

from mixshor import experiments
from mixshor.circuit import InitialStateKind, build_instance

PURE = InitialStateKind.PURE
MIXED_N = InitialStateKind.MIXED_N

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _traced(tracing, call):
    """The per-layer metric values of one traced operation running `call`."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation():
            call()
    finally:
        tracer.uninstall()
    return {name: metric["value"] for name, metric in tracer.layer_metrics().items()}


def test_trace_targets_exist_and_are_callable(monkeypatch):
    # the benchmark's tracer patches these attributes by name, so renaming
    # or deleting one breaks its per-layer metrics
    tracing = _load_tracing(monkeypatch)
    for module, attr, name, _ in tracing.TARGETS:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, name)


def test_tracer_counts_the_measures_of_a_tree(monkeypatch):
    # the tracer wraps module attributes, so the tree must reach both
    # measures through entanglement's own globals: a name imported into
    # experiments would keep the unwrapped function and count nothing
    tracing = _load_tracing(monkeypatch)
    inst = build_instance(9, 2)
    points = [point for _, point, *_ in experiments._tree_steps((inst,), MIXED_N, 0.0)]
    layers = _traced(tracing, lambda: experiments.tree_profile(inst, MIXED_N))
    assert layers["entanglement.average_log_negativity.calls"] == len(points)
    assert layers["entanglement.mixedness.calls"] == sum(point % 2 for point in points)
    assert layers["numpy.eigvalsh.calls"] > 0


def test_tracer_counts_the_trajectory_chunks_of_a_sweep(monkeypatch):
    # the sweep steps every chunk through the module global run_trajectory,
    # so the tracer sees one call per chunk and grid point: 37 runs at
    # d = 32 make chunks of 32 and 5, at two noise probabilities
    tracing = _load_tracing(monkeypatch)
    inst = build_instance(15, 2)

    def sweep():
        experiments.monte_carlo_sweep(inst, PURE, "pauli", [0.1, 0.3], 37, False, seed=1)

    assert _traced(tracing, sweep)["experiments.run_trajectory.calls"] == 4
