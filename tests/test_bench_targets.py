import importlib.util
import sys
from pathlib import Path

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
