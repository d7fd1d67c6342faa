"""Tests of the benchmark's own checks and tracing.

Each check must accept what the program outputs today and reject a
perturbed copy of it.  Run from the repository root:

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mixshor import circuit, experiments  # noqa: E402
from mixshor.circuit import InitialStateKind  # noqa: E402
from mixshor.entanglement import CLAMP_TOL  # noqa: E402


def test_closed_form_matches_program_oracles():
    for N in range(6, 32):
        if all(N % d for d in range(2, N)):
            continue
        for a in range(2, N):
            if math.gcd(a, N) != 1:
                continue
            inst = circuit.build_instance(N, a)
            for kind in checks.KINDS:
                ref = circuit.reference_distribution(inst, InitialStateKind(kind))
                assert np.max(np.abs(checks.outcome_distribution(N, a, kind) - ref)) < 1e-12
            assert np.array_equal(checks.success_mask(N, a), experiments.extraction_success_mask(inst))


def test_noise_reference_for_15():
    assert checks.noise_reference(15, 2) == pytest.approx((0.0625, 0.5), abs=1e-12)


@pytest.mark.parametrize("N,a,kind", [(15, 2, "mixed-n"), (21, 2, "mixed-full"), (16, 3, "pure")])
def test_leaf_check(N, a, kind):
    dist = experiments.tree_leaf_distribution(circuit.build_instance(N, a), InitialStateKind(kind))
    ref = checks.outcome_distribution(N, a, kind)
    assert checks.check_leaf(dist, ref) == []
    moved = dist.copy()
    moved[np.argmax(moved)] -= 1e-8
    moved[np.argmin(moved)] += 1e-8
    assert checks.check_leaf(moved, ref)
    assert checks.check_leaf(dist * (1 + 1e-8), ref)
    assert checks.check_leaf(dist[:-1], ref)


def test_leaf_pairs_cover_every_composite_twice():
    pairs = workloads.leaf_pairs()
    composites = [N for N in range(6, 32) if any(N % d == 0 for d in range(2, N))]
    assert sorted({N for N, _ in pairs}) == composites
    assert len(pairs) == 2 * len(composites) - 1  # N = 6 has the single base 5


@pytest.fixture(scope="module")
def noise_counts():
    inst = circuit.build_instance(15, 2)
    return {
        channel: [
            row.successes
            for row in experiments.monte_carlo_sweep(
                inst, InitialStateKind.PURE, channel, workloads.NOISE_PROBS,
                workloads.NOISE_RUNS, exclude_control=False, seed=7,
            )
        ]
        for channel in workloads.NOISE_CHANNELS
    }


def test_noise_check(noise_counts):
    baseline, exact = checks.noise_reference(15, 2)
    probs, runs = workloads.NOISE_PROBS, workloads.NOISE_RUNS

    def check(counts):
        return checks.check_noise_rates(counts, probs, runs, baseline, exact)

    assert check(noise_counts) == []
    assert check({"pauli": [int(0.7 * runs), noise_counts["pauli"][1]]})
    assert check({"pauli": [noise_counts["pauli"][0], 0]})
    assert check({"pauli": noise_counts["pauli"][::-1]})


def test_repeats_of_one_seed_must_agree(noise_counts):
    def record(fingerprints):
        times = dict.fromkeys(["setup_s", "wall_s", "cpu_s", "peak_rss_mb"], 1.0)
        return dict(times, attempted=2, failed=0, problems=[], traced=False, fingerprints=fingerprints)

    same = list(noise_counts.values())
    bumped = [[same[0][0] + 1, same[0][1]], same[1]]
    args = types.SimpleNamespace(trace=0)
    result, problems = run.summarize(args, [record(same), record(same)])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 4, 0)
    result, problems = run.summarize(args, [record(same), record(bumped), record(same)])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 6, 1)


def test_crossing_check():
    (op,) = workloads.crossing15(0)
    eps = op.call()
    assert op.check(eps) == []
    assert op.check(eps + 0.01)
    assert op.check(eps - 0.01)


def test_ensemble_check():
    (op,) = workloads.ensemble4(0)
    reports = op.call()
    assert op.check(reports) == []
    points = [(r.avg_logneg, r.mixedness) for r in reports]

    def check(pts):
        return checks.check_ensemble(pts, 4, CLAMP_TOL)

    risen = list(points)
    risen[5] = (risen[5][0], risen[4][1] + 1e-9)
    assert check(risen)
    assert check([(points[0][0] + 1e-6, points[0][1])] + points[1:])
    assert check([(points[0][0], points[0][1] + 1e-6)] + points[1:])
    reports[3] = dataclasses.replace(reports[3], mixedness=reports[2].mixedness + 1e-9)
    assert op.check(reports)


def test_covered_merges_overlapping_children():
    spans = [(0, 0, "x", s, e, 0, None) for s, e in [(1.0, 2.0), (1.5, 3.0), (4.0, 6.0)]]
    assert tracing._covered(0.0, 5.0, spans) == pytest.approx(3.0)


def test_tracer_counts_calls_and_restores_functions():
    original = circuit.measure_control
    inst = circuit.build_instance(6, 5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.operation():
            experiments.tree_leaf_distribution(inst, InitialStateKind.MIXED_FULL)
    finally:
        tracer.uninstall()
    assert circuit.measure_control is original
    layers = {k: v["value"] for k, v in tracer.layer_metrics().items()}
    # 5 has order 2 mod 6, a power of two, so the tree is pruned.
    assert layers["experiments.tree_leaf_distribution.calls"] == 1
    assert layers["circuit.measure_control.calls"] == layers["circuit.run_stage_gates.calls"]
    assert layers["circuit.dead_branches"] > 0
    assert 99.0 < layers["experiments.tree_leaf_distribution.pct"] <= 100.0


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layers = dict(tracing.layer_metric_units(), **{"trace.overhead_pct": "%"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
