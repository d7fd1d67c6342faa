"""The benchmark workloads: their inputs, their calls into mixshor, their checks.

Each workload returns the operations of one round.  An operation is one
top-level call into the program; building the instances it needs happens
when the round is prepared, before the timed region, and its check runs
after the timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import checks
from mixshor import circuit, experiments
from mixshor.circuit import InitialStateKind
from mixshor.entanglement import CLAMP_TOL

NOISE_N, NOISE_A = 15, 2
NOISE_CHANNELS = ("pauli", "measurement")
NOISE_PROBS = (0.1, 0.3)
NOISE_RUNS = 250
CROSSING_N, CROSSING_A = 15, 2
CROSSING_REFINE_TOL = 1e-4


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    # Part of the output that must repeat exactly between runs of one seed.
    fingerprint: Callable[[object], object] = lambda out: None


def ensemble4(seed: int) -> list[Op]:
    kind = InitialStateKind.MIXED_N

    def check(reports):
        return checks.check_ensemble([(r.avg_logneg, r.mixedness) for r in reports], 4, CLAMP_TOL)

    return [Op("ensemble_profile(4, mixed-n)", lambda: experiments.ensemble_profile(4, kind), check)]


def crossing15(seed: int) -> list[Op]:
    inst = circuit.build_instance(CROSSING_N, CROSSING_A)
    kind = InitialStateKind.MIXED_FULL

    def whole_run_average(eps):
        return experiments.tree_profile(inst, kind, eps).whole_run_average_entanglement()

    def call():
        return experiments.find_entanglement_crossing(
            inst, kind, threshold=CLAMP_TOL, refine_tol=CROSSING_REFINE_TOL
        )

    def check(eps):
        return checks.check_crossing(eps, whole_run_average, CLAMP_TOL, CROSSING_REFINE_TOL)

    return [Op("find_entanglement_crossing(15, 2, mixed-full)", call, check)]


def noise15(seed: int) -> list[Op]:
    inst = circuit.build_instance(NOISE_N, NOISE_A)
    kind = InitialStateKind.PURE

    def op(channel):
        def call():
            return experiments.monte_carlo_sweep(
                inst, kind, channel, NOISE_PROBS, NOISE_RUNS, exclude_control=False, seed=seed
            )

        def check(rows):
            if [(r.prob, r.runs) for r in rows] != [(p, NOISE_RUNS) for p in NOISE_PROBS]:
                return [f"rows {rows} do not match the grid {NOISE_PROBS} x {NOISE_RUNS}"]
            baseline, exact = checks.noise_reference(NOISE_N, NOISE_A)
            counts = {channel: [r.successes for r in rows]}
            return checks.check_noise_rates(counts, NOISE_PROBS, NOISE_RUNS, baseline, exact)

        return Op(
            f"monte_carlo_sweep(15, 2, pure, {channel}, seed={seed})",
            call,
            check,
            fingerprint=lambda rows: [r.successes for r in rows],
        )

    return [op(channel) for channel in NOISE_CHANNELS]


def leaf_pairs() -> list[tuple[int, int]]:
    """(N, a) for every composite N in 6..31: the base of largest order, and N-1.

    Ties in order go to the smallest base; for N = 6 the only base is 5 = N-1.
    """
    pairs = []
    for N in range(6, 32):
        if all(N % d for d in range(2, N)):
            continue
        bases = [a for a in range(2, N) if math.gcd(a, N) == 1]
        best = max(bases, key=lambda a: checks.order(a, N))
        pairs += [(N, a) for a in dict.fromkeys((best, N - 1))]
    return pairs


def leaf_sweep(seed: int) -> list[Op]:
    ops = []
    for N, a in leaf_pairs():
        inst = circuit.build_instance(N, a)
        for name in checks.KINDS:
            kind = InitialStateKind(name)
            ops.append(
                Op(
                    f"tree_leaf_distribution({N}, {a}, {name})",
                    lambda inst=inst, kind=kind: experiments.tree_leaf_distribution(inst, kind),
                    lambda dist, N=N, a=a, name=name: checks.check_leaf(
                        dist, checks.outcome_distribution(N, a, name)
                    ),
                )
            )
    return ops


WORKLOADS = {
    "ensemble4": ensemble4,
    "crossing15": crossing15,
    "noise15": noise15,
    "leaf_sweep": leaf_sweep,
}
