"""Experiment drivers: exact tree runs, ensembles, noise and mixing sweeps.

The tree runner enumerates every measurement branch with its path
probability, giving exact stage averages and the exact outcome
distribution; Monte Carlo trajectories sample measurement results and
noise events instead.  Monte Carlo runs are stepped together as stacked
(B, d, d) states in chunks of a fixed byte budget, and run i draws only
from its own (seed, i) stream, so its outcome does not depend on which
runs share its chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import circuit, densemat, entanglement, numtheory
from .circuit import ComputerState, InitialStateKind, ShorInstance
from .noise import NoiseConfig, noise_pass

__all__ = [
    "StageReport",
    "SweepRow",
    "MixSweepRow",
    "BranchNode",
    "TreeResult",
    "tree_profile",
    "tree_leaf_distribution",
    "ensemble_profile",
    "ensemble_instances",
    "run_trajectory",
    "monte_carlo_sweep",
    "mix_sweep",
    "random_baseline",
    "success_probability_exact",
    "extraction_success_mask",
    "find_entanglement_crossing",
]

# Byte budget of one stacked (B, d, d) complex state in a Monte Carlo
# chunk: B = 8 runs at d = 32, 2 at d = 64.
CHUNK_BYTES = 1 << 17


@dataclass(frozen=True)
class StageReport:
    """Ensemble averages at one of the 2L sampling points of a run."""

    stage: int
    kind: str  # "post_gate" or "post_measure"
    avg_logneg: float
    mixedness: float


@dataclass(frozen=True)
class SweepRow:
    """One Monte Carlo noise-sweep grid point."""

    prob: float
    successes: int
    runs: int
    rate: float


@dataclass(frozen=True)
class MixSweepRow:
    """One exact control-mixing grid point."""

    epsilon: float
    success_prob: float
    avg_entanglement: float


@dataclass(frozen=True)
class BranchNode:
    """A live branch of the measurement tree with its path probability."""

    state: ComputerState
    path_prob: float


@dataclass(frozen=True)
class TreeResult:
    reports: tuple[StageReport, ...]
    leaf_probs: np.ndarray

    def whole_run_average_entanglement(self) -> float:
        """Mean avg_logneg over all sampling points, equal weights."""
        return float(np.mean([r.avg_logneg for r in self.reports]))


def _collapsed_work_block(state: ComputerState) -> np.ndarray:
    half = state.rho.shape[0] // 2
    sl = slice(0, half) if state.bits[-1] == 0 else slice(half, 2 * half)
    return state.rho[sl, sl]


def _branch_entanglement(state: ComputerState, post_measure: bool) -> float:
    """Average log-negativity of one branch over all canonical bipartitions.

    A post-measure state is exactly |b><b| (x) sigma on the control, so
    every split reduces to a split of the work register: the full-work
    split contributes zero and the remaining splits come in complement
    pairs with equal negativity, which lets the whole average be computed
    on the 2^n-dimensional work block.
    """
    if not post_measure:
        return entanglement.average_log_negativity(state.rho)
    m = state.rho.shape[0].bit_length() - 1
    n = m - 1
    if n < 2:
        return 0.0
    count_m = (1 << (m - 1)) - 1
    count_n = (1 << (n - 1)) - 1
    sigma = _collapsed_work_block(state)
    return 2.0 * count_n * entanglement.average_log_negativity(sigma) / count_m


def _branch_mixedness(state: ComputerState, post_measure: bool) -> float:
    if post_measure:
        return entanglement.mixedness(_collapsed_work_block(state))
    return entanglement.mixedness(state.rho)


def _stage_report(branches: list[BranchNode], stage: int, kind: str) -> StageReport:
    post_measure = kind == "post_measure"
    e_av = 0.0
    s_av = 0.0
    for b in branches:
        e_av += b.path_prob * _branch_entanglement(b.state, post_measure)
        s_av += b.path_prob * _branch_mixedness(b.state, post_measure)
    return StageReport(stage=stage, kind=kind, avg_logneg=e_av, mixedness=s_av)


def _tree_run(
    inst: ShorInstance,
    kind: InitialStateKind,
    epsilon: float,
    collect: bool,
) -> TreeResult:
    branches = [BranchNode(circuit.initial_state(inst, kind, epsilon), 1.0)]
    reports: list[StageReport] = []
    for s in range(inst.L):
        branches = [
            BranchNode(circuit.run_stage_gates(b.state, s, inst), b.path_prob)
            for b in branches
        ]
        if collect:
            reports.append(_stage_report(branches, s, "post_gate"))
        grown: list[BranchNode] = []
        for b in branches:
            (p0, s0), (p1, s1) = circuit.measure_control(b.state)
            if s0 is not None:
                grown.append(BranchNode(s0, b.path_prob * p0))
            if s1 is not None:
                grown.append(BranchNode(s1, b.path_prob * p1))
        branches = grown
        if collect:
            reports.append(_stage_report(branches, s, "post_measure"))
        total = sum(b.path_prob for b in branches)
        if abs(total - 1.0) > 1e-9:
            raise RuntimeError(f"leaf probabilities sum to {total} at stage {s}")
        if s < inst.L - 1:
            branches = [
                BranchNode(circuit.reprepare_control(b.state, epsilon), b.path_prob)
                for b in branches
            ]
    leaf = np.zeros(inst.t)
    for b in branches:
        c = 0
        for i, bit in enumerate(b.state.bits):
            c |= bit << i
        leaf[c] += b.path_prob
    return TreeResult(reports=tuple(reports), leaf_probs=leaf)


def tree_profile(
    inst: ShorInstance,
    kind: InitialStateKind,
    epsilon: float = 0.0,
    noise: NoiseConfig | None = None,
) -> TreeResult:
    """Exact branch enumeration with per-stage entanglement and mixedness.

    Returns the 2L stage reports (after each controlled multiplication
    and after each measurement) plus the exact leaf distribution over c.
    Tree mode is exact, so injected noise is rejected; noisy runs go
    through monte_carlo_sweep.
    """
    if noise is not None:
        raise ValueError("tree simulation is exact; noise requires monte_carlo_sweep")
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon={epsilon} outside [0, 1/2]")
    return _tree_run(inst, kind, epsilon, collect=True)


def tree_leaf_distribution(
    inst: ShorInstance, kind: InitialStateKind, epsilon: float = 0.0
) -> np.ndarray:
    """Exact outcome distribution over c from branch enumeration only.

    Skips the per-stage entanglement bookkeeping of tree_profile; used for
    oracle comparisons where only the leaf probabilities matter.
    """
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon={epsilon} outside [0, 1/2]")
    return _tree_run(inst, kind, epsilon, collect=False).leaf_probs


def ensemble_instances(bits: int) -> list[ShorInstance]:
    """All (N, a) instances with N a `bits`-digit semiprime and a coprime."""
    return [
        circuit.build_instance(N, a)
        for N in numtheory.semiprime_list(bits)
        for a in numtheory.coprime_list(N)
    ]


def ensemble_profile(bits: int, kind: InitialStateKind) -> list[StageReport]:
    """Unweighted mean of tree_profile over every (N, a) of the ensemble."""
    if bits not in (4, 5):
        raise ValueError("ensemble profiles are defined for 4- and 5-digit numbers")
    instances = ensemble_instances(bits)
    results = [tree_profile(inst, kind) for inst in instances]
    count = len(results)
    out = []
    for i, template in enumerate(results[0].reports):
        e = sum(res.reports[i].avg_logneg for res in results) / count
        s = sum(res.reports[i].mixedness for res in results) / count
        out.append(
            StageReport(stage=template.stage, kind=template.kind, avg_logneg=e, mixedness=s)
        )
    return out


def _run_rng(seed: int, run: int):
    """Dedicated counter-based stream for one trajectory.

    Streams are keyed by (seed, run), and every draw inside a run happens
    in fixed circuit order, so sweep results are independent of how runs
    are scheduled.
    """
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(run)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Columns:
    """The up-front uniforms of a chunk, handed out one column at a time.

    Row i holds run i's draws in circuit order; each random() call returns
    the next draw of every run, which is what noise_pass and the
    measurement consume.
    """

    def __init__(self, uniforms: np.ndarray):
        self._columns = iter(uniforms.T)

    def random(self) -> np.ndarray:
        return next(self._columns)


def _draws_per_run(inst: ShorInstance, cfg: NoiseConfig | None) -> int:
    """Uniforms one trajectory consumes: one per noisy qubit per gate, one per measurement."""
    noisy = 0 if cfg is None or cfg.prob == 0.0 else inst.m - int(cfg.exclude_control)
    gates = 3 * inst.L - 1  # cu and h at every stage, the phase from stage 1 on
    return gates * noisy + inst.L


def _run_stack(
    inst: ShorInstance,
    kind: InitialStateKind,
    cfg: NoiseConfig | None,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Step a (B, d, d) stack of trajectories; returns each run's outcome c.

    Row i of `uniforms` (shape (B, _draws_per_run)) is run i's stream.  A
    noise opportunity follows every displayed gate; the measurement takes
    |0> when the run's draw falls below p0, keeps that run's block and
    re-prepares the control in |+>.  Every member goes through the same
    arithmetic it would go through alone.
    """
    runs = uniforms.shape[0]
    draws = _Columns(uniforms)
    rho = np.repeat(circuit.initial_state(inst, kind).rho[None], runs, axis=0)
    bits: list[np.ndarray] = []
    gate_index = 0
    for s in range(inst.L):
        for _name, apply in circuit.stage_gates(inst, s, bits):
            rho = noise_pass(apply(rho), cfg, gate_index, draws)
            gate_index += 1
        if densemat.validation_enabled():
            densemat.assert_valid_state(rho, context=f"stage {s} gates")
        bit, sigma = circuit.sample_control(rho, draws.random())
        bits.append(bit)
        if s < inst.L - 1:
            rho = circuit.plus_control(sigma)
    return sum(bit << i for i, bit in enumerate(bits))


def run_trajectory(
    inst: ShorInstance,
    kind: InitialStateKind,
    cfg: NoiseConfig | None,
    rng,
) -> int:
    """One sampled run; returns the measured outcome c.

    The single-run case of the batched stepper: the run's fixed number of
    uniforms is drawn from `rng` up front, in the order the gates and
    measurements consume them.
    """
    uniforms = rng.random((1, _draws_per_run(inst, cfg)))
    return int(_run_stack(inst, kind, cfg, uniforms)[0])


def _sweep_outcomes(
    inst: ShorInstance,
    kind: InitialStateKind,
    cfg: NoiseConfig | None,
    runs: int,
    seed: int,
) -> np.ndarray:
    """Outcomes of runs 0..runs-1, stepped in chunks of CHUNK_BYTES per stacked state."""
    dim = 1 << inst.m
    chunk = max(1, CHUNK_BYTES // (16 * dim * dim))
    total = _draws_per_run(inst, cfg)
    outcomes = []
    for first in range(0, runs, chunk):
        chunk_runs = range(first, min(first + chunk, runs))
        uniforms = np.stack([_run_rng(seed, run).random(total) for run in chunk_runs])
        outcomes.append(_run_stack(inst, kind, cfg, uniforms))
    return np.concatenate(outcomes)


def monte_carlo_sweep(
    inst: ShorInstance,
    kind: InitialStateKind,
    noise_kind: str,
    probs,
    runs: int,
    exclude_control: bool,
    seed: int,
) -> list[SweepRow]:
    """Sampled success counts over a grid of noise probabilities.

    A run succeeds when the continued-fraction extraction of its outcome
    equals the true order.  Run `i` uses the same (seed, i) stream at
    every grid point, so repeated sweeps are reproducible, and its
    outcome does not depend on how runs are grouped into chunks.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    mask = extraction_success_mask(inst)
    rows = []
    for prob in probs:
        cfg = None if prob == 0.0 else NoiseConfig(noise_kind, prob, exclude_control, seed)
        outcomes = _sweep_outcomes(inst, kind, cfg, runs, seed)
        successes = int(np.count_nonzero(mask[outcomes]))
        rows.append(SweepRow(prob=float(prob), successes=successes, runs=runs, rate=successes / runs))
    return rows


def extraction_success_mask(inst: ShorInstance) -> np.ndarray:
    """Boolean vector over c in [0, t): extraction recovers the true order."""
    return np.array(
        [numtheory.extract_period(c, inst.t, inst.N, inst.a) == inst.r for c in range(inst.t)]
    )


def random_baseline(inst: ShorInstance) -> float:
    """Success probability of drawing c uniformly: exact enumeration."""
    return float(extraction_success_mask(inst).mean())


def success_probability_exact(
    inst: ShorInstance, kind: InitialStateKind, epsilon: float = 0.0
) -> float:
    """Exact success probability from the noise-free tree leaf distribution."""
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon={epsilon} outside [0, 1/2]")
    leaf = _tree_run(inst, kind, epsilon, collect=False).leaf_probs
    return float(leaf[extraction_success_mask(inst)].sum())


def mix_sweep(inst: ShorInstance, kind: InitialStateKind, epsilons) -> list[MixSweepRow]:
    """Exact sweep over control-mixing strengths.

    Each row reports the exact success probability and the whole-run
    average entanglement (mean of avg_logneg over all 2L sampling
    points); the mixing applies to the initial control preparation and
    to every re-preparation identically.
    """
    epsilons = [float(e) for e in epsilons]
    for e in epsilons:
        if not 0.0 <= e <= 0.5:
            raise ValueError(f"epsilon={e} outside [0, 1/2]")
    mask = extraction_success_mask(inst)

    def evaluate(eps: float) -> MixSweepRow:
        result = tree_profile(inst, kind, epsilon=eps)
        return MixSweepRow(
            epsilon=eps,
            success_prob=float(result.leaf_probs[mask].sum()),
            avg_entanglement=result.whole_run_average_entanglement(),
        )

    return [evaluate(eps) for eps in epsilons]


def _average_entanglement(
    inst: ShorInstance,
    kind: InitialStateKind,
    epsilon: float,
    stop_above: float | None = None,
) -> float:
    """Whole-run average entanglement without keeping stage reports.

    Every contribution is nonnegative, so once the running sum divided by
    the number of sampling points passes `stop_above` the final mean is
    guaranteed to as well; the early return value is then a lower bound,
    valid only for threshold comparisons.
    """
    points = 2 * inst.L
    running = 0.0
    branches = [BranchNode(circuit.initial_state(inst, kind, epsilon), 1.0)]
    for s in range(inst.L):
        branches = [
            BranchNode(circuit.run_stage_gates(b.state, s, inst), b.path_prob)
            for b in branches
        ]
        for post_measure in (False, True):
            if post_measure:
                grown: list[BranchNode] = []
                for b in branches:
                    (p0, s0), (p1, s1) = circuit.measure_control(b.state)
                    if s0 is not None:
                        grown.append(BranchNode(s0, b.path_prob * p0))
                    if s1 is not None:
                        grown.append(BranchNode(s1, b.path_prob * p1))
                branches = grown
            for b in branches:
                running += b.path_prob * _branch_entanglement(b.state, post_measure)
            if stop_above is not None and running / points >= stop_above:
                return running / points
        if s < inst.L - 1:
            branches = [
                BranchNode(circuit.reprepare_control(b.state, epsilon), b.path_prob)
                for b in branches
            ]
    return running / points


def find_entanglement_crossing(
    inst: ShorInstance,
    kind: InitialStateKind,
    threshold: float = entanglement.CLAMP_TOL,
    grid_step: float = 0.002,
    refine_tol: float = 1e-4,
) -> float:
    """Smallest mixing strength at which the average entanglement vanishes.

    Locates the first grid point (step `grid_step`) whose whole-run
    average entanglement falls below `threshold`, then bisects inside the
    bracketing grid cell down to `refine_tol`.  The grid point itself is
    found by bisection over the grid index, which matches the linear scan
    because the entanglement profile decreases monotonically in epsilon;
    the bracketing invariant (above threshold on the left, below on the
    right) is maintained throughout.
    """
    cache: dict[float, float] = {}

    def avg_ent(eps: float) -> float:
        if eps not in cache:
            cache[eps] = _average_entanglement(inst, kind, eps, stop_above=threshold)
        return cache[eps]

    if avg_ent(0.0) < threshold:
        return 0.0
    n_grid = round(0.5 / grid_step)
    if avg_ent(0.5) >= threshold:
        raise RuntimeError("average entanglement does not vanish at epsilon = 1/2")
    lo, hi = 0, n_grid
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if avg_ent(mid * grid_step) < threshold:
            hi = mid
        else:
            lo = mid
    lo_eps, hi_eps = lo * grid_step, hi * grid_step
    while hi_eps - lo_eps > refine_tol:
        mid = 0.5 * (lo_eps + hi_eps)
        if avg_ent(mid) < threshold:
            hi_eps = mid
        else:
            lo_eps = mid
    return hi_eps
