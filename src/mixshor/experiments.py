"""Experiment drivers: exact tree runs, ensembles, noise and mixing sweeps.

The tree runner enumerates every measurement branch with its path
probability, giving exact stage averages and the exact outcome
distribution; Monte Carlo trajectories sample measurement results and
noise events instead.  Both keep each member's work block between
stages and run a stage on the four control blocks of
circuit._stage_blocks, in chunks of a fixed byte budget per member of
the largest stacked array they hold: the tree forms (B, d, d) post-gate
states, Monte Carlo only the (B, d/2, d/2) blocks.  Monte Carlo run i
draws only from its own (seed, i) stream, so its outcome does not depend
on which runs share its chunk.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import circuit, entanglement, noise, numtheory
from .circuit import InitialStateKind, ShorInstance
from .noise import NoiseConfig
from .noise import noise_pass  # noqa: F401  the benchmark tracer patches it here by name

__all__ = [
    "StageReport",
    "SweepRow",
    "MixSweepRow",
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

# Byte budget of the largest stacked complex array a stepper holds: the
# tree's (B, d, d) states get B = 32/8/2 at d = 16/32/64, Monte Carlo's
# (B, d/2, d/2) control blocks B = 128/32/8.
CHUNK_BYTES = 1 << 17

_POINT_KINDS = ("post_gate", "post_measure")


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
class TreeResult:
    reports: tuple[StageReport, ...]
    leaf_probs: np.ndarray

    def whole_run_average_entanglement(self) -> float:
        """Mean avg_logneg over all sampling points, equal weights."""
        return float(np.mean([r.avg_logneg for r in self.reports]))


def _chunk_size(side: int) -> int:
    """Stack members per chunk: CHUNK_BYTES per stack of (side, side) complex matrices."""
    return max(1, CHUNK_BYTES // (16 * side * side))


def _tree_steps(inst: ShorInstance, kind: InitialStateKind, epsilon: float):
    """Step every live branch of the measurement tree through the L stages.

    Yields (point, probs, states, c) for each chunk at each of the 2L
    sampling points: point 2s after stage s's gates, with the full states,
    and point 2s + 1 after its measurement, with the work blocks sigma of
    the measured states |bit><bit| (x) sigma.  `probs` are the path
    probabilities and `c` the outcome bits measured so far, bit s with
    weight 2^s.  Between stages only the work blocks are kept; each stage
    runs the gates of a chunk of at most CHUNK_BYTES of full states on
    its control blocks (circuit.run_stage_gates) and measures it on the
    two diagonal blocks (circuit.measure_control).
    """
    chunk = _chunk_size(1 << inst.m)
    half = 1 << inst.n
    sigma = np.diag(circuit.work_distribution(inst, kind)).astype(complex)[None]
    probs = np.ones(1)
    c = np.zeros(1, dtype=np.int64)
    for s in range(inst.L):
        grown, total = [], 0.0
        for lo in range(0, probs.size, chunk):
            part = slice(lo, lo + chunk)
            chunk_probs, chunk_c = probs[part], c[part]
            rho = circuit.run_stage_gates(sigma[part], inst, s, chunk_c, epsilon)
            yield 2 * s, chunk_probs, rho, chunk_c
            kids = []
            branches = circuit.measure_control(rho[:, :half, :half], rho[:, half:, half:])
            for bit, (p, kept) in enumerate(branches):
                if kept is not None:
                    live = p >= circuit.DEAD_BRANCH_TOL
                    kids.append((kept, chunk_probs[live] * p[live], chunk_c[live] | bit << s))
            kid_sigma, kid_probs, kid_c = (np.concatenate(x) for x in zip(*kids))
            yield 2 * s + 1, kid_probs, kid_sigma, kid_c
            total += kid_probs.sum()
            if s < inst.L - 1:
                grown.append((kid_sigma, kid_probs, kid_c))
        if abs(total - 1.0) > 1e-9:
            raise RuntimeError(f"leaf probabilities sum to {total} at stage {s}")
        if grown:
            sigma, probs, c = (np.concatenate(x) for x in zip(*grown))


def _shannon_entropy(p: np.ndarray) -> float:
    """-sum(p log2 p) in bits over the nonzero entries of a distribution."""
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def tree_profile(inst: ShorInstance, kind: InitialStateKind, epsilon: float = 0.0) -> TreeResult:
    """Exact branch enumeration with per-stage entanglement and mixedness.

    Returns the 2L stage reports (after each controlled multiplication
    and after each measurement) plus the exact leaf distribution over c.
    Only the post-measure mixedness takes eigensolves: the gates are
    unitary and the re-prepared control is independent of the work
    register, so the mixedness after stage s's gates is the report
    before it (at stage 0, the Shannon entropy of the work distribution)
    plus h2(epsilon) times the path mass of the stage.
    Noisy runs go through monte_carlo_sweep.
    """
    points = 2 * inst.L
    e_av, s_av, leaf = np.zeros(points), np.zeros(points), np.zeros(inst.t)
    h2 = _shannon_entropy(np.array([epsilon, 1.0 - epsilon]))
    for point, probs, states, c in _tree_steps(inst, kind, epsilon):
        post_measure = point % 2 == 1
        e_av[point] += probs @ entanglement._point_entanglement(states, post_measure)
        if post_measure:
            s_av[point] += probs @ entanglement.mixedness(states)
        else:
            s_av[point] += h2 * probs.sum()
        if point == points - 1:
            leaf += np.bincount(c, probs, inst.t)
    s_av[0] += _shannon_entropy(circuit.work_distribution(inst, kind))
    s_av[2::2] += s_av[1:-1:2]
    s_av[s_av < entanglement.CLAMP_TOL] = 0.0  # round-off, as in mixedness
    reports = tuple(
        StageReport(
            stage=i // 2,
            kind=_POINT_KINDS[i % 2],
            avg_logneg=float(e_av[i]),
            mixedness=float(s_av[i]),
        )
        for i in range(points)
    )
    return TreeResult(reports=reports, leaf_probs=leaf)


def tree_leaf_distribution(inst: ShorInstance, kind: InitialStateKind) -> np.ndarray:
    """Exact outcome distribution over c from branch enumeration only.

    Skips the per-stage entanglement bookkeeping of tree_profile; used for
    oracle comparisons where only the leaf probabilities matter.
    """
    leaf = np.zeros(inst.t)
    for point, probs, _, c in _tree_steps(inst, kind, 0.0):
        if point == 2 * inst.L - 1:
            leaf += np.bincount(c, probs, inst.t)
    return leaf


def ensemble_instances(bits: int) -> list[ShorInstance]:
    """All (N, a) instances with N a `bits`-digit semiprime and a coprime."""
    return [
        circuit.build_instance(N, a)
        for N in numtheory.semiprime_list(bits)
        for a in numtheory.coprime_list(N)
    ]


def _commutes_with_multiplication(inst: ShorInstance, kind: InitialStateKind) -> bool:
    """True when the initial work state is invariant under b -> a b mod N."""
    w = circuit.work_distribution(inst, kind)
    half = 1 << inst.n
    permutation = circuit._modmult_inverse_permutation(inst, 0)[half:] - half
    return bool(np.array_equal(w[permutation], w))


def ensemble_profile(bits: int, kind: InitialStateKind) -> list[StageReport]:
    """Mean of tree_profile over every (N, a) of the ensemble, each with weight 1.

    When the initial work state commutes with U_a (b -> a b mod N), as for
    mixed-n and mixed-full, the tree of a^-1 mod N repeats the tree of a:
    only the smaller of each pair {a, a^-1} is run, with weight 2 (weight
    1 when a^2 = 1 mod N).  This is exact.  Every work block of the a
    tree then commutes with U_a, and the partial transpose over the whole
    work register W turns the controlled multiplication by a^k into the
    one by a^-k while it commutes with the control gates, the control
    measurement and the re-preparation.  So for every record c the a^-1
    tree has the same path probabilities, its post-gate states are the
    partial transposes over W of the a tree's, and its work blocks are
    the complex conjugates sigma-bar of the a tree's.  Its entropies are
    therefore equal, and its negativity across a canonical cut T equals
    the a tree's across W minus T: a bijection on the canonical cuts,
    with the cut T = W giving 0 on both sides.  The pure register |1> is
    not invariant, its a and a^-1 trees differ, and every a runs on its
    own with weight 1, summed in the same order.
    """
    if bits not in (4, 5):
        raise ValueError("ensemble profiles are defined for 4- and 5-digit numbers")
    weighted = []
    for inst in ensemble_instances(bits):
        inverse = pow(inst.a, -1, inst.N)
        if not _commutes_with_multiplication(inst, kind):
            weighted.append((1, inst))
        elif inst.a <= inverse:
            weighted.append((1 if inst.a == inverse else 2, inst))
    results = [(weight, tree_profile(inst, kind)) for weight, inst in weighted]
    count = sum(weight for weight, _ in results)
    out = []
    for i, template in enumerate(results[0][1].reports):
        e = sum(weight * res.reports[i].avg_logneg for weight, res in results) / count
        s = sum(weight * res.reports[i].mixedness for weight, res in results) / count
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


def _draws_per_run(inst: ShorInstance, cfg: NoiseConfig | None) -> int:
    """Uniforms one trajectory consumes: one per noisy qubit per gate, one per measurement."""
    gates = 3 * inst.L - 1  # cu and h at every stage, the phase from stage 1 on
    return gates * _noisy_qubits(inst, cfg) + inst.L


def _noisy_qubits(inst: ShorInstance, cfg: NoiseConfig | None) -> int:
    """Qubits that draw after every gate: all m, or the n work qubits without the control."""
    return 0 if cfg is None or cfg.prob == 0.0 else inst.m - int(cfg.exclude_control)


def _run_steps(
    inst: ShorInstance,
    kind: InitialStateKind,
    cfg: NoiseConfig | None,
    uniforms: np.ndarray,
):
    """Step a stack of trajectories on their control blocks; yields (bits, sigma) per stage.

    Row i of `uniforms` (shape (B, _draws_per_run)) is run i's stream:
    per stage, one draw per noisy qubit (the control first) after every
    gate, then one for the measurement, which takes |0> below p0 and
    never a dead branch.  A stage reads its hits up front.  Each run
    keeps only its work block sigma, from the diagonal work distribution
    on; of the Hadamard only the two diagonal blocks are formed, since
    the measurement reads nothing else.  Every channel is idempotent.
    The control's commutes with the diagonal phase, so a run hit after
    the multiplication or the phase gets it once, before the Hadamard;
    after the Hadamard, dephasing changes neither p0, p1 nor sigma.  A
    work qubit's commutes with every step on the control, the
    measurement included: one hit after any gate of the stage gets its
    channel once, on the kept sigma.
    """
    runs = uniforms.shape[0]
    noisy = _noisy_qubits(inst, cfg)
    prob = cfg.prob if noisy else 0.0
    control = noisy == inst.m
    measurement = noisy and cfg.kind == noise.MEASUREMENT
    channel = noise.dephase_qubit if measurement else noise.depolarize_qubit
    work = np.diag(circuit.work_distribution(inst, kind)).astype(complex)
    sigma = np.broadcast_to(work, (runs,) + work.shape)
    outcome = np.zeros(runs, dtype=np.int64)
    first = 0
    for s in range(inst.L):
        gates = 3 if s else 2  # cu and h, with the phase between them from stage 1 on
        last = first + gates * noisy
        hits = uniforms[:, first:last].reshape(runs, gates, noisy) < prob
        draws = uniforms[:, last]
        first = last + 1
        a, b, c, d = circuit._stage_blocks(sigma, inst, s, outcome)
        del sigma  # at most five (B, d/2, d/2) stacks are held at once
        if control:
            _control_channel(cfg.kind, hits[:, :-1, 0].any(axis=1), (a, d), (b, c))
        top, bottom = circuit._hadamard_diagonal(a, b, c, d)
        del a, b, c, d
        if control:
            _control_channel(cfg.kind, hits[:, -1, 0], (top, bottom), ())
        bit, sigma = circuit.sample_control(top, bottom, draws)
        del top, bottom
        for q, hit in enumerate(hits[:, :, -inst.n :].any(axis=1).T):
            if hit.any():
                sigma[hit] = channel(sigma[hit], q)
        outcome |= bit << s
        yield bit, sigma


def _control_channel(kind: str, hit: np.ndarray, diagonal, off_diagonal) -> None:
    """The control's channel on the runs hit, in closed form on their control blocks.

    Dephasing zeroes the off-diagonal blocks; depolarizing, I/2 (x) Tr_0,
    also puts the mean of the diagonal blocks in both.
    """
    for block in off_diagonal:
        block[hit] = 0.0
    if kind == noise.PAULI:
        upper, lower = diagonal
        upper[hit] = lower[hit] = (upper[hit] + lower[hit]) * 0.5


def _run_stack(
    inst: ShorInstance,
    kind: InitialStateKind,
    cfg: NoiseConfig | None,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Each run's outcome c, bit s with weight 2^s, from _run_steps."""
    # map holds no yielded sigma while the stepper forms the next stage
    bits = map(operator.itemgetter(0), _run_steps(inst, kind, cfg, uniforms))
    return sum(bit << s for s, bit in enumerate(bits))


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
    configs,
    runs: int,
    seed: int,
) -> np.ndarray:
    """Outcomes of runs 0..runs-1 at every configuration, shape (len(configs), runs).

    Runs are stepped in chunks of CHUNK_BYTES per stack of control
    blocks.  Each chunk's streams are drawn once, as long as the
    hungriest configuration needs; one that needs fewer draws, such as a
    noiseless one, reads the leading columns, which are the draws its own
    shorter stream would give.
    """
    chunk = _chunk_size(1 << inst.n)
    totals = [_draws_per_run(inst, cfg) for cfg in configs]
    outcomes = np.zeros((len(configs), runs), dtype=np.int64)
    for first in range(0, runs, chunk):
        part = range(first, min(first + chunk, runs))
        uniforms = np.stack([_run_rng(seed, run).random(max(totals, default=0)) for run in part])
        for row, cfg, total in zip(outcomes, configs, totals):
            row[first : part.stop] = _run_stack(inst, kind, cfg, uniforms[:, :total])
    return outcomes


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
    outcome does not depend on how runs are grouped into chunks.  Every
    grid point's configuration is checked before the first run.
    """
    configs = [NoiseConfig(noise_kind, prob, exclude_control) for prob in probs]
    if runs < 1:
        raise ValueError("need at least one run")
    mask = extraction_success_mask(inst)
    rows = []
    for cfg, outcomes in zip(configs, _sweep_outcomes(inst, kind, configs, runs, seed)):
        successes = int(np.count_nonzero(mask[outcomes]))
        rate = successes / runs
        rows.append(SweepRow(prob=float(cfg.prob), successes=successes, runs=runs, rate=rate))
    return rows


def extraction_success_mask(inst: ShorInstance) -> np.ndarray:
    """Boolean vector over c in [0, t): extraction recovers the true order."""
    return np.array(
        [numtheory.extract_period(c, inst.t, inst.N, inst.a) == inst.r for c in range(inst.t)]
    )


def random_baseline(inst: ShorInstance) -> float:
    """Success probability of drawing c uniformly: exact enumeration."""
    return float(extraction_success_mask(inst).mean())


def success_probability_exact(inst: ShorInstance, kind: InitialStateKind) -> float:
    """Exact success probability from the noise-free tree leaf distribution."""
    leaf = tree_leaf_distribution(inst, kind)
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
    for point, probs, states, _ in _tree_steps(inst, kind, epsilon):
        running += probs @ entanglement._point_entanglement(states, point % 2 == 1)
        if stop_above is not None and running / points >= stop_above:
            return running / points
    return running / points


def find_entanglement_crossing(
    inst: ShorInstance,
    kind: InitialStateKind,
    threshold: float = entanglement.CLAMP_TOL,
    refine_tol: float = 1e-4,
) -> float:
    """Smallest mixing strength at which the average entanglement vanishes.

    Locates the first grid point (step 0.002) whose whole-run
    average entanglement falls below `threshold`, then bisects inside the
    bracketing grid cell down to `refine_tol`.  The grid point itself is
    found by bisection over the grid index, which matches the linear scan
    because the entanglement profile decreases monotonically in epsilon;
    the bracketing invariant (above threshold on the left, below on the
    right) is maintained throughout.  Both tolerances must be finite and
    positive; the refinement also stops at float resolution.
    """
    for name, value in (("threshold", threshold), ("refine_tol", refine_tol)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")

    def avg_ent(eps: float) -> float:
        return _average_entanglement(inst, kind, eps, stop_above=threshold)

    if avg_ent(0.0) < threshold:
        return 0.0
    grid_step = 0.002
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
    mid = 0.5 * (lo_eps + hi_eps)
    while hi_eps - lo_eps > refine_tol and lo_eps < mid < hi_eps:
        if avg_ent(mid) < threshold:
            hi_eps = mid
        else:
            lo_eps = mid
        mid = 0.5 * (lo_eps + hi_eps)
    return hi_eps
