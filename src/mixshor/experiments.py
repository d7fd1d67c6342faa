"""Experiment drivers: exact tree runs, ensembles, noise and mixing sweeps.

The tree runner enumerates one measurement branch of each
complex-conjugate pair with the pair's path probability, giving exact
stage averages and the exact outcome distribution.  It walks the tree
depth-first over chunks on one stack, so a walk holds O(L) chunks, never
a whole stage; trees of one N are walked together as a trie keyed by
their stage multipliers, so a chunk of a stage on which they agree so
far is stepped once.  Monte Carlo trajectories
sample measurement results and noise events instead.  Both
keep each member's work block between stages and run a stage on the
four control blocks of circuit._stage_blocks, in chunks of a fixed byte
budget per member of the largest stacked array they hold: the tree forms
(B, d, d) post-gate states, Monte Carlo only the (B, d/2, d/2) blocks.
Monte Carlo forms none at a stage whose multiplier is 1, where the
control's bit is a coin drawn in closed form.  Both scale the control's
off-diagonal blocks by its coherence, for the tree's mixing epsilon and
Monte Carlo's control noise alike.
Monte Carlo run i draws only from its own (seed, i) stream, so its
outcome does not depend on which runs share its chunk.
"""

from __future__ import annotations

import itertools
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
# (B, d/2, d/2) control blocks B = 128/32/8.  The tree's stack holds the
# work blocks of O(L) such chunks.  Monte Carlo also draws its uniforms
# in stretches of whole chunks of at most this many bytes.
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


def _coherence(epsilon: float) -> float:
    """The control's coherence 1 - 2 epsilon at a mixing strength epsilon in [0, 1/2]."""
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon={epsilon} outside [0, 1/2]")
    return 1.0 - 2.0 * epsilon


def _tree_steps(group, kind: InitialStateKind, epsilon: float):
    """Step one branch of each complex-conjugate pair of the measurement trees of a group.

    `group` is a sequence of instances of one N; a single tree is a group
    of one.  Yields (owners, point, probs, states, c) for each chunk at
    each of the 2L sampling points: point 2s after stage s's gates, with
    the full states, and point 2s + 1 after its measurement, with the
    work blocks sigma of the measured states |bit><bit| (x) sigma.
    `owners` is the tuple of the indices into `group` of the instances
    the chunk belongs to, `probs` are the path probabilities, times 2 for
    a branch that stands in for its partner, and `c` the outcome bits
    measured so far, bit s with weight 2^s.

    The walk is depth-first, on one stack of chunks (owners, s, sigma,
    probs, c) of at most CHUNK_BYTES of full states, so it holds O(L)
    chunks, never a whole stage.  A chunk runs stage s's gates on its
    control blocks (circuit.run_stage_gates), is measured on the two
    diagonal blocks (circuit.measure_control), whose live masks pair
    each outcome's surviving kids with their probabilities and records,
    and pushes its kids' work blocks in chunks, the first on top.  The
    kids must carry the chunk's mass to 1e-9 / 2L, relative, so that the
    leaves sum to 1 within 1e-9.

    Every gate and preparation is real except the phase diag(1,
    exp(-2 pi i theta_s(c))), and theta_s(-c) = 1/2 - theta_s(c) for
    c != 0 mod 2^s: the record -c mod 2^s turns its control by Z times
    the conjugate of c's phase, and after the Hadamard (H Z = X H) its
    state is X conj(rho_c) X.  Its outcome m is c's outcome 1 - m, with
    the same probability and the conjugate work block, and the kid of c
    with bit m is the partner of the kid of -c with bit 1 - m.  Negativity
    and entropy are blind to conjugation and to a local X, so each pair
    needs one branch.  The record 2^(s-1) is its own partner and its two
    kids are each other's: only its bit-0 kid is kept, with twice the
    path probability.  Every other branch keeps both kids, so a stage
    holds 2^(s-1) + 1 branches instead of 2^s.  The fold follows from the
    circuit, not from comparing states, which differ from their partners'
    conjugates by round-off.

    A tree depends on its base only through its stage multipliers
    (circuit.stage_multipliers): equal multipliers give the same cached
    array, and the preparation, phase correction, fold and dead-branch
    rule do not read a.  Instances whose multipliers agree on stages
    0..s therefore have bitwise equal trees up to stage s, so the group
    is walked as a trie keyed by the multipliers: a chunk is stepped once
    for the instances that agree so far, and a chunk whose owners differ
    at its stage is pushed back once per fork.  Each instance gets
    exactly the chunks of its own walk, in order.  Every stage runs at
    the control's coherence 1 - 2 epsilon, with epsilon checked once, here.
    """
    coherence = _coherence(epsilon)
    inst = group[0]
    chunk = _chunk_size(1 << inst.m)
    half = 1 << inst.n
    sigma = np.diag(circuit.work_distribution(inst, kind)).astype(complex)[None]
    stack = [(tuple(range(len(group))), 0, sigma, np.ones(1), np.zeros(1, dtype=np.int64))]
    while stack:
        owners, s, sigma, probs, c = stack.pop()
        forks = {}
        for i in owners:
            forks.setdefault(circuit.stage_multipliers(group[i])[s], []).append(i)
        if len(forks) > 1:
            stack += ((tuple(fork), s, sigma, probs, c) for fork in forks.values())
            continue
        rho = circuit.run_stage_gates(sigma, group[owners[0]], s, c, coherence)
        yield owners, 2 * s, probs, rho, c
        twin = 1 << s >> 1 if s else -1  # the record that is its own partner; none at stage 0
        kids = []
        branches = circuit.measure_control(rho[:, :half, :half], rho[:, half:, half:])
        for bit, (p, branch) in enumerate(branches):
            if branch is not None:
                live, kept = branch
                kid_probs, kid_c = probs[live] * p[live], c[live]
                folded = kid_c == twin
                if bit == 0:
                    kid_probs[folded] *= 2.0
                elif folded.any():
                    kept, kid_probs, kid_c = kept[~folded], kid_probs[~folded], kid_c[~folded]
                kids.append((kept, kid_probs, kid_c | bit << s))
        sigma, kid_probs, c = (np.concatenate(x) for x in zip(*kids))
        ratio = kid_probs.sum() / probs.sum()
        if abs(ratio - 1.0) > 1e-9 / (2 * inst.L):
            raise RuntimeError(f"leaf probabilities sum to {ratio} of their parents' at stage {s}")
        yield owners, 2 * s + 1, kid_probs, sigma, c
        if s + 1 < inst.L:
            for lo in reversed(range(0, kid_probs.size, chunk)):
                part = slice(lo, lo + chunk)
                stack.append((owners, s + 1, sigma[part], kid_probs[part], c[part]))


def _shannon_entropy(p: np.ndarray) -> float:
    """-sum(p log2 p) in bits over the nonzero entries of a distribution."""
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def tree_profile(inst: ShorInstance, kind: InitialStateKind, epsilon: float = 0.0) -> TreeResult:
    """Exact branch enumeration with per-stage entanglement and mixedness.

    Returns the 2L stage reports (after each controlled multiplication
    and after each measurement) plus the exact leaf distribution over c,
    from _tree_profiles on a group of one.
    The branches are those of _tree_steps, one per complex-conjugate
    pair with the pair's path mass, so the averages are those of the
    whole tree, and each leaf is spread over c and -c mod t.
    Only the post-measure mixedness takes eigensolves: the gates are
    unitary and the re-prepared control is independent of the work
    register, so the mixedness after stage s's gates is the report
    before it (at stage 0, the Shannon entropy of the work distribution)
    plus h2(epsilon) times the path mass of the stage.
    Noisy runs go through monte_carlo_sweep.
    """
    e, s, leaf = _tree_profiles((inst,), kind, epsilon)
    return TreeResult(reports=_reports(e[0], s[0]), leaf_probs=leaf[0])


def _tree_profiles(group, kind: InitialStateKind, epsilon: float = 0.0):
    """The sampling-point means and leaves of every instance of a group of one N.

    Returns (e, s, leaf): e and s are (len(group), 2L) arrays of the
    average log-negativity and mixedness at each sampling point, and leaf
    is the (len(group), t) array of outcome distributions, all from one
    _tree_steps walk.  Each chunk's contributions are added to the rows
    of every instance that owns it, in the depth-first order of the walk,
    which is each instance's own walk order, so each row is exactly what
    the instance sums alone, bit for bit.
    """
    inst = group[0]
    points = 2 * inst.L
    e_av, s_av = np.zeros((len(group), points)), np.zeros((len(group), points))
    leaf = np.zeros((len(group), inst.t))
    h2 = _shannon_entropy(np.array([epsilon, 1.0 - epsilon]))
    for owners, point, probs, states, c in _tree_steps(group, kind, epsilon):
        rows = list(owners)
        post_measure = point % 2 == 1
        e_av[rows, point] += probs @ entanglement._point_entanglement(states, post_measure)
        if post_measure:
            s_av[rows, point] += probs @ entanglement.mixedness(states)
        else:
            s_av[rows, point] += h2 * probs.sum()
        if point == points - 1:
            leaf[rows] += _spread_leaves(c, probs, inst.t)
    s_av[:, 0] += _shannon_entropy(circuit.work_distribution(inst, kind))
    s_av[:, 2::2] += s_av[:, 1:-1:2]
    s_av[s_av < entanglement.CLAMP_TOL] = 0.0  # round-off, as in mixedness
    return e_av, s_av, leaf


def _reports(e: np.ndarray, s: np.ndarray) -> tuple[StageReport, ...]:
    """The 2L StageReports of a run's per-point entanglement e and mixedness s."""
    return tuple(
        StageReport(stage=i // 2, kind=_POINT_KINDS[i % 2], avg_logneg=float(x), mixedness=float(y))
        for i, (x, y) in enumerate(zip(e, s))
    )


def tree_leaf_distribution(inst: ShorInstance, kind: InitialStateKind) -> np.ndarray:
    """Exact outcome distribution over c from branch enumeration only.

    Skips the per-stage entanglement bookkeeping of tree_profile; used for
    oracle comparisons where only the leaf probabilities matter.  Like
    tree_profile, it steps one branch per conjugate pair and spreads each
    leaf over c and -c mod t.
    """
    leaf = np.zeros(inst.t)
    for _, point, probs, _, c in _tree_steps((inst,), kind, 0.0):
        if point == 2 * inst.L - 1:
            leaf += _spread_leaves(c, probs, inst.t)
    return leaf


def _spread_leaves(c: np.ndarray, probs: np.ndarray, t: int) -> np.ndarray:
    """The outcome distribution over [0, t) of the kept leaves of _tree_steps.

    Each leaf puts half its mass on c and half on its partner -c mod t; a
    self-conjugate leaf (c = 0 or t/2) puts both halves on itself.
    Halving is exact, so every kept leaf reads its own path probability.
    """
    half = 0.5 * probs
    return np.bincount(c, half, t) + np.bincount(-c % t, half, t)


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
    return bool(np.array_equal(w[circuit._work_permutation(inst.N, inst.n, inst.a)], w))


def ensemble_profile(bits: int, kind: InitialStateKind) -> list[StageReport]:
    """Mean of tree_profile over every (N, a) of the ensemble, each with weight 1.

    When the initial work state commutes with U_a (b -> a b mod N), as for
    mixed-n and mixed-full, the tree of a^-1 mod N repeats the tree of a:
    each base steps the member of its pair {a, a^-1} with the smaller
    stage multipliers, and a tree counts once for every base that steps
    it.  This is exact.  Every work block of the a
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
    own with weight 1, summed in the same order.  The trees of one N are
    stepped together by _tree_profiles, each row bit for bit its
    tree_profile, and the weighted rows are added one tree at a time,
    from 0.0 in stepping order, then divided once by the ensemble size.
    """
    if bits not in (4, 5):
        raise ValueError("ensemble profiles are defined for 4- and 5-digit numbers")
    weights: dict[ShorInstance, int] = {}
    for inst in ensemble_instances(bits):
        if _commutes_with_multiplication(inst, kind):
            inverse = circuit.build_instance(inst.N, pow(inst.a, -1, inst.N))
            inst = min(inst, inverse, key=circuit.stage_multipliers)
        weights[inst] = weights.get(inst, 0) + 1
    e_sum = s_sum = 0.0
    for _, group in itertools.groupby(weights, key=operator.attrgetter("N")):
        group = tuple(group)
        e_av, s_av, _ = _tree_profiles(group, kind)
        for inst, e, s in zip(group, e_av, s_av):
            e_sum += weights[inst] * e
            s_sum += weights[inst] * s
    count = sum(weights.values())
    return list(_reports(e_sum / count, s_sum / count))


# Philox4x64-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
# 3", SC'11): the multipliers of the counter words v0 and v2, the Weyl
# increments of the two key words, and the 32-bit halves the 64 x 64 ->
# 128-bit products are formed from.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_LOW, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LOW, _PHILOX_M >> _HALF


def _run_uniforms(seed: int, runs: range, count: int) -> np.ndarray:
    """The first `count` uniforms of each run's (seed, run) stream, shape (len(runs), count).

    Row i is numpy's Generator(Philox(key=[seed mod 2^64, runs[i]])).random(count),
    bit for bit, drawn for every run in one array pass: Philox is
    counter-based, so block j of a run, its words 4j..4j+3, is ten rounds
    on the counter (j + 1, 0, 0, 0) under the key (seed, run), and word w
    gives the double (w >> 11) 2^-53.  The counter is kept as the pairs
    (v0, v2), which a round multiplies, and (v1, v3); every wrapping
    operation acts on arrays, which wrap silently.  Streams are keyed by
    (seed, run), and every draw inside a run happens in fixed circuit
    order, so sweep results are independent of how runs are scheduled.
    """
    runs = np.asarray(runs, dtype=np.uint64)
    blocks = -(-count // 4)
    key = np.empty((2, runs.size, 1), dtype=np.uint64)
    key[0], key[1, :, 0] = seed & (2**64 - 1), runs
    even = np.zeros((2, runs.size, blocks), dtype=np.uint64)
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)
    for _ in range(10):
        low, high = even & _LOW, even >> _HALF
        cross = _PHILOX_M_LO * high + ((_PHILOX_M_LO * low) >> _HALF)
        low *= _PHILOX_M_HI
        low += cross & _LOW
        high *= _PHILOX_M_HI
        high += (cross >> _HALF) + (low >> _HALF)  # the high words of the products
        even *= _PHILOX_M  # their low words
        high = high[::-1] ^ odd
        high ^= key
        even, odd = high, even[::-1]
        key += _PHILOX_W
    words = np.stack((even[0], odd[0], even[1], odd[1]), axis=-1).reshape(runs.size, 4 * blocks)
    return (words[:, :count] >> np.uint64(11)) * 2.0**-53


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

    The measurement reads the Hadamard's diagonal blocks, which depend
    only on a + d and b + c, so the control's noise is its coherence kappa
    on the off-diagonal blocks b and c (circuit._stage_blocks): 0 for a
    run whose control is hit before the Hadamard, or by a Pauli channel
    after it, whose I/2 (x) Tr_0 leaves (a + d) / 2 in both, and 1
    otherwise.  A stage whose multiplier is 1 forms no blocks: its
    multiplication is the identity, so measuring keeps sigma, and
    circuit._sample_bits draws the bit from p0, p1 = (1 +- kappa cos 2 pi
    theta_s) / 2.
    """
    runs = uniforms.shape[0]
    noisy = _noisy_qubits(inst, cfg)
    prob = cfg.prob if noisy else 0.0
    measurement = noisy and cfg.kind == noise.MEASUREMENT
    channel = noise.dephase_qubit if measurement else noise.depolarize_qubit
    # a control hit before the Hadamard, or a Pauli hit after it, erases its coherence
    erasing = slice(-1) if measurement else slice(None)
    work = np.diag(circuit.work_distribution(inst, kind)).astype(complex)
    sigma = np.broadcast_to(work, (runs,) + work.shape)
    outcome = np.zeros(runs, dtype=np.int64)
    first = 0
    for s, multiplier in enumerate(circuit.stage_multipliers(inst)):
        gates = 3 if s else 2  # cu and h, with the phase between them from stage 1 on
        last = first + gates * noisy
        hits = uniforms[:, first:last].reshape(runs, gates, noisy) < prob
        draws = uniforms[:, last]
        first = last + 1
        work_hits = hits[:, :, -inst.n :].any(axis=1)
        coherence = 1.0 - hits[:, erasing, 0].any(axis=1) if noisy == inst.m else 1.0
        if multiplier == 1:
            bias = coherence * np.cos(2 * np.pi * circuit._phase_angle(outcome, s))
            bit = circuit._sample_bits(0.5 * (1.0 + bias), 0.5 * (1.0 - bias), draws)
            if work_hits.any():
                sigma = sigma.copy()  # a yielded sigma, or the read-only stage-0 broadcast
        else:
            a, b, c, d = circuit._stage_blocks(sigma, inst, s, outcome, coherence)
            del sigma  # at most five (B, d/2, d/2) stacks are held at once
            top, bottom = circuit._hadamard_diagonal(a, b, c, d)
            del a, b, c, d
            bit, sigma = circuit.sample_control(top, bottom, draws)
            del top, bottom
        for q, hit in enumerate(work_hits.T):
            if hit.any():
                sigma[hit] = channel(sigma[hit], q)
        outcome |= bit << s
        yield bit, sigma


def run_trajectory(
    inst: ShorInstance,
    kind: InitialStateKind,
    cfg: NoiseConfig | None,
    uniforms: np.ndarray,
) -> np.ndarray:
    """The outcome c of each run of a stack, bit s with weight 2^s, by _run_steps.

    Row i of `uniforms` is run i's stream, drawn by _run_uniforms from (seed, i).
    """
    # map holds no yielded sigma while the stepper forms the next stage
    bits = map(operator.itemgetter(0), _run_steps(inst, kind, cfg, uniforms))
    return sum(bit << s for s, bit in enumerate(bits))


def _sweep_outcomes(
    inst: ShorInstance,
    kind: InitialStateKind,
    configs,
    runs: int,
    seed: int,
) -> np.ndarray:
    """Outcomes of runs 0..runs-1 at every configuration, shape (len(configs), runs).

    Runs are stepped in chunks of CHUNK_BYTES per stack of control
    blocks.  The streams are drawn once for the whole grid, as long as
    the hungriest configuration needs, in stretches of whole chunks
    holding at most CHUNK_BYTES of uniforms (at least one chunk); one
    that needs fewer draws, such as a noiseless one, reads the leading
    columns, which are the draws its own shorter stream would give.
    """
    chunk = _chunk_size(1 << inst.n)
    totals = [_draws_per_run(inst, cfg) for cfg in configs]
    count = max(totals, default=0)
    stretch = chunk * max(1, CHUNK_BYTES // (8 * chunk * max(count, 1)))
    outcomes = np.zeros((len(configs), runs), dtype=np.int64)
    for start in range(0, runs, stretch):
        drawn = _run_uniforms(seed, range(start, min(start + stretch, runs)), count)
        for first in range(0, len(drawn), chunk):
            uniforms = drawn[first : first + chunk]
            part = slice(start + first, start + first + len(uniforms))
            for row, cfg, total in zip(outcomes, configs, totals):
                row[part] = run_trajectory(inst, kind, cfg, uniforms[:, :total])
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
        _coherence(e)
    mask = extraction_success_mask(inst)

    def evaluate(eps: float) -> MixSweepRow:
        result = tree_profile(inst, kind, epsilon=eps)
        return MixSweepRow(
            epsilon=eps,
            success_prob=float(result.leaf_probs[mask].sum()),
            avg_entanglement=result.whole_run_average_entanglement(),
        )

    return [evaluate(eps) for eps in epsilons]


def _entangled(
    inst: ShorInstance, kind: InitialStateKind, epsilon: float, threshold: float
) -> bool:
    """Whether the whole-run average entanglement at epsilon reaches `threshold`.

    The average is summed chunk by chunk over one _tree_steps walk.
    Every term is nonnegative, so the walk answers yes at the first chunk
    whose running sum over the 2L sampling points reaches `threshold`.
    """
    points = 2 * inst.L
    running = 0.0
    for _, point, probs, states, _ in _tree_steps((inst,), kind, epsilon):
        running += probs @ entanglement._point_entanglement(states, point % 2 == 1)
        if running / points >= threshold:
            return True
    return False


def find_entanglement_crossing(
    inst: ShorInstance,
    kind: InitialStateKind,
    threshold: float = entanglement.CLAMP_TOL,
    refine_tol: float = 1e-4,
) -> float:
    """Smallest mixing strength at which the average entanglement vanishes.

    It vanishes where TreeResult.whole_run_average_entanglement falls
    below `threshold`, asked of each epsilon by _entangled.  The first
    grid point (step 0.002) where it vanishes is found by bisection over
    the grid index, which matches the linear scan because the average
    decreases monotonically in epsilon; the bracketing grid cell, entangled
    on the left and vanished on the right, is then bisected down to
    `refine_tol`.  Both tolerances must be finite and positive; the
    refinement also stops at float resolution.  Epsilon = 1/2 is taken
    as vanished without a walk: at coherence 0 every sigma stays diagonal,
    by induction over the stages, so every post-gate state is a mixture
    of |+-><+-| (x) |b><b|, separable, with every negativity exactly 0.
    """
    for name, value in (("threshold", threshold), ("refine_tol", refine_tol)):
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if not _entangled(inst, kind, 0.0, threshold):
        return 0.0
    grid_step = 0.002
    lo, hi = 0, round(0.5 / grid_step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _entangled(inst, kind, mid * grid_step, threshold):
            lo = mid
        else:
            hi = mid
    lo_eps, hi_eps = lo * grid_step, hi * grid_step
    mid = 0.5 * (lo_eps + hi_eps)
    while hi_eps - lo_eps > refine_tol and lo_eps < mid < hi_eps:
        if _entangled(inst, kind, mid, threshold):
            lo_eps = mid
        else:
            hi_eps = mid
        mid = 0.5 * (lo_eps + hi_eps)
    return hi_eps
