"""The full-state reference path that the engines are checked against.

Every function here acts on whole (d, d) density matrices, or stacks of
them, through the public gate kernels of `mixshor.circuit`
(`stage_gates`, `plus_control`, `reprepare_control`) and
`mixshor.noise.noise_pass`; none uses the block stage of the engines.
`run_stage_gates` and `measure_control` are the full-state forms that
the engines' block forms replace.  Both full-state walks take the phase
correction from `phase_correction_angle`, a sum over the measured bits,
not from the engines' closed form over the outcome.  `sector_distribution`
is a closed form instead, the oracle of the mixed-control outcome
distribution, and `run_rng` is numpy's generator of a Monte Carlo run's
stream, the one the vectorized draw of the sweeps must equal.
`reference_block_plan` is the block plan of the entanglement measures
before it summed positive blocks by their diagonal: it solves every
block, one plan per call.  `convergents` is the continued-fraction rule
that `numtheory.extract_period` runs in integers, and
`assert_valid_state` the density-matrix invariants the tests check
states against.
"""

from fractions import Fraction

import numpy as np

from mixshor import densemat
from mixshor.circuit import (
    DEAD_BRANCH_TOL,
    ComputerState,
    _live,
    _outcomes,
    initial_state,
    plus_control,
    reprepare_control,
    stage_gates,
    work_distribution,
)
from mixshor.entanglement import average_log_negativity
from mixshor.noise import noise_pass

TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9


def phase_correction_angle(bits, s: int) -> float:
    """Accumulated correction angle theta_s in [0, 1) turns for stage s.

    theta_s = sum_{k=2}^{s+1} m_{s+1-k} / 2^k, so the gate applied is
    diag(1, exp(-2 pi i theta_s)) on the control qubit.  Each entry of
    `bits` may also be a vector holding that bit for every run of a
    stack, giving one angle per run; the terms are dyadic rationals, so
    the sum is exact in any order.
    """
    if s < 0 or len(bits) < s:
        raise ValueError("need at least s measured bits")
    theta = 0.0
    for k in range(2, s + 2):
        theta += bits[s + 1 - k] / (1 << k)
    return theta


def run_stage_gates(state: ComputerState, inst) -> ComputerState:
    """Apply the controlled multiplication, phase correction and Hadamard of state.stage.

    `state.rho` is one state or a (B, d, d) stack whose `bits` hold one
    vector per measured bit (see phase_correction_angle).  Does not
    measure; the stage advances with the measured bit.
    """
    rho = state.rho
    for apply in stage_gates(inst, state.stage, phase_correction_angle(state.bits, state.stage)):
        rho = apply(rho)
    return ComputerState(rho=rho, bits=state.bits)


def measure_control(state: ComputerState):
    """Projective measurement of the control in the computational basis.

    Returns ((p0, branch0), (p1, branch1)); a branch with probability
    below DEAD_BRANCH_TOL is dead and returned as None.  On a (B, d, d)
    stack, whose `bits` are per-member vectors, p0 and p1 hold every
    member's probabilities and each branch holds, in order, the members
    for which that outcome is alive, or is None when it is dead for all
    of them.
    """
    rho = state.rho
    half = rho.shape[-1] // 2
    p0, p1 = _outcomes(rho[..., :half, :half], rho[..., half:, half:])
    live0, live1 = _live(p0, p1)

    def collapse(bit: int, p, live) -> ComputerState | None:
        live = np.ravel(live)
        if not live.any():
            return None
        members = rho.reshape((-1,) + rho.shape[-2:])
        out = np.zeros((np.count_nonzero(live),) + rho.shape[-2:], dtype=rho.dtype)
        sl = slice(bit * half, (bit + 1) * half)
        out[:, sl, sl] = members[live, sl, sl] / np.ravel(p)[live][:, None, None]
        if rho.ndim == 2:
            return ComputerState(rho=out[0], bits=state.bits + (bit,))
        bits = tuple(b[live] for b in state.bits) + (np.full(len(out), bit),)
        return ComputerState(rho=out, bits=bits)

    if rho.ndim == 2:
        p0, p1 = float(p0), float(p1)
    return (p0, collapse(0, p0, live0)), (p1, collapse(1, p1, live1))


def reference_tree_steps(inst, kind, epsilon, chunk):
    """The measurement tree on full states, yielding what experiments._tree_steps yields.

    (point, probs, states, c), the yields of _tree_steps on a group of
    one without their owners, per chunk of `chunk` branches at each of
    the 2L sampling points: the full post-gate states, then the work
    blocks sigma of the measured states, with path probabilities and
    outcome bits so far.  Each stage prepares the control with
    plus_control, runs stage_gates on the full stack and collapses it
    with the full-state measure_control.
    """
    half = 1 << inst.n
    sigma = np.diag(work_distribution(inst, kind)).astype(complex)[None]
    probs, c = np.ones(1), np.zeros(1, dtype=np.int64)
    for s in range(inst.L):
        grown = []
        for lo in range(0, probs.size, chunk):
            part = slice(lo, lo + chunk)
            chunk_probs, chunk_c = probs[part], c[part]
            bits = tuple((chunk_c >> k) & 1 for k in range(s))
            rho = plus_control(sigma[part], epsilon)
            state = run_stage_gates(ComputerState(rho, bits), inst)
            yield 2 * s, chunk_probs, state.rho, chunk_c
            kids = []
            for bit, (p, branch) in enumerate(measure_control(state)):
                if branch is not None:
                    live = ~(p < DEAD_BRANCH_TOL)
                    block = slice(bit * half, (bit + 1) * half)
                    kids.append((
                        branch.rho[:, block, block],
                        chunk_probs[live] * p[live],
                        chunk_c[live] | bit << s,
                    ))
            kid_sigma, kid_probs, kid_c = (np.concatenate(x) for x in zip(*kids))
            yield 2 * s + 1, kid_probs, kid_sigma, kid_c
            grown.append((kid_sigma, kid_probs, kid_c))
        sigma, probs, c = (np.concatenate(x) for x in zip(*grown))


def explicit_tree(inst, kind, epsilon=0.0):
    """Re-walk the measurement tree keeping per-branch probability lists.

    Stage averages are recomputed from the explicit product of branch
    probabilities, as an independent check of the incremental weights.
    """
    branches = [(initial_state(inst, kind, epsilon), [])]
    averages = []
    for s in range(inst.L):
        branches = [(run_stage_gates(st, inst), probs) for st, probs in branches]
        averages.append(
            sum(np.prod(probs) * average_log_negativity(st.rho) for st, probs in branches)
        )
        grown = []
        for st, probs in branches:
            (p0, b0), (p1, b1) = measure_control(st)
            if b0 is not None:
                grown.append((b0, probs + [p0]))
            if b1 is not None:
                grown.append((b1, probs + [p1]))
        branches = grown
        averages.append(
            sum(np.prod(probs) * average_log_negativity(st.rho) for st, probs in branches)
        )
        if s < inst.L - 1:
            branches = [(reprepare_control(st, epsilon), probs) for st, probs in branches]
    leaf = np.zeros(inst.t)
    for st, probs in branches:
        c = sum(bit << i for i, bit in enumerate(st.bits))
        leaf[c] += np.prod(probs)
    return averages, leaf


def run_rng(seed: int, run: int):
    """numpy's Philox generator of run `run`'s stream, keyed by (seed mod 2^64, run)."""
    key = np.array([seed & (2**64 - 1), run], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def reference_stages(inst, kind, cfg, rng, check=lambda rho: None):
    """One Monte Carlo run, one state at a time, from the full-state circuit steps.

    Yields the measured bit and the kept work block sigma after every
    stage.  Draws happen lazily in circuit order: one per noisy qubit
    after every gate, then one for the measurement, which takes |0>
    below p0 and never a dead branch.  `check` sees every state: the
    prepared one, each after a gate and its noise, and the measured one.
    """
    state = initial_state(inst, kind)
    half = 1 << inst.n
    for s in range(inst.L):
        rho = state.rho
        check(rho)
        for apply in stage_gates(inst, s, phase_correction_angle(state.bits, s)):
            rho = noise_pass(apply(rho), cfg, rng)
            check(rho)
        (p0, b0), (p1, b1) = measure_control(ComputerState(rho, state.bits))
        draw = rng.random()
        state = b0 if b1 is None or (b0 is not None and draw < p0) else b1
        check(state.rho)
        bit = state.bits[-1]
        block = slice(bit * half, (bit + 1) * half)
        yield bit, state.rho[block, block]
        if s < inst.L - 1:
            state = reprepare_control(state)


def reference_trajectory(inst, kind, cfg, rng):
    """The outcome c of reference_stages, bit s with weight 2^s."""
    return sum(bit << s for s, (bit, _) in enumerate(reference_stages(inst, kind, cfg, rng)))


def sector_distribution(inst, kind, eps):
    """Outcome distribution over c at control mixing eps, in closed form, one eigenphase at a time.

    A cycle of b -> a b mod N of length r splits into the r eigenvectors
    of the multiplication, with phases k/r and each with the cycle's
    mass / r; a b >= N is a fixed point with phase 0.  Given the phase
    phi, stage s gives bit m_s with probability
    1/2 [1 + (-1)^m_s (1 - 2 eps) cos 2 pi beta_s], where
    beta_s = 2^(L-1-s) phi - theta_s(c) and theta_s(c) = (c mod 2^s) / 2^(s+1)
    is the phase correction, independently of the other stages.  The
    cycles are walked here, not taken from numtheory, and
    2^(L-1-s) k is reduced mod r in integers, so beta_s stays within
    (-1/2, 1) and loses no digits to a large argument.
    """
    weights = work_distribution(inst, kind)
    sectors = [(0, 1, weights[b]) for b in range(inst.N, 1 << inst.n)]
    seen = set()
    for start in range(inst.N):
        if start in seen:
            continue
        cycle = [start]
        while (nxt := inst.a * cycle[-1] % inst.N) != start:
            cycle.append(nxt)
        seen.update(cycle)
        r = len(cycle)
        sectors += [(k, r, weights[cycle].sum() / r) for k in range(r)]
    c = np.arange(inst.t)
    probs = np.zeros(inst.t)
    for k, r, mass in sectors:
        p = np.ones(inst.t)
        for s in range(inst.L):
            beta = ((k << (inst.L - 1 - s)) % r) / r - (c % (1 << s)) / (2 << s)
            sign = 1 - 2 * ((c >> s) & 1)
            p *= 0.5 * (1 + sign * (1 - 2 * eps) * np.cos(2 * np.pi * beta))
        probs += mass * p
    return probs


def _transpose_map(dim: int, subset: tuple[int, ...]) -> np.ndarray:
    """(dim, dim) flat indices: member.ravel()[map] is its partial transpose over `subset`."""
    index = np.arange(dim * dim)
    if subset:
        m = dim.bit_length() - 1
        axes = list(range(2 * m))
        for q in subset:
            axes[q], axes[m + q] = axes[m + q], axes[q]
        index = index.reshape((2,) * (2 * m)).transpose(axes)
    return index.reshape(dim, dim)


def reference_block_plan(pattern: bytes, dim: int, subsets: tuple[tuple[int, ...], ...]):
    """Gather indices of the independent blocks of a sparsity pattern's partial transposes.

    The form of entanglement._block_plan without `split`: every block of
    two or more entries is solved, and blocks are deduped across subsets
    by np.unique even when there is one subset.  The blocks of a
    transposed pattern are the connected components of its graph: every
    node takes the smallest label among itself and its neighbours, then
    the label of its label, until nothing changes.  Returns one (count,
    s, s) array of flat member indices per distinct block of size s,
    sizes ascending, and the gather that takes the blocks' values to
    subset-major order, dim values per subset.
    """
    nonzero = np.unpackbits(np.frombuffer(pattern, np.uint8), count=dim * dim).astype(bool)
    index = np.stack([_transpose_map(dim, subset) for subset in subsets])
    adj = nonzero[index]
    adj |= adj.transpose(0, 2, 1)
    label = np.broadcast_to(np.arange(dim), (len(subsets), dim))
    while True:
        new = np.where(adj, label[:, None, :], label[:, :, None]).min(axis=2)
        new = np.take_along_axis(new, new, axis=1)
        if np.array_equal(new, label):
            break
        label = new
    # positions k * dim + node, grouped by component in (subset, root, node) order
    comp = (label + dim * np.arange(len(subsets))[:, None]).ravel()
    pos = np.argsort(comp, kind="stable")
    first = np.flatnonzero(np.diff(comp[pos], prepend=-1))
    size = np.diff(first, append=comp.size)
    blocks, owner, source, offset = [], [], [], 0
    for s in np.flatnonzero(np.bincount(size)):
        k, node = np.divmod(pos[first[size == s][:, None] + np.arange(s)], dim)
        gather = index[k[:, :, None], node[:, :, None], node[:, None, :]]
        # a block gathered by several subsets is solved once
        keys = gather.reshape(len(k), -1).view(np.dtype((np.void, s * s * gather.itemsize)))
        _, keep, inverse = np.unique(keys[:, 0], return_index=True, return_inverse=True)
        blocks.append(gather[keep])
        owner.append(k.ravel())
        source.append(offset + (inverse[:, None] * s + np.arange(s)).ravel())
        offset += len(keep) * s
    order = np.argsort(np.concatenate(owner), kind="stable")
    return blocks, np.concatenate(source)[order]


def convergents(c: int, t: int) -> list[Fraction]:
    """All continued-fraction convergents of c/t, ending at c/t in lowest terms.

    Quotients come from the Euclidean algorithm; since c < t the sequence
    always starts with the convergent 0/1.
    """
    if t < 1 or not 0 <= c < t:
        raise ValueError("convergents requires 0 <= c < t")
    quotients = []
    num, den = c, t
    while den:
        q, rem = divmod(num, den)
        quotients.append(q)
        num, den = den, rem
    out = []
    p_prev, q_prev = 1, 0
    p_cur, q_cur = quotients[0], 1
    out.append(Fraction(p_cur, q_cur))
    for a_i in quotients[1:]:
        p_cur, p_prev = a_i * p_cur + p_prev, p_cur
        q_cur, q_prev = a_i * q_cur + q_prev, q_cur
        out.append(Fraction(p_cur, q_cur))
    return out


def assert_valid_state(rho: np.ndarray, context: str = "") -> None:
    """Check the density-matrix invariants: Hermitian, unit trace, PSD.

    A stack of states along leading axes is checked member by member.
    """
    if rho.ndim > 2:
        for member in rho.reshape((-1,) + rho.shape[-2:]):
            assert_valid_state(member, context)
        return
    tag = f" ({context})" if context else ""
    if not densemat.is_hermitian(rho):
        raise ValueError(f"state is not Hermitian within {densemat.HERMITICITY_TOL}{tag}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"state trace {tr} deviates from 1{tag}")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < -EIGENVALUE_TOL:
        raise ValueError(f"state has eigenvalue {lo} below -{EIGENVALUE_TOL}{tag}")
