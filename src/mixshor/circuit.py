"""Single-control-qubit period-finding circuit on density matrices.

Layout: qubit 0 is the recycled control qubit, qubits 1..n hold the work
register with qubit 1 as the most significant bit of the work integer b.
Stage s (0-indexed, s = 0..L-1) applies the controlled modular
multiplication with exponent 2^(L-1-s), an adaptive phase correction
conditioned on all previous measurement results, and a Hadamard on the
control, after which the control is measured; the measured bit m_s
carries weight 2^s in the outcome c = sum_s 2^s m_s.

A run reads its base a only through the stage multipliers
a^(2^(L-1-s)) mod N (stage_multipliers), and each multiplier has one
cached, read-only work-index gather (_work_permutation).  Both engines
run a stage on the four (d/2, d/2) control blocks of each member's work
block (_stage_blocks), but at Monte Carlo's stages whose multiplier is
1 (_sample_bits).  The tree's mixing epsilon and Monte Carlo's control
noise are one coherence factor on the off-diagonal control blocks.  The
full-state functions (initial_state, stage_gates, reprepare_control)
are their reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import numtheory

__all__ = [
    "DEAD_BRANCH_TOL",
    "InitialStateKind",
    "ShorInstance",
    "ComputerState",
    "build_instance",
    "stage_multipliers",
    "initial_state",
    "work_distribution",
    "stage_gates",
    "run_stage_gates",
    "measure_control",
    "sample_control",
    "reprepare_control",
    "plus_control",
    "reference_distribution",
]

DEAD_BRANCH_TOL = 1e-14


class InitialStateKind(Enum):
    """Preparation of the work register before the first stage."""

    PURE = "pure"            # basis state |1>
    MIXED_N = "mixed-n"      # uniform mixture over b < N
    MIXED_FULL = "mixed-full"  # maximally mixed work register, I / 2^n


@dataclass(frozen=True)
class ShorInstance:
    """Static description of one period-finding problem."""

    N: int
    a: int
    n: int   # work qubits, ceil(log2 N)
    L: int   # control stages, 2n
    t: int   # 2^L
    r: int   # true order of a mod N, from the brute-force oracle

    @property
    def m(self) -> int:
        """Total qubit count: one control plus the work register."""
        return self.n + 1


@dataclass(frozen=True)
class ComputerState:
    """Density matrix plus measurement history of a running algorithm.

    `rho` may also be a (B, d, d) stack of states; `bits` then holds one
    vector of B bits per measured stage.
    """

    rho: np.ndarray
    bits: tuple[int, ...]

    @property
    def stage(self) -> int:
        """The stage whose gates come next: one per measured bit."""
        return len(self.bits)


def build_instance(N: int, a: int) -> ShorInstance:
    """Populate every derived field for a (N, a) problem."""
    if not 6 <= N <= 31:
        raise ValueError(f"N={N} outside the supported range 6..31")
    if numtheory.is_prime(N):
        raise ValueError(f"N={N} is prime")
    if not 2 <= a < N:
        raise ValueError(f"need 2 <= a < N, got a={a}")
    if math.gcd(a, N) != 1:
        raise ValueError(f"a={a} not coprime to N={N}")
    n = (N - 1).bit_length()
    L = 2 * n
    return ShorInstance(
        N=N,
        a=a,
        n=n,
        L=L,
        t=1 << L,
        r=numtheory.multiplicative_order(a, N),
    )


def work_distribution(inst: ShorInstance, kind: InitialStateKind) -> np.ndarray:
    """Diagonal of the initial work-register state over b in [0, 2^n)."""
    dim = 1 << inst.n
    w = np.zeros(dim)
    if kind is InitialStateKind.PURE:
        w[1] = 1.0
    elif kind is InitialStateKind.MIXED_N:
        w[: inst.N] = 1.0 / inst.N
    elif kind is InitialStateKind.MIXED_FULL:
        w[:] = 1.0 / dim
    else:
        raise ValueError(f"unknown initial state kind {kind!r}")
    return w


def initial_state(
    inst: ShorInstance, kind: InitialStateKind, epsilon: float = 0.0
) -> ComputerState:
    """Control prepared toward |+> (mixed by epsilon), work register per kind."""
    work = np.diag(work_distribution(inst, kind)).astype(complex)
    return ComputerState(rho=plus_control(work, epsilon), bits=())


@lru_cache(maxsize=None)
def stage_multipliers(inst: ShorInstance) -> tuple[int, ...]:
    """a^(2^(L-1-s)) mod N for s = 0..L-1: the multiplier of each stage's controlled multiplication."""
    return tuple(pow(inst.a, 1 << (inst.L - 1 - s), inst.N) for s in range(inst.L))


@lru_cache(maxsize=None)
def _work_permutation(N: int, n: int, multiplier: int) -> np.ndarray:
    """The (2^n,) read-only work-index gather of U_multiplier: b < N -> multiplier^-1 b mod N.

    Work values b >= N stay fixed.  Gathering the work indices of the
    control-1 side by it conjugates by the controlled multiplication.
    """
    perm = np.arange(1 << n)
    perm[:N] = pow(multiplier, -1, N) * perm[:N] % N
    perm.flags.writeable = False
    return perm


def _phase_angle(outcome: np.ndarray, s: int) -> np.ndarray:
    """The phase correction theta_s in [0, 1) turns of stage s, per member, from its outcome so far.

    theta_s = sum_{k=2}^{s+1} m_{s+1-k} / 2^k over the measured bits m, so
    the gate is diag(1, exp(-2 pi i theta_s)) on the control.  With bit
    k of the outcome c weighted 2^k this is (c mod 2^s) / 2^(s+1): a
    dyadic rational, exact in floating point.
    """
    return (outcome & ((1 << s) - 1)) / (2 << s)


# The gate kernels act on one state or on a stack of states along leading
# axes, and treat every member exactly as they would treat it alone.


def _apply_control_phase(rho: np.ndarray, theta) -> np.ndarray:
    """diag(1, exp(-2 pi i theta)) on the control qubit; theta may be per member."""
    half = rho.shape[-1] // 2
    out = rho.copy()
    phase = np.exp(-2j * np.pi * np.asarray(theta))[..., None, None]
    out[..., half:, :half] *= phase
    out[..., :half, half:] *= np.conj(phase)
    return out


def _apply_control_hadamard(rho: np.ndarray) -> np.ndarray:
    half = rho.shape[-1] // 2
    a = rho[..., :half, :half]
    b = rho[..., :half, half:]
    c = rho[..., half:, :half]
    d = rho[..., half:, half:]
    out = np.empty_like(rho)
    out[..., :half, :half] = (a + b + c + d) * 0.5
    out[..., :half, half:] = (a - b + c - d) * 0.5
    out[..., half:, :half] = (a + b - c - d) * 0.5
    out[..., half:, half:] = (a - b - c + d) * 0.5
    return out


def stage_gates(inst: ShorInstance, s: int, theta):
    """Displayed gates of stage s in circuit order, as functions of the state.

    theta is the caller's phase-correction angle in turns (see
    _phase_angle), a scalar or one per member of a stack of runs.  The
    phase correction appears from the second stage onward, matching the
    displayed circuit; its angle at stage 0 would be zero anyway.
    """
    if not 0 <= s < inst.L:
        raise ValueError(f"stage {s} outside 0..{inst.L - 1}")
    half = 1 << inst.n
    perm = _work_permutation(inst.N, inst.n, stage_multipliers(inst)[s])
    inv = np.concatenate((np.arange(half), half + perm))
    # permutation conjugation by row/column gather; exact, no hermitization needed
    ops = [lambda rho: rho[..., inv[:, None], inv]]
    if s >= 1:
        ops.append(lambda rho: _apply_control_phase(rho, theta))
    ops.append(_apply_control_hadamard)
    return ops


def _stage_blocks(sigma: np.ndarray, inst: ShorInstance, s: int, outcome, coherence=1.0):
    """The four control blocks of stage s up to its Hadamard, from each member's work block.

    The stage step of both steppers, bit for bit the full-state gates of
    stage_gates.  The control is prepared toward |+> with coherence kappa,
    a scalar or one value per member, on the off-diagonal blocks b and c:
    1 - 2 epsilon for plus_control's mixing by epsilon, 0 for a control
    that noise has dephased.  The controlled multiplication permutes the
    work indices of the control-1 side, and from stage 1 the phase
    correction, read off each member's outcome c so far by _phase_angle,
    turns the off-diagonal blocks.  Returns the C-contiguous (0, 0),
    (0, 1), (1, 0) and (1, 1) blocks a, b, c, d.
    """
    perm = _work_permutation(inst.N, inst.n, stage_multipliers(inst)[s])
    a = sigma * 0.5
    # take gathers into C-contiguous blocks; fancy indexing would leave
    # them transposed in memory and every later pass slower
    b, c = a.take(perm, axis=2), a.take(perm, axis=1)
    d = c.take(perm, axis=2)
    if np.any(coherence != 1.0):
        b *= np.reshape(coherence, (-1, 1, 1))
        c *= np.reshape(coherence, (-1, 1, 1))
    if s:
        phase = np.exp(-2j * np.pi * _phase_angle(outcome, s))[:, None, None]
        c *= phase
        b *= np.conj(phase)
    return a, b, c, d


def _hadamard_diagonal(a, b, c, d):
    """The (0, 0) and (1, 1) blocks after the control Hadamard, the second in a's buffer.

    ((a + b) + c) + d and ((a - b) - c) + d, each halved: the order of
    _apply_control_hadamard, formed in place.
    """
    top = a + b
    top += c
    top += d
    top *= 0.5
    a -= b
    a -= c
    a += d
    a *= 0.5
    return top, a


def run_stage_gates(sigma: np.ndarray, inst: ShorInstance, s: int, outcome, coherence=1.0):
    """The (B, d, d) states after stage s's gates, from each member's work block.

    The blocks of _stage_blocks at coherence kappa through the Hadamard,
    for the members' outcomes c so far (bit k with weight 2^k).
    """
    a, b, c, d = _stage_blocks(sigma, inst, s, outcome, coherence)
    half = sigma.shape[-1]
    rho = np.empty((len(a), 2 * half, 2 * half), dtype=a.dtype)
    rho[:, :half, half:] = (a - b + c - d) * 0.5
    rho[:, half:, :half] = (a + b - c - d) * 0.5
    rho[:, :half, :half], rho[:, half:, half:] = _hadamard_diagonal(a, b, c, d)
    return rho


def _outcomes(block0: np.ndarray, block1: np.ndarray):
    """p0 and p1 of the control, for one state or a stack.

    `block0` and `block1` are the (0, 0) and (1, 1) work blocks of the
    control, whose traces are p0 and p1.  Which outcomes are live is
    _live's to say.
    """
    p0, p1 = (np.real(np.diagonal(b, axis1=-2, axis2=-1)).sum(axis=-1) for b in (block0, block1))
    return p0, p1


def _live(p0: np.ndarray, p1: np.ndarray):
    """The dead-branch rule on the outcome probabilities: returns live0, live1, or raises."""
    live0, live1 = ~(p0 < DEAD_BRANCH_TOL), ~(p1 < DEAD_BRANCH_TOL)
    if not np.all(live0 | live1):
        raise ValueError("both measurement outcomes have zero probability")
    return live0, live1


def _sample_bits(p0: np.ndarray, p1: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The bit rule: run i takes 0 when draws[i] < p0, and never a dead outcome (_live)."""
    live0, live1 = _live(p0, p1)
    return np.where(~live1 | (live0 & (draws < p0)), 0, 1)


def _normalize(kept: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Divide each kept (B, d/2, d/2) block by its probability, in place; returns `kept`.

    One real multiply by 1/p per real and imaginary part.  numpy divides
    a complex by a real as a product with 1/p, so the values are those of
    kept / p[:, None, None] bit for bit, but for the sign of a zero.
    """
    parts = kept.view(float)
    parts *= (1.0 / p)[:, None, None]
    return kept


def measure_control(block0: np.ndarray, block1: np.ndarray):
    """Projective measurement of the control of every state of a stack, from its diagonal blocks.

    The counterpart of sample_control that keeps both outcomes, by the
    same rules.  Returns ((p0, branch0), (p1, branch1)): every member's
    probabilities, and for each outcome None when it is dead for every
    member, else (live, kept): the members' live mask and, in member
    order, the normalized blocks (sigma in |bit><bit| (x) sigma) of the
    live members.
    """
    p0, p1 = _outcomes(block0, block1)
    live0, live1 = _live(p0, p1)

    def branch(block, p, live):
        return (live, _normalize(block[live], p[live])) if live.any() else None

    return (p0, branch(block0, p0, live0)), (p1, branch(block1, p1, live1))


def sample_control(block0: np.ndarray, block1: np.ndarray, draws: np.ndarray):
    """Measure the control of every state of a stack by sampling, from its diagonal blocks.

    `block0` and `block1` are the (B, d/2, d/2) stacks of the (0, 0) and
    (1, 1) work blocks of the control: nothing else of a state enters
    its measurement.  Run i takes outcome 0 when draws[i] < p0, by the
    rules of _sample_bits: a dead outcome is never chosen, and a state
    with neither outcome live raises.  Returns the outcome bits and the
    kept blocks, normalized as by measure_control: the stack of sigma in
    |bit><bit| (x) sigma.
    """
    p0, p1 = _outcomes(block0, block1)
    bits = _sample_bits(p0, p1, draws)
    kept = np.where(bits[:, None, None] == 0, block0, block1)
    return bits, _normalize(kept, np.where(bits, p1, p0))


def reprepare_control(state: ComputerState, epsilon: float = 0.0) -> ComputerState:
    """Reset the measured control toward |+>, optionally mixed by epsilon.

    The measured state |bit><bit| (x) sigma becomes plus_control(sigma,
    epsilon), whichever the bit; epsilon = 0 reproduces the exact |+>
    reset.
    """
    if not state.bits:
        raise ValueError("control has not been measured yet")
    half = state.rho.shape[-1] // 2
    block = slice(state.bits[-1] * half, (state.bits[-1] + 1) * half)
    return ComputerState(rho=plus_control(state.rho[block, block], epsilon), bits=state.bits)


def plus_control(sigma: np.ndarray, epsilon: float = 0.0) -> np.ndarray:
    """The control toward |+> mixed by epsilon, tensored with sigma, per stack member.

    (1-eps)|+><+| + eps|-><-| (x) sigma, in closed form
    1/2 [[sigma, (1-2 eps) sigma], [(1-2 eps) sigma, sigma]]; at eps = 0
    every block is sigma/2.
    """
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon={epsilon} outside [0, 1/2]")
    lead, half = sigma.shape[:-2], sigma.shape[-1]
    out = np.empty(lead + (2, half, 2, half), dtype=sigma.dtype)
    out[..., 0, :, 0, :] = out[..., 1, :, 1, :] = sigma * 0.5
    out[..., 0, :, 1, :] = out[..., 1, :, 0, :] = sigma * 0.5 * (1.0 - 2.0 * epsilon)
    return out.reshape(lead + (2 * half, 2 * half))


def reference_distribution(inst: ShorInstance, kind: InitialStateKind) -> np.ndarray:
    """Outcome distribution over c from the L-control-qubit formulation.

    Evaluates P(c) = sum_b w_b sum_y |(1/t) sum_{x: b a^x = y} e^{-2 pi i x c / t}|^2
    directly, with the inner sums done as FFTs of periodic indicators.
    This is the independent oracle the staged engine is checked against.
    """
    t = inst.t
    weights = work_distribution(inst, kind)
    cycles = numtheory.permutation_cycles(inst.a, inst.N, inst.n).cycles
    probs = np.zeros(t)
    spectra: dict[int, np.ndarray] = {}
    for cyc in cycles:
        w = float(sum(weights[b] for b in cyc))
        if w == 0.0:
            continue
        period = len(cyc)
        if period not in spectra:
            total = np.zeros(t)
            for j in range(period):
                indicator = np.zeros(t)
                indicator[j::period] = 1.0
                amp = np.fft.fft(indicator)
                total += amp.real**2 + amp.imag**2
            spectra[period] = total / float(t) ** 2
        probs += w * spectra[period]
    return probs
