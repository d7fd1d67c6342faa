"""Output checks for the benchmark, computed apart from the program.

Nothing here imports mixshor.  Outcome distributions come from the
textbook closed form, the success mask from a continued-fraction
expansion in exact rational arithmetic, and the stage-0 state of the
ensemble from explicit matrices.  Each check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

KINDS = ("pure", "mixed-n", "mixed-full")

LEAF_TOL = 1e-9
STAGE0_TOL = 1e-9
MIXEDNESS_RISE_TOL = 1e-12
RATE_Z = 4.0
RISE_Z = 3.0


def work_qubits(N: int) -> int:
    return (N - 1).bit_length()


def order(a: int, N: int) -> int:
    r, acc = 1, a % N
    while acc != 1:
        acc = acc * a % N
        r += 1
    return r


def is_semiprime(v: int) -> bool:
    count, d = 0, 2
    while d * d <= v:
        while v % d == 0:
            v //= d
            count += 1
        d += 1
    return count + (v > 1) == 2


def work_weights(N: int, kind: str) -> np.ndarray:
    dim = 1 << work_qubits(N)
    w = np.zeros(dim)
    if kind == "pure":
        w[1] = 1.0
    elif kind == "mixed-n":
        w[:N] = 1.0 / N
    elif kind == "mixed-full":
        w[:] = 1.0 / dim
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return w


def orbits(N: int, a: int) -> list[list[int]]:
    """Orbits of b -> a*b mod N on n-bit integers; b >= N is a fixed point."""
    seen, out = set(), []
    for b in range(1 << work_qubits(N)):
        if b in seen:
            continue
        orbit, cur = [], b
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = cur * a % N if b < N else cur
        out.append(orbit)
    return out


def outcome_distribution(N: int, a: int, kind: str) -> np.ndarray:
    """P(c) of the L-control-qubit circuit, from the Dirichlet-kernel form.

    A work value on an orbit of length l contributes
    (1/t^2) sum_{j<l} |sum_{k<K_j} exp(-2 pi i k l c / t)|^2 with
    K_j = ceil((t - j) / l), and |sum_{k<K} z^k|^2 = sin^2(pi K x) / sin^2(pi x)
    for x = l c / t.  Sine arguments are reduced modulo t in integers so
    large K l c lose no precision.
    """
    L = 2 * work_qubits(N)
    t = 1 << L
    c = np.arange(t, dtype=np.int64)
    w = work_weights(N, kind)
    probs = np.zeros(t)
    for orbit in orbits(N, a):
        weight = float(w[orbit].sum())
        if weight == 0.0:
            continue
        ell = len(orbit)
        den_arg = (ell * c) % t
        aligned = den_arg == 0
        den = np.sin(np.pi * den_arg / t) ** 2
        den[aligned] = 1.0
        total = np.zeros(t)
        for j in range(ell):
            K = (t - j + ell - 1) // ell
            num = np.sin(np.pi * ((K * ell * c) % t) / t) ** 2 / den
            num[aligned] = float(K * K)
            total += num
        probs += weight * total / float(t) ** 2
    return probs


def convergent_denominators(c: int, t: int) -> list[int]:
    x = Fraction(c, t)
    a0 = math.floor(x)
    rem = x - a0
    k_prev, k = 0, 1
    dens = [k]
    while rem:
        x = 1 / rem
        ai = math.floor(x)
        rem = x - ai
        k_prev, k = k, ai * k + k_prev
        dens.append(k)
    return dens


def success_mask(N: int, a: int) -> np.ndarray:
    """True for outcomes c whose last convergent below N has denominator r."""
    t = 1 << (2 * work_qubits(N))
    r = order(a, N)
    return np.array(
        [max(d for d in convergent_denominators(c, t) if d < N) == r for c in range(t)]
    )


def noise_reference(N: int, a: int) -> tuple[float, float]:
    """(uniform-random baseline, noiseless exact rate) for a pure register."""
    mask = success_mask(N, a)
    return float(mask.mean()), float(outcome_distribution(N, a, "pure")[mask].sum())


def check_leaf(dist, reference: np.ndarray) -> list[str]:
    dist = np.asarray(dist, dtype=float)
    if dist.shape != reference.shape:
        return [f"shape {dist.shape}, expected {reference.shape}"]
    problems = []
    dev = float(np.max(np.abs(dist - reference)))
    if not dev <= LEAF_TOL:
        problems.append(f"max deviation from closed form {dev:.3g}")
    total = float(dist.sum())
    if not abs(total - 1.0) <= LEAF_TOL:
        problems.append(f"sums to {total!r}")
    return problems


def check_noise_rates(
    counts: dict[str, list[int]], probs, runs: int, baseline: float, exact: float
) -> list[str]:
    """Rates within binomial bounds of [baseline, exact], none rising with p."""
    problems = []
    lo = baseline - RATE_Z * math.sqrt(baseline * (1 - baseline) / runs)
    hi = exact + RATE_Z * math.sqrt(exact * (1 - exact) / runs)
    for channel, row in counts.items():
        rates = [s / runs for s in row]
        for p, rate in zip(probs, rates):
            if not lo <= rate <= hi:
                problems.append(f"{channel} p={p}: rate {rate} outside [{lo:.4f}, {hi:.4f}]")
        for (p1, r1), (p2, r2) in zip(zip(probs, rates), zip(probs[1:], rates[1:])):
            sigma = math.sqrt((r1 * (1 - r1) + r2 * (1 - r2)) / runs)
            if r2 - r1 > RISE_Z * sigma:
                problems.append(f"{channel}: rate rises from {r1} at p={p1} to {r2} at p={p2}")
    return problems


def check_crossing(eps: float, whole_run_average, threshold: float, refine_tol: float) -> list[str]:
    """Entanglement at least `threshold` just below eps and below it at eps.

    `whole_run_average` must come from another code path than the search.
    """
    problems = []
    below = whole_run_average(eps - refine_tol)
    at = whole_run_average(eps)
    if not below >= threshold:
        problems.append(f"average {below:.3g} at eps={eps - refine_tol} is below {threshold}")
    if not at < threshold:
        problems.append(f"average {at:.3g} at eps={eps} is not below {threshold}")
    return problems


def _partial_transpose(rho: np.ndarray, m: int, subset) -> np.ndarray:
    axes = list(range(2 * m))
    for q in subset:
        axes[q], axes[m + q] = axes[m + q], axes[q]
    dim = 1 << m
    return rho.reshape((2,) * (2 * m)).transpose(axes).reshape(dim, dim)


def stage0_point(N: int, a: int, threshold: float) -> tuple[float, float]:
    """(average log-negativity, entropy) after stage 0 on the mixed-n register.

    Control |+>, then the controlled multiplication by a^(2^(L-1)), then a
    Hadamard on the control; qubit 0 is the control, the most significant
    index.
    """
    n = work_qubits(N)
    m, half = n + 1, 1 << n
    mult = pow(a, 1 << (2 * n - 1), N)
    perm = np.eye(half)
    perm[:, :N] = 0.0
    for b in range(N):
        perm[mult * b % N, b] = 1.0
    cu = np.zeros((2 * half, 2 * half))
    cu[:half, :half] = np.eye(half)
    cu[half:, half:] = perm
    h = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0), np.eye(half))
    rho = np.kron(np.full((2, 2), 0.5), np.diag(work_weights(N, "mixed-n"))).astype(complex)
    u = h @ cu
    rho = u @ rho @ u.conj().T
    values = []
    for mask in range(1, 1 << n):
        subset = [q for q in range(1, m) if mask >> (q - 1) & 1]
        e = math.log2(np.abs(np.linalg.eigvalsh(_partial_transpose(rho, m, subset))).sum())
        values.append(0.0 if abs(e) < threshold else e)
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 0.0]
    return float(np.mean(values)), float(-(lam * np.log2(lam)).sum())


def ensemble_instances(bits: int) -> list[tuple[int, int]]:
    return [
        (N, a)
        for N in range(1 << (bits - 1), 1 << bits)
        if is_semiprime(N)
        for a in range(2, N)
        if math.gcd(a, N) == 1
    ]


def check_ensemble(reports, bits: int, threshold: float) -> list[str]:
    """`reports` is a list of (avg_logneg, mixedness) at the 2L sampling points."""
    problems = []
    for i in range(1, len(reports)):
        rise = reports[i][1] - reports[i - 1][1]
        if rise > MIXEDNESS_RISE_TOL:
            problems.append(f"mixedness rises by {rise:.3g} at sampling point {i}")
    instances = ensemble_instances(bits)
    points = [stage0_point(N, a, threshold) for N, a in instances]
    e0 = sum(p[0] for p in points) / len(points)
    s0 = sum(p[1] for p in points) / len(points)
    log_n = sum(math.log2(N) for N, _ in instances) / len(instances)
    if not abs(s0 - log_n) <= STAGE0_TOL:
        problems.append(f"constructed stage-0 entropy {s0} is not mean log2 N {log_n}")
    if not abs(reports[0][0] - e0) <= STAGE0_TOL:
        problems.append(f"stage-0 avg_logneg {reports[0][0]} differs from constructed {e0}")
    if not abs(reports[0][1] - s0) <= STAGE0_TOL:
        problems.append(f"stage-0 mixedness {reports[0][1]} differs from constructed {s0}")
    return problems
