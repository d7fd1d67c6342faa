"""Integer routines for period finding: orders, continued fractions, cycles.

multiplicative_order is the ground-truth oracle every other period result
is judged against; it finds the order by brute-force iteration and nothing
here ever assumes a period instead of computing it.
"""

from __future__ import annotations

import math

__all__ = [
    "multiplicative_order",
    "extract_period",
    "permutation_cycles",
    "is_prime",
    "prime_factors",
    "semiprime_list",
    "coprime_list",
]


def multiplicative_order(a: int, n: int) -> int:
    """Least r >= 1 with a**r = 1 (mod n), by brute-force iteration."""
    if not 2 <= a < n:
        raise ValueError(f"need 2 <= a < N, got a={a}, N={n}")
    if math.gcd(a, n) != 1:
        raise ValueError(f"a={a} is not coprime to N={n}")
    r = 1
    acc = a % n
    while acc != 1:
        acc = acc * a % n
        r += 1
    return r


def extract_period(c: int, t: int, n: int, a: int) -> int | None:
    """Period candidate recovered from a measurement outcome c, or None.

    Takes the convergent of c/t with the largest denominator k < N and
    accepts it only if a**k = 1 (mod N).  No multiple-of-k repair is
    attempted, so a run succeeds exactly when the returned value equals
    the true order.  The denominators of the convergents of c/t follow
    from the quotients alone, q_j = a_j q_(j-1) + q_(j-2), and never decrease,
    so they are run in integers up to the first one that reaches N.
    """
    if t < 1 or not 0 <= c < t:
        raise ValueError("extract_period requires 0 <= c < t")
    best = None
    q_prev, q_cur = 1, 0
    num, den = c, t
    while den:
        quotient, rem = divmod(num, den)
        num, den = den, rem
        q_prev, q_cur = q_cur, quotient * q_cur + q_prev
        if q_cur >= n:
            break
        best = q_cur
    if best is not None and pow(a, best, n) == 1:
        return best
    return None


def permutation_cycles(a: int, n_mod: int, n_bits: int) -> tuple[tuple[int, ...], ...]:
    """Orbits of b -> a b mod N on the n_bits-bit integers, b >= N fixed.

    Each orbit is a tuple starting at its smallest element, and the
    orbits are ordered by that element.
    """
    if math.gcd(a, n_mod) != 1:
        raise ValueError(f"a={a} is not coprime to N={n_mod}")
    size = 1 << n_bits
    if size < n_mod:
        raise ValueError(f"2^{n_bits} does not cover the residues mod {n_mod}")
    seen = [False] * size
    cycles = []
    for b in range(size):
        if seen[b]:
            continue
        if b >= n_mod:
            seen[b] = True
            cycles.append((b,))
            continue
        orbit = []
        cur = b
        while not seen[cur]:
            seen[cur] = True
            orbit.append(cur)
            cur = cur * a % n_mod
        cycles.append(tuple(orbit))
    return tuple(cycles)


def is_prime(v: int) -> bool:
    return v >= 2 and prime_factors(v) == [v]


def prime_factors(v: int) -> list[int]:
    """Prime factorization with multiplicity, ascending."""
    if v < 2:
        raise ValueError("prime_factors requires v >= 2")
    out = []
    d = 2
    while d * d <= v:
        while v % d == 0:
            out.append(d)
            v //= d
        d += 1
    if v > 1:
        out.append(v)
    return out


def semiprime_list(bits: int) -> list[int]:
    """All products of two primes (not necessarily distinct) with exactly
    `bits` binary digits."""
    if not 3 <= bits <= 6:
        raise ValueError("semiprime_list supports 3 to 6 bits")
    lo, hi = 1 << (bits - 1), 1 << bits
    return [v for v in range(lo, hi) if len(prime_factors(v)) == 2]


def coprime_list(n: int) -> list[int]:
    """All a in [2, N-1] coprime to N; a=1 is excluded as uninformative."""
    if n < 3:
        raise ValueError("coprime_list requires N >= 3")
    return [a for a in range(2, n) if math.gcd(a, n) == 1]

