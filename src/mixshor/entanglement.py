"""Logarithmic negativity across bipartitions, PPT testing, mixedness."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import densemat

__all__ = [
    "CLAMP_TOL",
    "bipartitions",
    "log_negativity",
    "average_log_negativity",
    "is_ppt",
    "mixedness",
]

# Values of |log2 Tr|rho^T|| below this are treated as exactly zero; this
# threshold defines the "zero entanglement" crossing in the mixing sweeps.
CLAMP_TOL = 1e-10


@lru_cache(maxsize=None)
def bipartitions(m: int) -> tuple[tuple[int, ...], ...]:
    """All canonical bipartitions of m qubits.

    A bipartition is identified with the side not containing qubit 0,
    which removes the subset/complement ambiguity; there are 2^(m-1) - 1
    of them.
    """
    if m < 2:
        raise ValueError("bipartitions need at least 2 qubits")
    out = []
    others = list(range(1, m))
    for mask in range(1, 1 << (m - 1)):
        out.append(tuple(q for i, q in enumerate(others) if mask >> i & 1))
    return tuple(out)


def log_negativity(rho: np.ndarray, partition) -> float:
    """log2 of the trace norm of the partial transpose over `partition`."""
    value = float(
        np.log2(densemat.trace_norm_hermitian(densemat.partial_transpose(rho, partition)))
    )
    return 0.0 if abs(value) < CLAMP_TOL else value


def average_log_negativity(rho: np.ndarray):
    """Unweighted mean of log_negativity over all canonical bipartitions.

    `rho` is one state, giving a float, or a (B, d, d) stack, giving one
    value per member.  Each partial transpose is diagonalized block by
    block over the member's own nonzero pattern; this is the inner loop
    of the tree simulations.
    """
    dim = rho.shape[-1]
    members = rho.reshape(-1, dim, dim)
    parts = bipartitions(densemat.num_qubits(members[0]))
    e = np.log2(densemat._spectral_sums(members, parts, np.abs))
    e[np.abs(e) < CLAMP_TOL] = 0.0
    means = e.mean(axis=-1)
    return float(means[0]) if rho.ndim == 2 else means


def is_ppt(rho: np.ndarray, partition) -> bool:
    """True when the partial transpose has no eigenvalue below -1e-10.

    A positive partial transpose is necessary (not sufficient) for
    separability, so is_ppt=False certifies entanglement while
    is_ppt=True certifies nothing.
    """
    vals = densemat.hermitian_eigenvalues(densemat.partial_transpose(rho, partition))
    return bool(vals[-1] >= -1e-10)


def mixedness(rho: np.ndarray):
    """Von Neumann entropy of the whole computer state, in bits.

    `rho` is one state or a stack of states along leading axes.  As in
    log_negativity, values below CLAMP_TOL are round-off and reported as
    exactly zero: a pure state has entropy 0, not 1e-15.
    """
    s = densemat.von_neumann_entropy(rho)
    return np.where(s < CLAMP_TOL, 0.0, s) if rho.ndim > 2 else (0.0 if s < CLAMP_TOL else s)
