"""Dense linear algebra for small multi-qubit density matrices.

States live on an ordered qubit list.  The global basis index of an
m-qubit system is sum_q bit_q * 2**(m - 1 - q), i.e. qubit 0 is the most
significant bit and occupies the leading block of every matrix.  All
operations are pure functions on complex numpy arrays and return new
arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "num_qubits",
    "kron",
    "is_hermitian",
    "apply_unitary",
    "apply_local_gate",
    "partial_trace",
    "partial_transpose",
    "hermitian_eigenvalues",
    "trace_norm_hermitian",
]

HERMITICITY_TOL = 1e-10


def num_qubits(mat: np.ndarray) -> int:
    """Number of qubits of a square matrix whose dimension is a power of two."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    dim = mat.shape[0]
    m = dim.bit_length() - 1
    if 1 << m != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product; entry ((i*dB + k), (j*dB + l)) = a[i, j] * b[k, l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def is_hermitian(mat: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return bool(np.max(np.abs(mat - mat.conj().T)) < tol)


def _hermitize(mat: np.ndarray) -> np.ndarray:
    # Bounds numerical drift over long gate sequences.
    return (mat + mat.conj().T) * 0.5


def apply_unitary(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Conjugate a state by a full-dimension unitary: U rho U^dagger."""
    if u.shape != rho.shape:
        raise ValueError(f"operator shape {u.shape} does not match state {rho.shape}")
    dev = np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0])))
    if dev > HERMITICITY_TOL:
        raise ValueError(f"operator is not unitary (deviation {dev:.2e})")
    return _hermitize(u @ rho @ u.conj().T)


def apply_local_gate(rho: np.ndarray, gate: np.ndarray, targets) -> np.ndarray:
    """Conjugate a state by a gate acting on an ordered subset of qubits.

    Equivalent to apply_unitary with the gate embedded in the full space,
    but computed by tensor-leg contraction so the 2^m-dimensional operator
    is never formed.
    """
    m = num_qubits(rho)
    targets = list(targets)
    k = len(targets)
    if len(set(targets)) != k or any(not 0 <= q < m for q in targets):
        raise ValueError(f"bad target qubits {targets} for {m}-qubit state")
    if gate.shape != (1 << k, 1 << k):
        raise ValueError(f"gate shape {gate.shape} does not act on {k} qubits")
    tens = np.asarray(rho, dtype=complex).reshape((2,) * (2 * m))
    g = np.asarray(gate, dtype=complex).reshape((2,) * (2 * k))
    # Left multiplication: contract the gate's column legs with the ket axes.
    tens = np.tensordot(g, tens, axes=(list(range(k, 2 * k)), targets))
    tens = np.moveaxis(tens, list(range(k)), targets)
    # Right multiplication by the conjugate: contract with the bra axes.
    bra = [m + q for q in targets]
    tens = np.tensordot(tens, g.conj(), axes=(bra, list(range(k, 2 * k))))
    tens = np.moveaxis(tens, list(range(2 * m - k, 2 * m)), bra)
    dim = 1 << m
    return _hermitize(tens.reshape(dim, dim))


def partial_trace(rho: np.ndarray, traced) -> np.ndarray:
    """Trace out a set of qubits, returning the reduced state."""
    m = num_qubits(rho)
    traced = sorted(set(traced))
    if any(not 0 <= q < m for q in traced):
        raise ValueError(f"bad traced qubits {traced} for {m}-qubit state")
    if len(traced) == m:
        raise ValueError("cannot trace out every qubit")
    if not traced:
        return rho.copy()
    tens = np.asarray(rho, dtype=complex).reshape((2,) * (2 * m))
    remaining = m
    for q in reversed(traced):
        tens = np.trace(tens, axis1=q, axis2=q + remaining)
        remaining -= 1
    dim = 1 << remaining
    return _hermitize(tens.reshape(dim, dim))


def partial_transpose(rho: np.ndarray, subset) -> np.ndarray:
    """Transpose the indices of one side of a bipartition.

    Swaps the row and column tensor legs of every qubit in `subset`; an
    involution that preserves the trace and Hermiticity but not positivity.
    """
    m = num_qubits(rho)
    subset = sorted(set(subset))
    if not subset or len(subset) == m:
        raise ValueError("subset must be a nonempty proper subset of the qubits")
    if any(not 0 <= q < m for q in subset):
        raise ValueError(f"bad subset {subset} for {m}-qubit state")
    tens = np.asarray(rho, dtype=complex).reshape((2,) * (2 * m))
    axes = list(range(2 * m))
    for q in subset:
        axes[q], axes[m + q] = axes[m + q], axes[q]
    dim = 1 << m
    return tens.transpose(axes).reshape(dim, dim)


def hermitian_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, in descending order."""
    if not is_hermitian(mat, tol=1e-8):
        raise ValueError("matrix is not Hermitian within 1e-8")
    return np.linalg.eigvalsh(mat)[::-1].copy()


def trace_norm_hermitian(mat: np.ndarray) -> float:
    """Sum of the absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(hermitian_eigenvalues(mat)).sum())
