"""Dense linear algebra for small multi-qubit density matrices.

States live on an ordered qubit list.  The global basis index of an
m-qubit system is sum_q bit_q * 2**(m - 1 - q), i.e. qubit 0 is the most
significant bit and occupies the leading block of every matrix.  All
operations are pure functions on complex numpy arrays and return new
arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "HADAMARD",
    "IDENTITY_2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "num_qubits",
    "kron",
    "is_hermitian",
    "assert_valid_state",
    "apply_unitary",
    "apply_local_gate",
    "partial_trace",
    "partial_transpose",
    "hermitian_eigenvalues",
    "trace_norm_hermitian",
    "von_neumann_entropy",
]

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9


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


def assert_valid_state(rho: np.ndarray, context: str = "") -> None:
    """Check the density-matrix invariants: Hermitian, unit trace, PSD.

    A stack of states along leading axes is checked member by member.
    """
    if rho.ndim > 2:
        for member in rho.reshape((-1,) + rho.shape[-2:]):
            assert_valid_state(member, context)
        return
    tag = f" ({context})" if context else ""
    if not is_hermitian(rho):
        raise ValueError(f"state is not Hermitian within {HERMITICITY_TOL}{tag}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"state trace {tr} deviates from 1{tag}")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < -EIGENVALUE_TOL:
        raise ValueError(f"state has eigenvalue {lo} below -{EIGENVALUE_TOL}{tag}")


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


def von_neumann_entropy(rho: np.ndarray):
    """Entropy -sum(lam * log2 lam) in bits, with 0 log 0 taken as 0.

    Slightly negative eigenvalues from roundoff are clamped to zero.  A
    stack of states along leading axes gives one entropy per member.
    """
    dim = rho.shape[-1]
    sums = _spectral_sums(rho.reshape(-1, dim, dim), ((),), _plogp)
    entropy = -sums[:, 0]
    return float(entropy[0]) if rho.ndim == 2 else entropy.reshape(rho.shape[:-2])


def _plogp(vals: np.ndarray) -> np.ndarray:
    positive = vals > 0.0
    return np.where(positive, vals, 0.0) * np.log2(np.where(positive, vals, 1.0))


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


@lru_cache(maxsize=256)
def _block_plan(pattern: bytes, dim: int, subsets: tuple[tuple[int, ...], ...]):
    """Gather indices of the independent blocks of a sparsity pattern's partial transposes.

    `pattern` is the packed nonzero pattern of a flat (dim, dim) member and
    each subset names the qubits transposed (the empty subset is the
    identity).  The blocks of a transposed pattern are the connected
    components of its graph: every node takes the smallest label among
    itself and its neighbours, then the label of its label, until nothing
    changes, which labels each component by its smallest index.

    Returns one (count, s, s) array of flat member indices per distinct
    block of size s, sizes ascending, and the gather that takes the
    blocks' values (the entries of 1x1 blocks, the eigenvalues of the
    others, in that order) to subset-major order, dim values per subset.
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


def _spectral_sums(stack: np.ndarray, subsets, term) -> np.ndarray:
    """Per member and subset, the sum of term(lam) over the partial transpose's eigenvalues.

    `stack` is (B, d, d) and `term` must map 0 to 0.  Each member is split
    by its own nonzero pattern: entries outside a block are exact zeros,
    so a matrix's spectrum is the union of its blocks' spectra, and only
    blocks of size two or more go through eigvalsh.  Members are grouped
    by pattern, so every member gets bitwise the value it gets alone.
    Returns a (B, len(subsets)) array.
    """
    count, dim = len(stack), stack.shape[-1]
    flat = stack.reshape(count, dim * dim)
    groups: dict[bytes, list[int]] = {}
    for i, key in enumerate(np.packbits(flat != 0, axis=1)):
        groups.setdefault(key.tobytes(), []).append(i)
    sums = np.empty((count, len(subsets)))
    for key, members in groups.items():
        blocks, layout = _block_plan(key, dim, subsets)
        rows = flat[members]
        vals = []
        for index in blocks:
            block = rows[:, index]
            if index.shape[-1] > 1:
                block = np.linalg.eigvalsh(block)
            vals.append(block.real.reshape(len(members), -1))
        vals = term(np.concatenate(vals, axis=1)[:, layout])
        sums[members] = np.add.reduceat(vals, np.arange(0, vals.shape[1], dim), axis=1)
    return sums
