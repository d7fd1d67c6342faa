"""Log-negativity over bipartitions, PPT testing, mixedness, and the block spectra they run on."""

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
    e = np.log2(_spectral_sums(members, parts, np.abs))
    e[np.abs(e) < CLAMP_TOL] = 0.0
    means = e.mean(axis=-1)
    return float(means[0]) if rho.ndim == 2 else means


def _point_entanglement(states: np.ndarray, post_measure: bool) -> np.ndarray:
    """Average log-negativity over all canonical bipartitions, per stack member.

    A post-measure state is exactly |b><b| (x) sigma on the control and is
    given by its work block sigma: every split reduces to a split of the
    work register, the full-work split contributes zero and the remaining
    splits come in complement pairs with equal negativity, which lets the
    whole average be computed on the 2^n-dimensional work block.
    """
    if not post_measure:
        return average_log_negativity(states)
    n = states.shape[-1].bit_length() - 1
    count_m = (1 << n) - 1
    count_n = (1 << (n - 1)) - 1
    return 2.0 * count_n * average_log_negativity(states) / count_m


def is_ppt(rho: np.ndarray, partition) -> bool:
    """True when the partial transpose has no eigenvalue below -1e-10.

    A positive partial transpose is necessary (not sufficient) for
    separability, so is_ppt=False certifies entanglement while
    is_ppt=True certifies nothing.
    """
    vals = densemat.hermitian_eigenvalues(densemat.partial_transpose(rho, partition))
    return bool(vals[-1] >= -1e-10)


def mixedness(rho: np.ndarray):
    """Von Neumann entropy -sum(lam log2 lam) of the whole computer state, in bits.

    Eigenvalues at or below zero (round-off) contribute nothing.  `rho`
    is one state or a stack of states along leading axes.  As in
    log_negativity, values below CLAMP_TOL are round-off and reported as
    exactly zero: a pure state has entropy 0, not 1e-15.
    """
    dim = rho.shape[-1]
    s = -_spectral_sums(rho.reshape(-1, dim, dim), ((),), _plogp)[:, 0]
    s[s < CLAMP_TOL] = 0.0
    return float(s[0]) if rho.ndim == 2 else s.reshape(rho.shape[:-2])


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
