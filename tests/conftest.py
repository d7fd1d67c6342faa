import numpy as np
import pytest

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def haar_unitary(dim, rng):
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(dim, rng, rank=None):
    """Random mixed state: normalized Wishart G G^dagger."""
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def bell_state():
    """|phi+><phi+| on two qubits."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def ghz_state(m=3):
    psi = np.zeros(1 << m, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    return np.outer(psi, psi.conj())


def basis_density(dim, index):
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index, index] = 1.0
    return rho


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
