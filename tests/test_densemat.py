import itertools

import numpy as np
import pytest

from mixshor import densemat
from mixshor.densemat import (
    HADAMARD,
    IDENTITY_2,
    PAULI_X,
    apply_local_gate,
    apply_unitary,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    partial_transpose,
    trace_norm_hermitian,
    von_neumann_entropy,
)

from conftest import basis_density, bell_state, ghz_state, haar_unitary, random_density_matrix

# The two-qubit Hadamard embeddings written out entrywise.  With qubit 0 as
# the most significant index, H on qubit 1 conjugates each 2x2 block in
# place while H on qubit 0 mixes the blocks (strided element pattern).
H_ON_QUBIT1 = np.array(
    [[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]], dtype=complex
) / np.sqrt(2)
H_ON_QUBIT0 = np.array(
    [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, -1, 0], [0, 1, 0, -1]], dtype=complex
) / np.sqrt(2)


def embedded_operator(gate, targets, m):
    """Brute-force embedding of a k-qubit gate into the full 2^m space.

    Independent of apply_local_gate: matches target bits (in target
    order) through the gate and requires all other bits equal.
    """
    dim = 1 << m
    k = len(targets)
    rest = [q for q in range(m) if q not in targets]
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            if any(((i >> (m - 1 - q)) ^ (j >> (m - 1 - q))) & 1 for q in rest):
                continue
            gi = 0
            gj = 0
            for pos, q in enumerate(targets):
                gi |= ((i >> (m - 1 - q)) & 1) << (k - 1 - pos)
                gj |= ((j >> (m - 1 - q)) & 1) << (k - 1 - pos)
            out[i, j] = gate[gi, gj]
    return out


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_entry_formula(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        out = kron(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    for l in range(3):
                        assert abs(out[i * 3 + k, j * 3 + l] - a[i, j] * b[k, l]) < 1e-14

    def test_hadamard_embeddings(self):
        assert np.allclose(kron(HADAMARD, IDENTITY_2), H_ON_QUBIT0)
        assert np.allclose(kron(IDENTITY_2, HADAMARD), H_ON_QUBIT1)

    def test_associativity_random_triples(self, rng):
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)


class TestApplyUnitary:
    def test_identity_fixes_state(self, rng):
        rho = random_density_matrix(4, rng)
        assert np.allclose(apply_unitary(rho, np.eye(4, dtype=complex)), rho)

    def test_hadamard_on_zero_gives_plus(self):
        rho = apply_unitary(basis_density(2, 0), HADAMARD)
        assert np.allclose(rho, np.full((2, 2), 0.5))

    def test_spectrum_preserved(self, rng):
        rho = random_density_matrix(4, rng)
        u = haar_unitary(4, rng)
        before = hermitian_eigenvalues(rho)
        after = hermitian_eigenvalues(apply_unitary(rho, u))
        assert np.allclose(before, after, atol=1e-9)
        assert abs(np.trace(apply_unitary(rho, u)) - 1) < 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            apply_unitary(random_density_matrix(4, rng), HADAMARD)

    def test_non_unitary_rejected(self, rng):
        with pytest.raises(ValueError, match="not unitary"):
            apply_unitary(random_density_matrix(2, rng), np.array([[1, 0], [0, 2.0]]))


class TestApplyLocalGate:
    def test_hadamard_qubit1_conjugates_blocks(self, rng):
        rho = random_density_matrix(4, rng)
        got = apply_local_gate(rho, HADAMARD, [1])
        assert np.allclose(got, apply_unitary(rho, H_ON_QUBIT1), atol=1e-12)
        # block pattern: each 2x2 block is H . H
        for bi in range(2):
            for bj in range(2):
                block = rho[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2]
                assert np.allclose(
                    got[2 * bi : 2 * bi + 2, 2 * bj : 2 * bj + 2],
                    HADAMARD @ block @ HADAMARD,
                    atol=1e-12,
                )

    def test_hadamard_qubit0_mixes_blocks(self, rng):
        rho = random_density_matrix(4, rng)
        assert np.allclose(
            apply_local_gate(rho, HADAMARD, [0]), apply_unitary(rho, H_ON_QUBIT0), atol=1e-12
        )

    def test_identity_leaves_state(self, rng):
        rho = random_density_matrix(8, rng)
        for q in range(3):
            assert np.allclose(apply_local_gate(rho, IDENTITY_2, [q]), rho)

    def test_exhaustive_equivalence_small_systems(self, rng):
        # every ordered target tuple for m <= 4, against the brute-force embedding
        for m in range(1, 5):
            rho = random_density_matrix(1 << m, rng)
            for k in range(1, m + 1):
                for targets in itertools.permutations(range(m), k):
                    gate = haar_unitary(1 << k, rng)
                    expected = apply_unitary(rho, embedded_operator(gate, targets, m))
                    actual = apply_local_gate(rho, gate, list(targets))
                    assert np.allclose(actual, expected, atol=1e-12), (m, targets)

    def test_bad_targets(self, rng):
        rho = random_density_matrix(4, rng)
        with pytest.raises(ValueError):
            apply_local_gate(rho, HADAMARD, [2])
        with pytest.raises(ValueError):
            apply_local_gate(rho, HADAMARD, [0, 0])
        with pytest.raises(ValueError):
            apply_local_gate(rho, np.eye(4, dtype=complex), [0])


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        assert np.allclose(partial_trace(bell_state(), {1}), np.eye(2) / 2)

    def test_ghz_two_party_reduction(self):
        # tracing one qubit of GHZ leaves (|00><00| + |11><11|) / 2
        reduced = partial_trace(ghz_state(3), {2})
        expected = (basis_density(4, 0) + basis_density(4, 3)) / 2
        assert np.allclose(reduced, expected)

    def test_product_state_factors(self, rng):
        rho_a = random_density_matrix(4, rng)
        rho_b = random_density_matrix(4, rng)
        assert np.allclose(partial_trace(kron(rho_a, rho_b), {2, 3}), rho_a, atol=1e-12)
        assert np.allclose(partial_trace(kron(rho_a, rho_b), {0, 1}), rho_b, atol=1e-12)

    def test_trace_preserved_and_valid(self, rng):
        rho = random_density_matrix(16, rng)
        reduced = partial_trace(rho, {0, 2})
        assert abs(np.trace(reduced) - 1) < 1e-10
        densemat.assert_valid_state(reduced)

    def test_cannot_trace_everything(self, rng):
        with pytest.raises(ValueError):
            partial_trace(random_density_matrix(4, rng), {0, 1})


class TestPartialTranspose:
    def test_bell_spectrum(self):
        vals = hermitian_eigenvalues(partial_transpose(bell_state(), {1}))
        assert np.allclose(sorted(vals), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_separable_product_stays_psd(self, rng):
        rho = kron(random_density_matrix(2, rng), random_density_matrix(4, rng))
        vals = hermitian_eigenvalues(partial_transpose(rho, {1, 2}))
        assert vals[-1] >= -1e-12

    def test_involution(self, rng):
        rho = random_density_matrix(8, rng)
        for subset in ({0}, {1, 2}, {0, 2}):
            assert np.allclose(
                partial_transpose(partial_transpose(rho, subset), subset), rho, atol=1e-12
            )

    def test_trace_and_hermiticity_preserved(self, rng):
        rho = random_density_matrix(8, rng)
        pt = partial_transpose(rho, {1})
        assert abs(np.trace(pt) - 1) < 1e-12
        assert densemat.is_hermitian(pt)

    def test_spectrum_invariant_under_local_unitaries(self, rng):
        rho = random_density_matrix(8, rng)
        u = kron(kron(haar_unitary(2, rng), haar_unitary(2, rng)), haar_unitary(2, rng))
        rotated = apply_unitary(rho, u)
        for subset in ({0}, {2}, {0, 1}):
            assert np.allclose(
                hermitian_eigenvalues(partial_transpose(rho, subset)),
                hermitian_eigenvalues(partial_transpose(rotated, subset)),
                atol=1e-9,
            )

    def test_empty_and_full_subsets_rejected(self, rng):
        rho = random_density_matrix(4, rng)
        with pytest.raises(ValueError):
            partial_transpose(rho, set())
        with pytest.raises(ValueError):
            partial_transpose(rho, {0, 1})


class TestHermitianEigenvalues:
    def test_diagonal(self):
        vals = hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(vals, [3, 2, 1])

    def test_pauli_x(self):
        assert np.allclose(hermitian_eigenvalues(PAULI_X), [1, -1])

    def test_recovers_known_spectrum(self, rng):
        # M = V Lambda V^dagger built from a random unitary and known values
        lam = np.sort(rng.normal(size=16))[::-1]
        v = haar_unitary(16, rng)
        mat = (v * lam) @ v.conj().T
        assert np.allclose(hermitian_eigenvalues(mat), lam, atol=1e-9)

    def test_sum_equals_trace(self, rng):
        mat = random_density_matrix(8, rng) * 3.0
        assert abs(hermitian_eigenvalues(mat).sum() - np.trace(mat).real) < 1e-9

    def test_non_hermitian_rejected(self, rng):
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(ValueError):
            hermitian_eigenvalues(mat)


class TestTraceNorm:
    def test_density_matrix_has_unit_trace_norm(self, rng):
        assert abs(trace_norm_hermitian(random_density_matrix(8, rng)) - 1) < 1e-9

    def test_bell_partial_transpose(self):
        assert abs(trace_norm_hermitian(partial_transpose(bell_state(), {1})) - 2) < 1e-12

    def test_signed_diagonal(self):
        assert abs(trace_norm_hermitian(np.diag([1.0, -2.0]).astype(complex)) - 3) < 1e-12

    def test_complement_symmetry(self, rng):
        rho = random_density_matrix(16, rng)
        for subset, complement in (({0}, {1, 2, 3}), ({1, 3}, {0, 2})):
            assert (
                abs(
                    trace_norm_hermitian(partial_transpose(rho, subset))
                    - trace_norm_hermitian(partial_transpose(rho, complement))
                )
                < 1e-10
            )


class TestEntropy:
    def test_pure_state_zero(self, rng):
        assert von_neumann_entropy(random_density_matrix(8, rng, rank=1)) < 1e-9

    def test_maximally_mixed_two_qubits(self):
        assert abs(von_neumann_entropy(np.eye(4, dtype=complex) / 4) - 2.0) < 1e-12

    def test_closed_form_qubit(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        expected = -0.75 * np.log2(0.75) - 0.25 * np.log2(0.25)
        assert abs(von_neumann_entropy(rho) - expected) < 1e-12
        assert abs(expected - 0.811278) < 1e-6

    def test_range(self, rng):
        for _ in range(10):
            s = von_neumann_entropy(random_density_matrix(8, rng))
            assert 0.0 <= s <= 3.0 + 1e-12


class TestStateInvariants:
    """Randomized preservation checks for every state-returning operation."""

    def test_operations_preserve_density_matrix_invariants(self, rng):
        for _ in range(100):
            m = int(rng.integers(2, 5))
            rho = random_density_matrix(1 << m, rng)
            u = haar_unitary(1 << m, rng)
            q = int(rng.integers(0, m))
            outputs = [
                apply_unitary(rho, u),
                apply_local_gate(rho, haar_unitary(2, rng), [q]),
                partial_trace(rho, {q}),
            ]
            for out in outputs:
                densemat.assert_valid_state(out)
