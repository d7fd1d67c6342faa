import numpy as np
import pytest

from mixshor import densemat
from mixshor.entanglement import log_negativity
from mixshor.noise import (
    MEASUREMENT,
    PAULI,
    NoiseConfig,
    dephase_qubit,
    depolarize_qubit,
    noise_pass,
)

from conftest import basis_density, bell_state, random_density_matrix


def plus_state():
    return np.full((2, 2), 0.5, dtype=complex)


class TestDephase:
    def test_plus_becomes_maximally_mixed(self):
        assert np.allclose(dephase_qubit(plus_state(), 0), np.eye(2) / 2)

    def test_basis_state_fixed(self):
        assert np.allclose(dephase_qubit(basis_density(2, 0), 0), basis_density(2, 0))

    def test_bell_keeps_classical_correlation(self):
        out = dephase_qubit(bell_state(), 0)
        expected = (basis_density(4, 0) + basis_density(4, 3)) / 2
        assert np.allclose(out, expected)
        assert abs(log_negativity(bell_state(), (1,)) - 1.0) < 1e-12
        assert log_negativity(out, (1,)) == 0.0

    def test_diagonal_untouched(self, rng):
        rho = random_density_matrix(8, rng)
        for q in range(3):
            assert np.allclose(np.diag(dephase_qubit(rho, q)), np.diag(rho))

    def test_idempotent(self, rng):
        rho = random_density_matrix(8, rng)
        for q in range(3):
            once = dephase_qubit(rho, q)
            assert np.allclose(dephase_qubit(once, q), once, atol=1e-12)

    def test_bad_qubit(self, rng):
        with pytest.raises(ValueError):
            dephase_qubit(random_density_matrix(4, rng), 2)


class TestDepolarize:
    def test_single_qubit_fully_randomized(self, rng):
        rho = random_density_matrix(2, rng)
        assert np.allclose(depolarize_qubit(rho, 0), np.eye(2) / 2, atol=1e-12)

    def test_bell_becomes_identity(self):
        assert np.allclose(depolarize_qubit(bell_state(), 0), np.eye(4) / 4, atol=1e-12)

    def test_fixed_point(self, rng):
        rho = densemat.kron(np.eye(2, dtype=complex) / 2, random_density_matrix(2, rng))
        assert np.allclose(depolarize_qubit(rho, 0), rho, atol=1e-12)

    def test_reduced_state_is_maximally_mixed(self, rng):
        rho = random_density_matrix(8, rng)
        for q in range(3):
            out = depolarize_qubit(rho, q)
            others = set(range(3)) - {q}
            assert np.allclose(densemat.partial_trace(out, others), np.eye(2) / 2, atol=1e-12)

    def test_disentangles_target(self, rng):
        # the depolarized qubit factors out as I/2, so every split isolating
        # it loses its negativity
        rho = random_density_matrix(8, rng)
        out = depolarize_qubit(rho, 0)
        rest = densemat.partial_trace(out, {0})
        assert np.allclose(out, densemat.kron(np.eye(2, dtype=complex) / 2, rest), atol=1e-12)
        assert log_negativity(depolarize_qubit(rho, 1), (1,)) <= 1e-10


class TestChannelProperties:
    def test_trace_hermiticity_psd_preserved(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 4))
            rho = random_density_matrix(1 << m, rng)
            q = int(rng.integers(0, m))
            for channel in (dephase_qubit, depolarize_qubit):
                out = channel(rho, q)
                densemat.assert_valid_state(out)

    def test_unital(self):
        eye = np.eye(8, dtype=complex) / 8
        for q in range(3):
            assert np.allclose(dephase_qubit(eye, q), eye)
            assert np.allclose(depolarize_qubit(eye, q), eye, atol=1e-12)

    def test_channels_commute_across_qubits(self, rng):
        rho = random_density_matrix(8, rng)
        for first, second in ((dephase_qubit, depolarize_qubit), (depolarize_qubit, dephase_qubit)):
            ab = second(first(rho, 0), 2)
            ba = first(second(rho, 2), 0)
            assert np.allclose(ab, ba, atol=1e-12)


def random_states(m, count, rng):
    return np.stack([random_density_matrix(1 << m, rng) for _ in range(count)])


class TestClosedFormChannels:
    # the closed forms against the channels' definitions, for every
    # supported qubit count and every target qubit
    def test_depolarize_is_pauli_average(self, rng):
        paulis = (densemat.PAULI_X, densemat.PAULI_Y, densemat.PAULI_Z)
        for m in range(1, 7):
            for q in range(m):
                rho = random_density_matrix(1 << m, rng)
                expected = rho + sum(densemat.apply_local_gate(rho, p, [q]) for p in paulis)
                assert np.max(np.abs(depolarize_qubit(rho, q) - expected / 4)) < 1e-14

    def test_dephase_is_projector_sum(self, rng):
        projectors = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
        for m in range(1, 7):
            for q in range(m):
                rho = random_density_matrix(1 << m, rng)
                expected = sum(densemat.apply_local_gate(rho, p, [q]) for p in projectors)
                assert np.max(np.abs(dephase_qubit(rho, q) - expected)) < 1e-14

    def test_stack_matches_members(self, rng):
        for m in range(1, 7):
            stack = random_states(m, 3, rng)
            for q in range(m):
                for channel in (dephase_qubit, depolarize_qubit):
                    out = channel(stack, q)
                    assert out.shape == stack.shape
                    for member, alone in zip(out, stack):
                        assert np.array_equal(member, channel(alone, q))


class TestNoisePass:
    def test_zero_probability_is_identity(self, rng):
        rho = random_density_matrix(8, rng)
        cfg = NoiseConfig(PAULI, 0.0)
        assert np.allclose(noise_pass(rho, cfg, np.random.default_rng(0)), rho)
        assert np.allclose(noise_pass(rho, None, np.random.default_rng(0)), rho)

    def test_certain_pauli_randomizes_everything(self, rng):
        rho = random_density_matrix(8, rng)
        cfg = NoiseConfig(PAULI, 1.0, exclude_control=False)
        out = noise_pass(rho, cfg, np.random.default_rng(0))
        assert np.allclose(out, np.eye(8) / 8, atol=1e-12)

    def test_certain_measurement_fixes_diagonal_states(self, rng):
        diag = np.diag(rng.random(8)).astype(complex)
        diag /= np.trace(diag).real
        cfg = NoiseConfig(MEASUREMENT, 1.0)
        assert np.allclose(noise_pass(diag, cfg, np.random.default_rng(0)), diag)

    def test_exclude_control_skips_qubit_zero(self, rng):
        rho = densemat.kron(plus_state(), random_density_matrix(4, rng))
        cfg = NoiseConfig(MEASUREMENT, 1.0, exclude_control=True)
        out = noise_pass(rho, cfg, np.random.default_rng(0))
        control = densemat.partial_trace(out, {1, 2})
        assert np.allclose(control, plus_state(), atol=1e-12)

    def test_reproducible_given_stream(self, rng):
        rho = random_density_matrix(8, rng)
        cfg = NoiseConfig(PAULI, 0.5)
        a = noise_pass(rho, cfg, np.random.default_rng(42))
        b = noise_pass(rho, cfg, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig("thermal", 0.1)
        with pytest.raises(ValueError):
            NoiseConfig(PAULI, 1.5)

    def test_single_state_hits_only_qubits_below_prob(self, rng):
        rho = random_density_matrix(4, rng)
        before = rho.copy()
        draws = iter([0.1, 0.9])

        class Draws:
            def random(self):
                return next(draws)

        out = noise_pass(rho, NoiseConfig(PAULI, 0.5), Draws())
        assert np.array_equal(out, depolarize_qubit(rho, 0))
        assert np.array_equal(rho, before)
