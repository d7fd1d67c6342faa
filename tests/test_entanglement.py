import numpy as np

import pytest

from mixshor import densemat
from mixshor.entanglement import (
    CLAMP_TOL,
    average_log_negativity,
    bipartitions,
    is_ppt,
    log_negativity,
    mixedness,
)

from conftest import basis_density, bell_state, ghz_state, haar_unitary, random_density_matrix


class TestBipartitions:
    def test_counts(self):
        assert len(bipartitions(2)) == 1
        assert len(bipartitions(4)) == 7
        assert len(bipartitions(5)) == 15

    def test_four_qubit_list(self):
        # the seven splits of a 4-qubit system, keyed by the side without
        # qubit 0: every nonempty subset of {1, 2, 3}
        got = {frozenset(p) for p in bipartitions(4)}
        assert got == {
            frozenset(s)
            for s in ({1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3})
        }

    def test_canonical_excludes_qubit_zero(self):
        for m in (2, 3, 4, 5, 6):
            for p in bipartitions(m):
                assert 0 not in p
                assert 0 < len(p) < m

    def test_too_few_qubits(self):
        with pytest.raises(ValueError):
            bipartitions(1)


class TestLogNegativity:
    def test_bell_state_is_one(self):
        assert abs(log_negativity(bell_state(), (1,)) - 1.0) < 1e-12

    def test_product_state_is_zero(self, rng):
        rho = densemat.kron(random_density_matrix(2, rng), random_density_matrix(4, rng))
        assert log_negativity(rho, (1, 2)) == 0.0

    def test_ghz_single_qubit_splits(self):
        rho = ghz_state(3)
        for subset in ((1,), (2,), (1, 2)):
            assert abs(log_negativity(rho, subset) - 1.0) < 1e-9

    def test_never_negative(self, rng):
        for _ in range(20):
            rho = random_density_matrix(8, rng)
            for p in bipartitions(3):
                assert log_negativity(rho, p) >= 0.0


class TestAverageLogNegativity:
    def test_fully_product_state(self, rng):
        rho = densemat.kron(
            densemat.kron(random_density_matrix(2, rng), random_density_matrix(2, rng)),
            random_density_matrix(2, rng),
        )
        assert average_log_negativity(rho) < 1e-9

    def test_bell_times_pure(self):
        rho = densemat.kron(bell_state(), basis_density(2, 0))
        # splits {1}, {2}, {1,2} carry values 1, 0, 1
        assert abs(average_log_negativity(rho) - 2 / 3) < 1e-9

    def test_ghz_average(self):
        assert abs(average_log_negativity(ghz_state(3)) - 1.0) < 1e-9

    def test_matches_per_partition_mean(self, rng):
        rho = random_density_matrix(16, rng)
        direct = np.mean([log_negativity(rho, p) for p in bipartitions(4)])
        assert abs(average_log_negativity(rho) - direct) < 1e-12


class TestIsPpt:
    def test_bell_state_is_npt(self):
        assert not is_ppt(bell_state(), (1,))

    def test_maximally_mixed_is_ppt(self):
        assert is_ppt(np.eye(4, dtype=complex) / 4, (1,))

    def test_ghz_reduction_is_ppt(self):
        # the explicitly separable two-party reduction of GHZ
        reduced = densemat.partial_trace(ghz_state(3), {2})
        assert is_ppt(reduced, (1,))

    def test_ppt_implies_clamped_negativity(self, rng):
        for _ in range(20):
            rho = random_density_matrix(8, rng)
            for p in bipartitions(3):
                if is_ppt(rho, p):
                    assert log_negativity(rho, p) <= 1e-9


class TestInvariances:
    def test_local_unitary_invariance(self, rng):
        rho = random_density_matrix(16, rng)
        u = densemat.kron(
            densemat.kron(haar_unitary(2, rng), haar_unitary(2, rng)),
            densemat.kron(haar_unitary(2, rng), haar_unitary(2, rng)),
        )
        rotated = densemat.apply_unitary(rho, u)
        for p in bipartitions(4):
            assert abs(log_negativity(rho, p) - log_negativity(rotated, p)) < 1e-9

    def test_complement_symmetry(self, rng):
        rho = random_density_matrix(16, rng)
        for p in bipartitions(4):
            complement = tuple(q for q in range(4) if q not in p)
            # the complement contains qubit 0, so compute it directly
            value = np.log2(
                densemat.trace_norm_hermitian(densemat.partial_transpose(rho, complement))
            )
            assert abs(log_negativity(rho, p) - max(value, 0.0)) < 1e-10

    def test_measurement_monotone_on_average(self, rng):
        # p0 E(rho0) + p1 E(rho1) <= E(rho) for control measurement
        from mixshor.circuit import ComputerState
        from reference import measure_control

        for _ in range(30):
            rho = random_density_matrix(16, rng)
            state = ComputerState(rho=rho, bits=())
            (p0, b0), (p1, b1) = measure_control(state)
            for p in bipartitions(4):
                before = log_negativity(rho, p)
                after = 0.0
                if b0 is not None:
                    after += p0 * log_negativity(b0.rho, p)
                if b1 is not None:
                    after += p1 * log_negativity(b1.rho, p)
                assert after <= before + 1e-9


class TestMixedness:
    def test_pure(self, rng):
        # round-off below CLAMP_TOL is reported as exactly zero, one state
        # or a stack, while the dense eigvalsh entropy keeps it
        states = np.stack([random_density_matrix(8, rng, rank=1) for _ in range(4)])
        assert mixedness(states[0]) == 0.0
        assert np.array_equal(mixedness(states), np.zeros(4))
        assert all(TestSparsityBlocks._dense_entropy(rho) < CLAMP_TOL for rho in states)

    def test_maximally_mixed(self):
        assert abs(mixedness(np.eye(16, dtype=complex) / 16) - 4.0) < 1e-12


class TestStacks:
    # a (B, d, d) stack gives each member exactly the value it gets alone:
    # pure (entangled), rank 2 and full-rank states, plus the maximally
    # mixed state, whose log-negativities are all clamped to zero
    def _stack(self, dim, rng):
        members = [random_density_matrix(dim, rng, rank=r) for r in (1, 2, dim)]
        return np.stack(members + [np.eye(dim, dtype=complex) / dim])

    @pytest.mark.parametrize("dim", [4, 8, 16, 32, 64])
    def test_average_log_negativity_per_member(self, dim, rng):
        stack = self._stack(dim, rng)
        got = average_log_negativity(stack)
        assert got.shape == (4,)
        assert np.array_equal(got, [average_log_negativity(rho) for rho in stack])
        assert got[0] > 0.0 and got[3] == 0.0

    @pytest.mark.parametrize("dim", [4, 8, 16, 32, 64])
    def test_mixedness_per_member(self, dim, rng):
        stack = self._stack(dim, rng)
        got = mixedness(stack)
        assert got.shape == (4,)
        assert np.array_equal(got, [mixedness(rho) for rho in stack])
        assert abs(got[3] - np.log2(dim)) < 1e-12


class TestSparsityBlocks:
    # members that are direct sums of random blocks on shuffled index sets,
    # with single-index blocks and all-zero rows, each with its own nonzero
    # pattern; the block-split path must agree with the dense reference path
    @staticmethod
    def _direct_sum(dim, sizes, rng):
        order = rng.permutation(dim)
        rho = np.zeros((dim, dim), dtype=complex)
        for start, size in zip(np.cumsum((0,) + sizes), sizes):
            index = order[start:start + size]
            rho[np.ix_(index, index)] = rng.uniform(0.5, 1.0) * random_density_matrix(size, rng)
        return rho / np.trace(rho).real

    def _stack(self, dim, rng):
        shapes = [(dim // 2, 1, 1), (2, 2, 1), (1,) * (dim // 2), (2,) * (dim // 2), (dim,)]
        return np.stack([self._direct_sum(dim, sizes, rng) for sizes in shapes])

    @staticmethod
    def _dense_entropy(rho):
        vals = np.linalg.eigvalsh(rho)
        vals = vals[vals > 0.0]
        return float(-np.sum(vals * np.log2(vals)))

    @pytest.mark.parametrize("dim", [4, 8, 16, 32, 64])
    def test_average_log_negativity_matches_reference(self, dim, rng):
        stack = self._stack(dim, rng)
        parts = bipartitions(densemat.num_qubits(stack[0]))
        got = average_log_negativity(stack)
        reference = [np.mean([log_negativity(rho, p) for p in parts]) for rho in stack]
        assert np.max(np.abs(got - reference)) < 1e-12
        assert np.array_equal(got, [average_log_negativity(rho) for rho in stack])
        assert max(got) > 0.0

    @pytest.mark.parametrize("dim", [4, 8, 16, 32, 64])
    def test_mixedness_matches_dense_entropy(self, dim, rng):
        stack = self._stack(dim, rng)
        got = mixedness(stack)
        assert np.max(np.abs(got - [self._dense_entropy(rho) for rho in stack])) < 1e-12
        assert np.array_equal(got, [mixedness(rho) for rho in stack])
