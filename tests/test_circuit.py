import numpy as np
import pytest

from mixshor import circuit, densemat
from mixshor.circuit import (
    ComputerState,
    InitialStateKind,
    build_instance,
    initial_state,
    phase_correction_angle,
    plus_control,
    reference_distribution,
    reprepare_control,
    sample_control,
    work_distribution,
)
from mixshor.entanglement import mixedness
from mixshor.numtheory import coprime_list, is_prime

from conftest import bell_state, random_density_matrix
from reference import measure_control, run_stage_gates

PURE = InitialStateKind.PURE
MIXED_N = InitialStateKind.MIXED_N
MIXED_FULL = InitialStateKind.MIXED_FULL


def brute_force_distribution(N, a, t, n, b0):
    """Outcome distribution for one starting work value, by direct summation.

    Evaluates |(1/t) sum_x exp(-2 pi i x c / t)|^2 grouped by the image
    value y, with plain Python loops; independent of the FFT-based oracle.
    """
    values = []
    b = b0
    for _ in range(t):
        values.append(b)
        b = b * a % N if b0 < N else b
    probs = np.zeros(t)
    for c in range(t):
        sums = {}
        for x, y in enumerate(values):
            sums[y] = sums.get(y, 0) + np.exp(-2j * np.pi * x * c / t)
        probs[c] = sum(abs(v) ** 2 for v in sums.values()) / t**2
    return probs


class TestBuildInstance:
    def test_fifteen(self):
        inst = build_instance(15, 2)
        assert (inst.n, inst.L, inst.t, inst.r) == (4, 8, 256, 4)
        assert inst.m == 5

    def test_twenty_one(self):
        inst = build_instance(21, 2)
        assert (inst.n, inst.L, inst.t, inst.r) == (5, 10, 1024, 6)

    def test_order_two_base(self):
        assert build_instance(15, 14).r == 2

    def test_rejects_prime(self):
        with pytest.raises(ValueError):
            build_instance(13, 2)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError, match="not coprime"):
            build_instance(15, 6)


class TestInitialState:
    def test_pure_is_rank_one_at_b1(self):
        inst = build_instance(15, 2)
        state = initial_state(inst, PURE)
        assert state.stage == 0 and state.bits == ()
        assert mixedness(state.rho) < 1e-9
        work = densemat.partial_trace(state.rho, {0})
        assert abs(work[1, 1] - 1.0) < 1e-12

    def test_mixed_n_entropy(self):
        inst = build_instance(15, 2)
        work = densemat.partial_trace(initial_state(inst, MIXED_N).rho, {0})
        assert abs(mixedness(work) - np.log2(15)) < 1e-9

    def test_mixed_full_entropy(self):
        inst = build_instance(15, 2)
        work = densemat.partial_trace(initial_state(inst, MIXED_FULL).rho, {0})
        assert abs(mixedness(work) - 4.0) < 1e-9

    def test_control_is_plus(self):
        inst = build_instance(15, 2)
        for kind in InitialStateKind:
            control = densemat.partial_trace(initial_state(inst, kind).rho, {1, 2, 3, 4})
            assert np.allclose(control, np.full((2, 2), 0.5), atol=1e-12)

    def test_work_distribution_normalized(self):
        inst = build_instance(21, 2)
        for kind in InitialStateKind:
            assert abs(work_distribution(inst, kind).sum() - 1.0) < 1e-12


def modmult_matrix(inst, x):
    """Permutation matrix of the controlled multiplication by a^(2^x), from its work gather.

    The multiplier of stage L-1-x, gathered on the control-1 work indices
    and the identity on the control-0 ones.  Row i holds its one at column
    inv[i]: the gather rho[inv][:, inv] that both engines and stage_gates
    perform is U rho U^dagger.
    """
    half = 1 << inst.n
    perm = circuit._work_permutation(inst.N, inst.n, circuit.stage_multipliers(inst)[inst.L - 1 - x])
    inv = np.concatenate((np.arange(half), half + perm))
    return np.eye(inv.size, dtype=complex)[inv]


class TestControlledModmult:
    def test_maps_one_to_a(self):
        inst = build_instance(15, 2)
        u = modmult_matrix(inst, 0)
        dim_w = 1 << inst.n
        # |1, b=1> -> |1, b=2>; |0, b> untouched
        assert u[dim_w + 2, dim_w + 1] == 1
        for b in range(dim_w):
            assert u[b, b] == 1

    def test_identity_when_multiplier_is_one(self):
        # 2^(2^2) = 16 = 1 (mod 15), so x >= 2 gives the identity gate
        inst = build_instance(15, 2)
        for x in (2, 5, 7):
            assert np.allclose(modmult_matrix(inst, x), np.eye(32))

    def test_permutation_unitarity(self):
        inst = build_instance(21, 2)
        for x in range(inst.L):
            u = modmult_matrix(inst, x)
            assert np.array_equal(u, u.astype(bool).astype(complex))
            assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]))

    def test_all_gates_commute(self):
        inst = build_instance(15, 7)
        gates = [modmult_matrix(inst, x) for x in range(inst.L)]
        for i in range(len(gates)):
            for j in range(i + 1, len(gates)):
                assert np.allclose(gates[i] @ gates[j], gates[j] @ gates[i])

    def test_every_instance_and_exponent_multiplies_b(self):
        # b -> a^(2^x) b mod N on the control=1 block, identity everywhere else
        count = 0
        for N in range(6, 32):
            if is_prime(N):
                continue
            for a in coprime_list(N):
                inst = build_instance(N, a)
                half = 1 << inst.n
                for x in range(inst.L):
                    expected = np.eye(2 * half, dtype=complex)
                    mult = pow(a, 1 << x, N)
                    expected[:, half : half + N] = 0.0
                    for b in range(N):
                        expected[half + mult * b % N, half + b] = 1.0
                    assert np.array_equal(modmult_matrix(inst, x), expected), (N, a, x)
                    count += 1
        assert count == 1304

    def test_work_permutation_is_the_inverse_multiplication_gather(self):
        # b < N -> a^(-2^x) b mod N and b >= N fixed, for every instance
        # and exponent, read-only
        count = 0
        for N in range(6, 32):
            if is_prime(N):
                continue
            for a in coprime_list(N):
                inst = build_instance(N, a)
                for x in range(inst.L):
                    multiplier = circuit.stage_multipliers(inst)[inst.L - 1 - x]
                    perm = circuit._work_permutation(N, inst.n, multiplier)
                    expected = np.arange(1 << inst.n)
                    expected[:N] = [pow(a, -(1 << x), N) * b % N for b in range(N)]
                    assert np.array_equal(perm, expected), (N, a, x)
                    assert not perm.flags.writeable
                    count += 1
        assert count == 1304

    def test_equal_stage_multipliers_share_one_array(self):
        # (9, 2) and (9, 7) agree on stages 0..6 and differ on stage 7
        x, y = build_instance(9, 2), build_instance(9, 7)
        for s in range(x.L):
            px, py = (
                circuit._work_permutation(9, i.n, circuit.stage_multipliers(i)[s]) for i in (x, y)
            )
            assert (px is py) == (s < 7), s

    def test_high_work_values_fixed(self):
        inst = build_instance(15, 2)
        u = modmult_matrix(inst, 0)
        assert u[16 + 15, 16 + 15] == 1


class TestPhaseCorrection:
    def test_first_stage_zero(self):
        assert phase_correction_angle((), 0) == 0.0
        assert phase_correction_angle((1, 1, 0), 0) == 0.0

    def test_single_previous_bit(self):
        assert abs(phase_correction_angle((1,), 1) - 0.25) < 1e-15

    def test_three_previous_bits(self):
        # theta_3 = m_2/4 + m_1/8 + m_0/16 with bits (m_0, m_1, m_2) = (1, 0, 1)
        assert abs(phase_correction_angle((1, 0, 1), 3) - 5 / 16) < 1e-15

    def test_all_zero_history(self):
        for s in range(8):
            assert phase_correction_angle((0,) * s, s) == 0.0

    def test_requires_enough_bits(self):
        with pytest.raises(ValueError):
            phase_correction_angle((1,), 3)

    @pytest.mark.parametrize("s", range(9))
    def test_phase_angle_from_outcome_equals_sum_over_bits(self, s):
        # exact dyadic values: equal bitwise, one run at a time and as a stack
        outcomes = np.arange(1 << s)
        bits = [(outcomes >> k) & 1 for k in range(s)]
        angles = circuit._phase_angle(outcomes, s)
        expected = np.broadcast_to(phase_correction_angle(bits, s), angles.shape)
        assert np.array_equal(angles, expected)
        for c in range(1 << s):
            assert angles[c] == phase_correction_angle([(c >> k) & 1 for k in range(s)], s)


class TestStageEvolution:
    def test_deterministic_prefix(self):
        # r = 4 = 2^2, so the first L-2 = 6 stages measure 0 with certainty
        inst = build_instance(15, 2)
        state = initial_state(inst, PURE)
        for _ in range(6):
            state = run_stage_gates(state, inst)
            (p0, b0), (p1, b1) = measure_control(state)
            assert abs(p0 - 1.0) < 1e-12
            assert b1 is None
            state = reprepare_control(b0)
        assert state.bits == (0,) * 6

    def test_first_branching_stage_is_fair(self):
        inst = build_instance(15, 2)
        state = initial_state(inst, PURE)
        for _ in range(6):
            state = reprepare_control(measure_control(run_stage_gates(state, inst))[0][1])
        state = run_stage_gates(state, inst)
        (p0, _), (p1, _) = measure_control(state)
        assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12

    def test_gates_preserve_state_validity(self):
        inst = build_instance(10, 3)
        state = initial_state(inst, MIXED_N)
        for s in range(inst.L):
            state = run_stage_gates(state, inst)
            densemat.assert_valid_state(state.rho, context=f"stage {s} gates")
            (_, b0), (_, b1) = measure_control(state)
            state = b1 if b1 is not None else b0
            densemat.assert_valid_state(state.rho, context=f"stage {s} measured")
            state = reprepare_control(state)
            densemat.assert_valid_state(state.rho, context=f"stage {s} re-prepared")


class TestMeasureControl:
    def test_plus_control_is_fair(self):
        inst = build_instance(15, 2)
        (p0, b0), (p1, b1) = measure_control(initial_state(inst, MIXED_N))
        assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12
        assert b0.stage == 1 and b0.bits == (0,)
        assert b1.bits == (1,)

    def test_definite_control_kills_other_branch(self):
        rho = densemat.kron(np.diag([1.0, 0]).astype(complex), np.eye(4, dtype=complex) / 4)
        (p0, b0), (p1, b1) = measure_control(ComputerState(rho=rho, bits=()))
        assert abs(p0 - 1.0) < 1e-14
        assert b1 is None
        assert np.allclose(b0.rho, rho)

    def test_collapse_of_correlated_work_qubit(self):
        # measuring the control of a Bell pair collapses the work qubit
        (p0, b0), (p1, b1) = measure_control(ComputerState(rho=bell_state(), bits=()))
        assert abs(p0 - 0.5) < 1e-12
        work0 = densemat.partial_trace(b0.rho, {0})
        work1 = densemat.partial_trace(b1.rho, {0})
        assert abs(work0[0, 0] - 1.0) < 1e-12
        assert abs(work1[1, 1] - 1.0) < 1e-12

    def test_corrupt_state_rejected(self):
        zero = ComputerState(rho=np.zeros((4, 4), dtype=complex), bits=())
        with pytest.raises(ValueError):
            measure_control(zero)


class TestMeasureControlStack:
    # a (B, d, d) stack measures each member exactly as it is measured
    # alone, and the block form on its diagonal blocks keeps, member for
    # member, the work blocks of the full-state collapse
    def _alone(self, states, history):
        return [
            measure_control(ComputerState(rho=rho, bits=(int(bit),)))
            for rho, bit in zip(states, history)
        ]

    def _check(self, states, history):
        stacked = measure_control(ComputerState(rho=np.stack(states), bits=(history,)))
        blocks = circuit.measure_control(*diagonal_blocks(np.stack(states)))
        alone = self._alone(states, history)
        half = states[0].shape[-1] // 2
        for bit, ((p, branch), (q, block_branch)) in enumerate(zip(stacked, blocks)):
            assert np.array_equal(p, [one[bit][0] for one in alone])
            assert np.array_equal(q, p)
            survivors = [one[bit][1] for one in alone if one[bit][1] is not None]
            if not survivors:
                assert branch is None and block_branch is None
                continue
            live, kept = block_branch
            assert np.array_equal(live, [one[bit][1] is not None for one in alone])
            assert branch.stage == 2
            assert np.array_equal(branch.rho, np.stack([b.rho for b in survivors]))
            for k in range(2):
                assert np.array_equal(branch.bits[k], [b.bits[k] for b in survivors])
            block = slice(bit * half, (bit + 1) * half)
            assert np.array_equal(kept, np.stack([b.rho[block, block] for b in survivors]))
        return stacked

    def test_members_match_alone(self, rng):
        # random states, both definite controls, and a control whose |1>
        # weight 1e-15 is below DEAD_BRANCH_TOL
        sigma = random_density_matrix(4, rng)
        states = [random_density_matrix(8, rng) for _ in range(3)] + [
            densemat.kron(np.diag([1.0, 0.0]), sigma),
            densemat.kron(np.diag([0.0, 1.0]), sigma),
            densemat.kron(np.diag([1 - 1e-15, 1e-15]), sigma),
        ]
        (_, b0), (_, b1) = self._check(states, np.array([0, 1, 0, 1, 1, 0]))
        assert len(b0.rho) == 5 and len(b1.rho) == 4

    def test_outcome_dead_for_every_member(self, rng):
        control0 = np.diag([1.0, 0.0])
        states = [densemat.kron(control0, random_density_matrix(4, rng)) for _ in range(3)]
        (p0, b0), (p1, b1) = self._check(states, np.array([1, 0, 1]))
        assert b1 is None and len(b0.rho) == 3
        assert np.array_equal(p1, np.zeros(3))

    def test_both_dead_rejected(self):
        stack = np.stack([bell_state(), np.zeros((4, 4), dtype=complex)])
        with pytest.raises(ValueError):
            circuit.measure_control(*diagonal_blocks(stack))


def diagonal_blocks(stack):
    """The (0, 0) and (1, 1) work blocks of the control of every member."""
    half = stack.shape[-1] // 2
    return stack[:, :half, :half], stack[:, half:, half:]


class TestSampleControl:
    def test_dead_outcome_never_chosen(self):
        # control |1>, |0>, and |0> with weight 1e-15: a draw below a dead
        # p0 still takes outcome 1, a draw above p0 of a certain 0 takes 0
        tiny = densemat.kron(np.diag([1e-15, 1 - 1e-15]).astype(complex), np.eye(2) / 2)
        one = densemat.kron(np.diag([0.0, 1.0]).astype(complex), np.eye(2) / 2)
        zero = densemat.kron(np.diag([1.0, 0.0]).astype(complex), np.eye(2) / 2)
        blocks = diagonal_blocks(np.stack([one, zero, tiny]))
        bits, sigma = sample_control(*blocks, np.array([0.0, 0.999, 0.0]))
        assert list(bits) == [1, 0, 1]
        assert np.allclose(sigma, np.eye(2) / 2)

    def test_both_dead_rejected(self):
        stack = np.stack([bell_state(), np.zeros((4, 4), dtype=complex)])
        with pytest.raises(ValueError):
            sample_control(*diagonal_blocks(stack), np.array([0.5, 0.5]))

    def test_dead_branch_rule_evaluated_once(self, rng, monkeypatch):
        # each measurement of a stack decides once which outcomes are live
        calls = []
        live = circuit._live

        def counted(p0, p1):
            calls.append(len(p0))
            return live(p0, p1)

        monkeypatch.setattr(circuit, "_live", counted)
        blocks = diagonal_blocks(np.stack([random_density_matrix(8, rng) for _ in range(5)]))
        sample_control(*blocks, rng.random(5))
        assert calls == [5]
        circuit.measure_control(*blocks)
        assert calls == [5, 5]

    def test_matches_measure_and_reprepare(self, rng):
        states = [random_density_matrix(8, rng) for _ in range(6)]
        draws = rng.random(6)
        bits, sigma = sample_control(*diagonal_blocks(np.stack(states)), draws)
        reprepared = plus_control(sigma)
        for rho, draw, bit, member in zip(states, draws, bits, reprepared):
            (p0, b0), (_, b1) = measure_control(ComputerState(rho=rho, bits=()))
            assert bit == (0 if draw < p0 else 1)
            expected = reprepare_control(b0 if bit == 0 else b1).rho
            assert np.array_equal(member, expected)


class TestNormalization:
    # kept blocks are multiplied by 1/p in place; the words must be those
    # of the division block[live] / p[live] they replace, member for member

    def _stack(self, rng):
        # random states whose outcome probabilities reach down to 1e-13,
        # and members for which one outcome is dead (p = 0 or 1e-15)
        stack = np.stack([random_density_matrix(16, rng) for _ in range(40)])
        weights = 10.0 ** rng.uniform(-13.0, 0.0, size=(2, 40))
        weights[0, :4] = weights[1, 4:8] = 0.0
        weights[0, 8], weights[1, 9] = 1e-15, 1e-15
        stack[:, :8, :8] *= weights[0][:, None, None]
        stack[:, 8:, 8:] *= weights[1][:, None, None]
        return diagonal_blocks(stack)

    def test_measure_control_equals_division(self, rng):
        blocks = self._stack(rng)
        for bit, (p, (live, kept)) in enumerate(circuit.measure_control(*blocks)):
            dead = [0, 1, 2, 3, 8] if bit == 0 else [4, 5, 6, 7, 9]
            assert np.array_equal(np.flatnonzero(~live), dead)
            expected = blocks[bit][live] / p[live][:, None, None]
            assert np.array_equal(kept.view(np.uint64), expected.view(np.uint64)), bit

    def test_sample_control_equals_division(self, rng):
        blocks = self._stack(rng)
        (p0, _), (p1, _) = circuit.measure_control(*blocks)
        bits, kept = sample_control(*blocks, rng.random(40))
        assert set(bits[:4]) == {1} and set(bits[4:8]) == {0}
        p = np.where(bits, p1, p0)
        expected = np.where(bits[:, None, None] == 0, *blocks) / p[:, None, None]
        assert np.array_equal(kept.view(np.uint64), expected.view(np.uint64))


def mix_then_hadamard(measured, bit, epsilon):
    """The former re-preparation, kept as the reference for the closed form.

    Flips the control to |0> when the measured bit is 1, mixes the state
    with its control-flipped copy in proportions (1-eps, eps), skipped at
    eps = 0, and applies the Hadamard to the control block by block.
    """
    half = measured.shape[0] // 2

    def flip(rho):
        out = np.empty_like(rho)
        out[:half, :half] = rho[half:, half:]
        out[half:, half:] = rho[:half, :half]
        out[:half, half:] = rho[half:, :half]
        out[half:, :half] = rho[:half, half:]
        return out

    rho = flip(measured) if bit else measured
    if epsilon:
        rho = (1.0 - epsilon) * rho + epsilon * flip(rho)
    a, b = rho[:half, :half], rho[:half, half:]
    c, d = rho[half:, :half], rho[half:, half:]
    out = np.empty_like(rho)
    out[:half, :half] = (a + b + c + d) * 0.5
    out[:half, half:] = (a - b + c - d) * 0.5
    out[half:, :half] = (a + b - c - d) * 0.5
    out[half:, half:] = (a - b - c + d) * 0.5
    return out


class TestClosedFormPreparation:
    EPSILONS = (0.0, 0.1, 0.25, 0.5)

    def test_reprepare_matches_mix_then_hadamard(self, rng):
        sigma = random_density_matrix(8, rng)
        for bit in (0, 1):
            measured = densemat.kron(np.diag([1.0 - bit, float(bit)]), sigma)
            state = ComputerState(rho=measured, bits=(bit,))
            for eps in self.EPSILONS:
                got = reprepare_control(state, eps).rho
                expected = mix_then_hadamard(measured, bit, eps)
                if eps == 0.0:
                    assert np.array_equal(got, expected)
                assert np.max(np.abs(got - expected)) < 1e-15, (bit, eps)

    def test_initial_state_matches_mix_then_hadamard(self):
        inst = build_instance(15, 2)
        for kind in (PURE, MIXED_N, MIXED_FULL):
            start = densemat.kron(np.diag([1.0, 0.0]), np.diag(work_distribution(inst, kind)))
            for eps in self.EPSILONS:
                got = initial_state(inst, kind, eps).rho
                expected = mix_then_hadamard(start, 0, eps)
                if eps == 0.0:
                    assert np.array_equal(got, expected)
                assert np.max(np.abs(got - expected)) < 1e-15, (kind, eps)


class TestReprepareControl:
    def _measured_state(self, bit):
        inst = build_instance(15, 2)
        state = run_stage_gates(initial_state(inst, PURE), inst)
        branches = measure_control(state)
        return branches[bit][1]

    def test_exact_reset_gives_plus(self):
        state = reprepare_control(self._measured_state(0), epsilon=0.0)
        control = densemat.partial_trace(state.rho, {1, 2, 3, 4})
        assert np.allclose(control, np.full((2, 2), 0.5), atol=1e-12)

    def test_reset_after_one_outcome(self):
        inst = build_instance(15, 2)
        # force a branching stage so outcome 1 exists
        state = initial_state(inst, PURE)
        for _ in range(6):
            state = reprepare_control(measure_control(run_stage_gates(state, inst))[0][1])
        state = run_stage_gates(state, inst)
        one = measure_control(state)[1][1]
        control = densemat.partial_trace(reprepare_control(one).rho, {1, 2, 3, 4})
        assert np.allclose(control, np.full((2, 2), 0.5), atol=1e-12)

    def test_half_mixing_gives_maximally_mixed_control(self):
        state = reprepare_control(self._measured_state(0), epsilon=0.5)
        control = densemat.partial_trace(state.rho, {1, 2, 3, 4})
        assert np.allclose(control, np.eye(2) / 2, atol=1e-12)

    def test_quarter_mixing_control_spectrum(self):
        state = reprepare_control(self._measured_state(0), epsilon=0.25)
        control = densemat.partial_trace(state.rho, {1, 2, 3, 4})
        vals = densemat.hermitian_eigenvalues(control)
        assert np.allclose(vals, [0.75, 0.25], atol=1e-12)

    def test_epsilon_range_checked(self):
        with pytest.raises(ValueError):
            reprepare_control(self._measured_state(0), epsilon=0.6)

    def test_requires_measurement_history(self):
        inst = build_instance(15, 2)
        with pytest.raises(ValueError):
            reprepare_control(initial_state(inst, PURE))


class TestReferenceDistribution:
    def test_pure_fifteen_exact_quarters(self):
        inst = build_instance(15, 2)
        dist = reference_distribution(inst, PURE)
        expected = np.zeros(256)
        expected[[0, 64, 128, 192]] = 0.25
        assert np.allclose(dist, expected, atol=1e-12)

    def test_normalization(self):
        for N, a in ((15, 2), (21, 2), (14, 3)):
            inst = build_instance(N, a)
            for kind in InitialStateKind:
                assert abs(reference_distribution(inst, kind).sum() - 1.0) < 1e-9

    def test_matches_brute_force_summation(self):
        # independent O(t^2) evaluation of the closed-form distribution
        inst = build_instance(9, 2)
        dist = reference_distribution(inst, PURE)
        brute = brute_force_distribution(9, 2, inst.t, inst.n, b0=1)
        assert np.max(np.abs(dist - brute)) < 1e-9

    def test_mixed_matches_brute_force_mixture(self):
        inst = build_instance(9, 2)
        dist = reference_distribution(inst, MIXED_FULL)
        brute = sum(
            brute_force_distribution(9, 2, inst.t, inst.n, b0=b) for b in range(16)
        ) / 16
        assert np.max(np.abs(dist - brute)) < 1e-9
