import itertools

import numpy as np
import pytest

from mixshor import circuit, densemat, entanglement, experiments, noise
from mixshor.circuit import InitialStateKind, build_instance, initial_state, reference_distribution
from mixshor.entanglement import (
    CLAMP_TOL,
    average_log_negativity,
    bipartitions,
    log_negativity,
    mixedness,
)
from mixshor.experiments import (
    ensemble_instances,
    extraction_success_mask,
    find_entanglement_crossing,
    mix_sweep,
    monte_carlo_sweep,
    random_baseline,
    run_trajectory,
    success_probability_exact,
    tree_leaf_distribution,
    tree_profile,
)
from mixshor.noise import MEASUREMENT, PAULI, NoiseConfig
from mixshor.numtheory import coprime_list, is_prime

from reference import (
    assert_valid_state,
    explicit_tree,
    measure_control,
    reference_stages,
    reference_trajectory,
    reference_tree_steps,
    run_rng,
    run_stage_gates,
    sector_distribution,
)

PURE = InitialStateKind.PURE
MIXED_N = InitialStateKind.MIXED_N
MIXED_FULL = InitialStateKind.MIXED_FULL


def _points(steps):
    """(point, {record: (probability, state)}) per sampling point of a tree stepper.

    A stepper yields each chunk's two points of a stage in turn, so the
    chunks are gathered per stage.
    """
    for stage, chunks in itertools.groupby(steps, key=lambda step: step[0] // 2):
        records = ({}, {})
        for point, probs, states, c in chunks:
            records[point % 2].update((int(r), (p, x)) for r, p, x in zip(c, probs, states))
        yield 2 * stage, records[0]
        yield 2 * stage + 1, records[1]


def _single_steps(inst, kind, epsilon):
    """The (point, probs, states, c) of _tree_steps on a group of one, which owns every chunk."""
    for owners, point, probs, states, c in experiments._tree_steps((inst,), kind, epsilon):
        assert owners == (0,)
        yield point, probs, states, c


def _control_channel(kind, hit, diagonal, off_diagonal):
    """The control's channel on the runs hit, explicitly on their control blocks.

    Dephasing zeroes the off-diagonal blocks; depolarizing, I/2 (x) Tr_0,
    also puts the mean of the diagonal blocks in both.  The engine states
    both as the control's coherence instead, 0 on the runs whose
    measurement the channel reaches.
    """
    for block in off_diagonal:
        block[hit] = 0.0
    if kind == PAULI:
        upper, lower = diagonal
        upper[hit] = lower[hit] = (upper[hit] + lower[hit]) * 0.5


def _explicit_diagonal(inst, kind, s, sigma, outcome, hits):
    """The Hadamard's diagonal blocks of stage s with the control noise of `hits` applied explicitly.

    `hits` is the (B, gates) control column of a stage's hits: the
    channel on the blocks before the Hadamard for a hit after the
    multiplication or the phase, and on the diagonal blocks after it for
    a hit after the Hadamard.
    """
    a, b, c, d = circuit._stage_blocks(sigma, inst, s, outcome)
    _control_channel(kind, hits[:, :-1].any(axis=1), (a, d), (b, c))
    top, bottom = circuit._hadamard_diagonal(a, b, c, d)
    _control_channel(kind, hits[:, -1], (top, bottom), ())
    return top, bottom


def _block_stage(inst, cfg, s, sigma, outcome, hits, draws):
    """Stage s of _run_steps on the four control blocks, as at a multiplier other than 1.

    The control noise is the explicit channel of _explicit_diagonal.
    Returns p0, the trace of the Hadamard's top block after the control
    noise, with the bits and kept work blocks measured from `draws` and
    the work qubits' channels applied to the runs they hit.
    """
    control = hits[:, :, 0] if hits.shape[2] == inst.m else np.zeros(hits.shape[:2], dtype=bool)
    top, bottom = _explicit_diagonal(inst, cfg.kind, s, sigma, outcome, control)
    p0 = np.real(np.trace(top, axis1=1, axis2=2))
    bits, kept = circuit.sample_control(top, bottom, draws)
    channel = noise.dephase_qubit if cfg.kind == MEASUREMENT else noise.depolarize_qubit
    for q, hit in enumerate(hits[:, :, -inst.n :].any(axis=1).T):
        if hit.any():
            kept[hit] = channel(kept[hit], q)
    return p0, bits, kept


class TestTreeProfile:
    def test_leaf_distribution_matches_oracle(self):
        inst = build_instance(15, 2)
        for kind in (PURE, MIXED_N, MIXED_FULL):
            result = tree_profile(inst, kind)
            oracle = reference_distribution(inst, kind)
            assert np.max(np.abs(result.leaf_probs - oracle)) < 1e-9

    def test_report_count_and_kinds(self):
        inst = build_instance(15, 2)
        reports = tree_profile(inst, PURE).reports
        assert len(reports) == 16
        assert [r.kind for r in reports[:2]] == ["post_gate", "post_measure"]
        assert all(r.stage == i // 2 for i, r in enumerate(reports))

    def test_deterministic_prefix_reports(self):
        # stages 0..5 of the r=4 pure algorithm never branch: entanglement
        # stays zero and mixedness stays at its initial value
        inst = build_instance(15, 2)
        reports = tree_profile(inst, PURE).reports
        for r in reports[:12]:
            assert r.avg_logneg < 1e-12
            assert r.mixedness < 1e-9

    @pytest.mark.parametrize("N, a", [(18, 13), (21, 4)])
    def test_pure_mixedness_is_exactly_zero(self, N, a):
        # low-probability branches carry round-off entropies above
        # CLAMP_TOL; weighted by their path mass they must still read 0
        reports = tree_profile(build_instance(N, a), PURE).reports
        assert [r.mixedness for r in reports] == [0.0] * len(reports)

    @pytest.mark.parametrize("N, a", [(10, 3), (15, 2)])
    def test_tree_steps_yield_valid_states(self, N, a):
        # full states after the gates, normalized work blocks after the measurement
        inst = build_instance(N, a)
        for kind in (PURE, MIXED_N, MIXED_FULL):
            for eps in (0.0, 0.25):
                for point, _, states, _ in _single_steps(inst, kind, eps):
                    assert_valid_state(states, context=f"{kind} eps={eps} point {point}")

    @pytest.mark.parametrize("N, a", [(6, 5), (9, 2), (15, 2), (21, 2)])
    def test_tree_steps_equal_full_state_walk(self, N, a):
        # the block stage against plus_control, the full-state gates and
        # the full-state collapse of the unfolded walk, record by record at
        # every sampling point: a kept branch has the walk's state bitwise
        # and exactly its path probability times 1 (self-conjugate) or 2,
        # and every record the fold drops is the conjugate of its kept
        # partner, X conj(rho) X with X on the control after the gates.
        # Work count: after stage s's measurement the fold keeps exactly
        # the walk's live records r with r = 0 or bit lowbit(r) + 1 of r
        # clear, 2^s + 1 of them when no branch has died
        inst = build_instance(N, a)
        chunk = experiments._chunk_size(1 << inst.m)
        half = 1 << inst.n

        def kept(r):
            return r == 0 or not r >> (r & -r).bit_length() & 1
        for kind in (PURE, MIXED_N, MIXED_FULL):
            for eps in (0.0, 0.25):
                steps = _points(_single_steps(inst, kind, eps))
                reference = _points(reference_tree_steps(inst, kind, eps, chunk))
                count = 0
                for (point, got), (ref_point, expected) in zip(steps, reference, strict=True):
                    where = (kind, eps, point)
                    assert point == ref_point == count, where
                    bits = point // 2 + point % 2  # outcome bits the records carry
                    if point % 2:
                        assert sorted(got) == [r for r in sorted(expected) if kept(r)], where
                        if len(expected) == 1 << bits:
                            assert len(got) == (1 << bits - 1) + 1, where
                    for r, (p, state) in got.items():
                        partner = -r % (1 << bits)
                        ref_p, ref_state = expected[r]
                        assert np.array_equal(state, ref_state), (where, r)
                        assert p == (1.0 if partner == r else 2.0) * ref_p, (where, r)
                        assert partner == r or partner in expected, (where, r)
                    for r, (ref_p, ref_state) in expected.items():
                        if r in got:
                            continue
                        partner = -r % (1 << bits)
                        mirror = got[partner][1].conj()
                        if point % 2 == 0:
                            mirror = np.roll(mirror, (half, half), axis=(0, 1))
                        assert np.max(np.abs(ref_state - mirror)) * ref_p <= 1e-15, (where, r)
                        assert abs(ref_p - expected[partner][0]) <= 1e-15, (where, r)
                    count += 1
                assert count == 2 * inst.L

    @pytest.mark.parametrize(
        "N, bases", [(9, (2, 7)), (14, (3, 11)), (15, (2, 4, 7)), (21, (2, 16))]
    )
    def test_group_walk_shares_exactly_the_agreeing_multiplier_prefixes(self, N, bases):
        # every chunk the group walk yields is owned by exactly the
        # instances whose stage multipliers agree with its first owner's on
        # stages 0..s, so a shared chunk is yielded once; and each owner
        # gets it bitwise as its own walk alone yields it, in that order.
        # (9, 2)/(9, 7), (14, 3)/(14, 11), (15, 2)/(15, 7) agree on 7 of 8
        # stages, (21, 2)/(21, 16) on 9 of 10, (15, 4) on the first 6
        group = tuple(build_instance(N, a) for a in bases)

        def multipliers(inst, s):
            return [pow(inst.a, 1 << (inst.L - 1 - k), N) for k in range(s + 1)]

        for kind in (PURE, MIXED_N, MIXED_FULL):
            for eps in (0.0, 0.25):
                alone = [_single_steps(inst, kind, eps) for inst in group]
                shared = 0
                for owners, point, probs, states, c in experiments._tree_steps(group, kind, eps):
                    s = point // 2
                    prefix = multipliers(group[owners[0]], s)
                    agreeing = [i for i, inst in enumerate(group) if multipliers(inst, s) == prefix]
                    assert list(owners) == agreeing, (kind, eps, point)
                    shared += len(owners) > 1
                    for i in owners:
                        point_i, probs_i, states_i, c_i = next(alone[i])
                        where = (kind, eps, point, bases[i])
                        assert point_i == point, where
                        assert np.array_equal(probs_i, probs), where
                        assert np.array_equal(states_i, states), where
                        assert np.array_equal(c_i, c), where
                assert shared > 0
                for steps in alone:
                    assert next(steps, None) is None, (kind, eps)

    @pytest.mark.parametrize("N, a", [(6, 5), (15, 14)])
    def test_pruned_tree_pairs_survivors_with_their_records(self, N, a):
        # a base of order 2 makes every stage but the last measure 0 with
        # certainty, so outcome 1 dies for every branch: each post-measure
        # yield still holds one state per probability and record, and the
        # leaves are zero exactly where the oracle is
        inst = build_instance(N, a)
        for kind in (PURE, MIXED_N, MIXED_FULL):
            for point, probs, states, c in _single_steps(inst, kind, 0.0):
                if point % 2:
                    survivors = 2 if point == 2 * inst.L - 1 else 1
                    assert len(states) == len(probs) == len(c) == survivors, (kind, point)
            leaf = tree_leaf_distribution(inst, kind)
            assert np.array_equal(leaf == 0.0, reference_distribution(inst, kind) == 0.0), kind

    def test_initial_mixedness_for_mixed_kind(self):
        inst = build_instance(15, 2)
        reports = tree_profile(inst, MIXED_N).reports
        assert abs(reports[0].mixedness - np.log2(15)) < 1e-9

    def test_mixedness_non_increasing_without_mixing(self):
        # at eps = 0 the gates are unitary, re-preparing the pure control keeps
        # the entropy, and a projective measurement of the control does not
        # raise the average entropy; r=4 for N=15, r=6 for N=9
        for n, a in ((15, 2), (9, 2)):
            inst = build_instance(n, a)
            for kind in (MIXED_N, MIXED_FULL):
                reports = tree_profile(inst, kind).reports
                assert len(reports) == 2 * inst.L
                s = np.array([r.mixedness for r in reports])
                assert np.max(np.diff(s)) <= 1e-12, (n, a, kind)

    def test_gates_add_exactly_the_control_mixing_entropy(self):
        # tree_profile reports the entropy after stage s's gates as the report
        # before it (at stage 0, the entropy of the work distribution) plus
        # h2(eps), since the gates are unitary and the re-prepared control is
        # independent of the work register; compare that with the entropy of
        # the post-gate states themselves
        for n, a in ((6, 5), (9, 2), (15, 2)):
            inst = build_instance(n, a)
            for kind in (PURE, MIXED_N, MIXED_FULL):
                for eps in (0.0, 0.1, 0.25, 0.5):
                    post_gate = np.zeros(inst.L)
                    for point, probs, states, _ in _single_steps(inst, kind, eps):
                        if point % 2 == 0:
                            post_gate[point // 2] += probs @ mixedness(states)
                    s = [r.mixedness for r in tree_profile(inst, kind, epsilon=eps).reports]
                    deviation = np.max(np.abs(np.array(s[0::2]) - post_gate))
                    assert deviation <= 1e-12, (n, a, kind, eps, deviation)

    def test_leaf_probabilities_sum_to_one(self):
        inst = build_instance(14, 3)
        for eps in (0.0, 0.2):
            leaf = tree_profile(inst, MIXED_N, epsilon=eps).leaf_probs
            assert abs(leaf.sum() - 1.0) < 1e-9

    def test_stage_averages_match_explicit_product_form(self):
        # incremental path weights against the explicit product formula
        inst = build_instance(10, 3)
        result = tree_profile(inst, PURE, epsilon=0.15)
        explicit, leaf = explicit_tree(inst, PURE, epsilon=0.15)
        got = [r.avg_logneg for r in result.reports]
        assert np.allclose(got, explicit, atol=1e-12)
        assert np.allclose(leaf, result.leaf_probs, atol=1e-12)

    def test_post_measure_fast_path_matches_direct_evaluation(self):
        # the collapsed-control shortcut on the work block must agree with
        # the full-matrix path; N=9, a=2 branches from the very first stage
        inst = build_instance(9, 2)
        state = run_stage_gates(initial_state(inst, MIXED_N), inst)
        half = state.rho.shape[0] // 2
        for bit, (_, branch) in enumerate(measure_control(state)):
            assert branch is not None
            block = slice(bit * half, (bit + 1) * half)
            sigma = branch.rho[block, block]
            fast_e = entanglement._point_entanglement(sigma[None], post_measure=True)[0]
            full_e = average_log_negativity(branch.rho)
            assert abs(fast_e - full_e) < 1e-12
            fast_s = mixedness(sigma)
            assert abs(fast_s - mixedness(branch.rho)) < 1e-9

    def test_leaf_sum_residual_checked_by_every_tree_caller(self, monkeypatch):
        # a measurement that loses 10 % of the probability must stop every
        # caller of the tree stepper, the early-stop average included
        measure = circuit.measure_control

        def leaky(block0, block1):
            (p0, branch0), (p1, branch1) = measure(block0, block1)
            return (p0 * 0.9, branch0), (p1 * 0.9, branch1)

        monkeypatch.setattr(circuit, "measure_control", leaky)
        inst = build_instance(15, 2)
        callers = (
            lambda: tree_profile(inst, PURE),
            lambda: tree_leaf_distribution(inst, PURE),
            lambda: success_probability_exact(inst, PURE),
            lambda: experiments._average_entanglement(inst, PURE, 0.0, stop_above=CLAMP_TOL),
            lambda: experiments.ensemble_profile(4, MIXED_N),
        )
        for run in callers:
            with pytest.raises(RuntimeError, match="leaf probabilities sum to 0.9"):
                run()

    @pytest.mark.parametrize("kind", [PURE, MIXED_N, MIXED_FULL])
    @pytest.mark.parametrize("eps", [0.0, 0.25])
    def test_reports_match_dense_reference(self, kind, eps):
        # every sampling point recomputed with the dense reference path:
        # log_negativity per bipartition of the full state (a post-measure
        # state is |bit><bit| (x) sigma) and an entropy from eigvalsh
        inst = build_instance(15, 2)
        parts = bipartitions(inst.m)
        e_av, s_av = np.zeros(2 * inst.L), np.zeros(2 * inst.L)
        for point, probs, states, c in _single_steps(inst, kind, eps):
            for p, rho, path in zip(probs, states, c):
                if point % 2:
                    bit = path >> (point // 2) & 1
                    rho = densemat.kron(np.diag([1 - bit, bit]), rho)
                e_av[point] += p * np.mean([log_negativity(rho, part) for part in parts])
                vals = np.linalg.eigvalsh(rho)
                vals = vals[vals > 0.0]
                s_av[point] -= p * np.sum(vals * np.log2(vals))
        reports = tree_profile(inst, kind, epsilon=eps).reports
        assert np.max(np.abs([r.avg_logneg for r in reports] - e_av)) < 1e-12
        assert np.max(np.abs([r.mixedness for r in reports] - s_av)) < 1e-12


class TestChunks:
    @pytest.mark.parametrize("N, a, tree, runs", [(6, 5, 32, 128), (15, 2, 8, 32), (21, 2, 2, 8)])
    def test_each_stepper_fills_the_chunk_budget_with_its_largest_array(self, N, a, tree, runs):
        # the tree holds (B, d, d) post-gate states, Monte Carlo (B, d/2, d/2)
        # control blocks; the tree's B is that of the full-state rule
        inst = build_instance(N, a)
        for side, chunk in ((1 << inst.m, tree), (1 << inst.n, runs)):
            assert experiments._chunk_size(side) == chunk
            assert chunk * 16 * side**2 <= experiments.CHUNK_BYTES
            assert (chunk + 1) * 16 * side**2 > experiments.CHUNK_BYTES

    @pytest.mark.parametrize("N, a, chunk", [(9, 2, 8), (21, 2, 2)])
    def test_tree_steps_chunks_of_full_states(self, N, a, chunk):
        inst = build_instance(N, a)
        steps = _single_steps(inst, PURE, 0.0)
        assert max(probs.size for point, probs, _, _ in steps if point % 2 == 0) == chunk


def oracle_pairs():
    """Every (N, a): N composite in 6..31, 2 <= a < N coprime to N."""
    return [(n, a) for n in range(6, 32) if not is_prime(n) for a in coprime_list(n)]


class TestOracleSweep:
    def test_pair_count(self):
        # 138 pairs, 414 distributions over the three kinds
        assert len(oracle_pairs()) == 138

    @pytest.mark.parametrize("n, a", oracle_pairs())
    def test_leaf_distribution_matches_reference(self, n, a):
        inst = build_instance(n, a)
        for kind in (PURE, MIXED_N, MIXED_FULL):
            leaf = tree_leaf_distribution(inst, kind)
            assert np.max(np.abs(leaf - reference_distribution(inst, kind))) < 1e-12, kind


class TestSuccessProbabilities:
    def test_pure_fifteen(self):
        inst = build_instance(15, 2)
        assert abs(success_probability_exact(inst, PURE) - 0.5) < 1e-9

    def test_mixed_meets_efficiency_factor(self):
        # at least (p-1)(q-1)/N of the pure rate
        inst = build_instance(15, 2)
        mixed = success_probability_exact(inst, MIXED_N)
        assert mixed >= (8 / 15) * 0.5 - 1e-9
        assert abs(mixed - 0.4) < 1e-9

    def test_full_mixing_equals_random_baseline(self):
        inst = build_instance(15, 2)
        base = random_baseline(inst)
        for kind in (PURE, MIXED_N):
            (row,) = mix_sweep(inst, kind, [0.5])
            assert abs(row.success_prob - base) < 1e-9

    def test_baseline_by_direct_enumeration(self):
        from mixshor.numtheory import extract_period, multiplicative_order

        inst = build_instance(15, 2)
        r = multiplicative_order(2, 15)
        count = sum(1 for c in range(256) if extract_period(c, 256, 15, 2) == r)
        assert abs(random_baseline(inst) - count / 256) < 1e-12
        assert count / 256 < 1.0

    def test_success_mask_excludes_zero(self):
        inst = build_instance(21, 2)
        assert not extraction_success_mask(inst)[0]


class TestMonteCarlo:
    def test_noise_free_agrees_with_exact(self):
        # sampled success rate vs the exact tree value, 10000 runs, 4 sigma
        inst = build_instance(10, 3)
        exact = success_probability_exact(inst, MIXED_N)
        rows = monte_carlo_sweep(
            inst, MIXED_N, PAULI, [0.0], runs=10_000, exclude_control=False, seed=11
        )
        sigma = np.sqrt(exact * (1 - exact) / 10_000)
        assert abs(rows[0].rate - exact) <= 4 * sigma

    def test_certain_pauli_noise_randomizes(self):
        inst = build_instance(15, 2)
        rows = monte_carlo_sweep(inst, PURE, PAULI, [1.0], runs=600, exclude_control=False, seed=5)
        base = random_baseline(inst)
        sigma = np.sqrt(base * (1 - base) / 600)
        assert abs(rows[0].rate - base) <= 4 * sigma

    def test_reproducible_given_seed(self):
        inst = build_instance(10, 3)
        a = monte_carlo_sweep(inst, PURE, MEASUREMENT, [0.3], runs=50, exclude_control=False, seed=9)
        b = monte_carlo_sweep(inst, PURE, MEASUREMENT, [0.3], runs=50, exclude_control=False, seed=9)
        assert a == b

    def test_grid_checked_before_any_run(self, monkeypatch):
        def no_runs(*args):
            raise AssertionError("a run was stepped before the grid was checked")

        monkeypatch.setattr(experiments, "run_trajectory", no_runs)
        inst = build_instance(15, 2)
        with pytest.raises(ValueError, match="outside"):
            monte_carlo_sweep(inst, PURE, PAULI, [0.1, 1.5], 200, exclude_control=False, seed=1)
        # an all-zero grid runs no noise, but its kind is still checked
        with pytest.raises(ValueError, match="unknown noise kind"):
            monte_carlo_sweep(inst, PURE, "bogus", [0.0], 200, exclude_control=False, seed=1)
        with pytest.raises(ValueError, match="at least one run"):
            monte_carlo_sweep(inst, PURE, PAULI, [0.1], 0, exclude_control=False, seed=1)

    @pytest.mark.parametrize("N, a", [(6, 5), (15, 2), (21, 2)])
    def test_run_reads_exactly_its_draws(self, N, a):
        # every column of a run's stream is read, and read once; one
        # uniform fewer leaves a stage short

        class Recorded(np.ndarray):
            def __getitem__(self, key):
                self.read.extend(np.arange(self.shape[1])[key[1]].ravel())
                return np.asarray(self)[key]

        inst = build_instance(N, a)
        rng = np.random.default_rng(3)
        for kind in (PURE, MIXED_N, MIXED_FULL):
            for channel in (PAULI, MEASUREMENT):
                for exclude in (False, True):
                    for prob in (0.0, 0.3):
                        cfg = NoiseConfig(channel, prob, exclude)
                        draws = experiments._draws_per_run(inst, cfg)
                        uniforms = rng.random((2, draws)).view(Recorded)
                        uniforms.read = []
                        run_trajectory(inst, kind, cfg, uniforms)
                        where = (kind, channel, exclude, prob)
                        assert sorted(uniforms.read) == list(range(draws)), where
                        with pytest.raises((IndexError, ValueError)):
                            run_trajectory(inst, kind, cfg, rng.random((2, draws - 1)))

    def test_trajectory_returns_valid_outcome(self):
        inst = build_instance(10, 3)
        draws = experiments._draws_per_run(inst, None)
        for run in range(5):
            (c,) = run_trajectory(inst, MIXED_N, None, run_rng(1, run).random((1, draws)))
            assert 0 <= c < inst.t

    def test_batched_runs_match_reference_outcome_for_outcome(self):
        # 13 runs: one partial chunk at d = 32, a full chunk of 8 and a
        # partial one at d = 64
        runs, seed = 13, 401
        for N, a in ((10, 3), (15, 2), (21, 2)):
            inst = build_instance(N, a)
            mask = extraction_success_mask(inst)
            for kind in (PURE, MIXED_N, MIXED_FULL):
                for channel in (PAULI, MEASUREMENT):
                    for prob in (0.0, 0.3, 1.0):
                        for exclude in (False, True):
                            cfg = None if prob == 0.0 else NoiseConfig(channel, prob, exclude)
                            streams = [run_rng(seed, run) for run in range(runs)]
                            expected = [reference_trajectory(inst, kind, cfg, r) for r in streams]
                            got = experiments._sweep_outcomes(inst, kind, [cfg], runs, seed)[0]
                            assert list(got) == expected, (N, kind, channel, prob, exclude)
                            rows = monte_carlo_sweep(inst, kind, channel, [prob], runs, exclude, seed)
                            assert rows[0].successes == sum(mask[c] for c in expected)

    def test_batched_runs_match_reference_with_valid_states(self):
        # every kept sigma of the block stepper and every state of the
        # full-state path is a density matrix, and the outcomes agree
        inst = build_instance(10, 3)
        cfg = NoiseConfig(PAULI, 0.3)
        runs, seed = 5, 2
        draws = experiments._draws_per_run(inst, cfg)
        uniforms = np.stack([run_rng(seed, run).random(draws) for run in range(runs)])
        got = np.zeros(runs, dtype=np.int64)
        for s, (bit, sigma) in enumerate(experiments._run_steps(inst, MIXED_N, cfg, uniforms)):
            assert_valid_state(sigma, context=f"stage {s}")
            got += bit << s
        expected = []
        for run in range(runs):
            rng = run_rng(seed, run)
            stages = reference_stages(inst, MIXED_N, cfg, rng, check=assert_valid_state)
            expected.append(sum(bit << s for s, (bit, _) in enumerate(stages)))
        assert list(got) == expected

    @pytest.mark.parametrize("N, a", [(6, 5), (15, 2), (21, 2)])
    def test_block_stepper_states_match_full_state_path(self, N, a):
        # every stage's kept sigma of the block stepper against the full
        # (d, d) path of reference_stages, run by run from the same stream:
        # the control noise where it falls, each work qubit's hits of the
        # whole stage applied once, after the measurement
        runs, seed = 3, 17
        inst = build_instance(N, a)
        for kind in (PURE, MIXED_N, MIXED_FULL):
            for channel in (PAULI, MEASUREMENT):
                for prob in (0.3, 1.0):
                    for exclude in (False, True):
                        cfg = NoiseConfig(channel, prob, exclude)
                        draws = experiments._draws_per_run(inst, cfg)
                        streams = [run_rng(seed, run) for run in range(runs)]
                        uniforms = np.stack([rng.random(draws) for rng in streams])
                        steps = experiments._run_steps(inst, kind, cfg, uniforms)
                        references = [
                            reference_stages(inst, kind, cfg, run_rng(seed, run))
                            for run in range(runs)
                        ]
                        for s, (bits, sigma) in enumerate(steps):
                            for run, reference in enumerate(references):
                                bit, expected = next(reference)
                                where = (kind, channel, prob, exclude, s, run)
                                assert bits[run] == bit, where
                                assert np.max(np.abs(sigma[run] - expected)) <= 1e-12, where
                        assert s == inst.L - 1

    @pytest.mark.parametrize("N, a", [(15, 2), (10, 3), (21, 8)])
    def test_closed_form_stages_match_the_block_stage(self, N, a, monkeypatch):
        # every stage whose multiplier is 1 draws its bit in closed form;
        # from the sigma and outcomes it was handed, the block stage reads
        # the same p0 and, from the same draws, the same bits and sigma
        runs, seed = 12, 29
        inst = build_instance(N, a)
        ones = [s for s, k in enumerate(circuit.stage_multipliers(inst)) if k == 1]
        assert len(ones) == {(15, 2): 6, (10, 3): 6, (21, 8): 9}[(N, a)]
        sample_bits = circuit._sample_bits
        cases = itertools.product((PURE, MIXED_N), (PAULI, MEASUREMENT), (False, True))
        for (kind, channel, exclude), prob in itertools.product(cases, (0.0, 0.3, 1.0)):
            cfg = NoiseConfig(channel, prob, exclude)
            noisy = experiments._noisy_qubits(inst, cfg)
            draws = experiments._draws_per_run(inst, cfg)
            uniforms = np.stack([run_rng(seed, run).random(draws) for run in range(runs)])
            p0s = []

            def recorded(p0, p1, u):
                p0s.append(p0)
                return sample_bits(p0, p1, u)

            with monkeypatch.context() as patch:
                patch.setattr(circuit, "_sample_bits", recorded)
                steps = list(experiments._run_steps(inst, kind, cfg, uniforms))
            assert len(p0s) == inst.L
            work = np.diag(circuit.work_distribution(inst, kind)).astype(complex)
            sigma = np.broadcast_to(work, (runs,) + work.shape)
            outcome = np.zeros(runs, dtype=np.int64)
            first = 0
            for s, (bits, kept) in enumerate(steps):
                gates = 3 if s else 2
                hits = uniforms[:, first : first + gates * noisy] < prob
                u = uniforms[:, first + gates * noisy]
                first += gates * noisy + 1
                if s in ones:
                    hits = hits.reshape(runs, gates, noisy)
                    p0, expected, block_sigma = _block_stage(inst, cfg, s, sigma, outcome, hits, u)
                    where = (kind, channel, exclude, prob, s)
                    assert np.max(np.abs(p0s[s] - p0)) <= 1e-15, where
                    assert np.array_equal(bits, expected), where
                    assert np.max(np.abs(kept - block_sigma)) <= 1e-15, where
                sigma = kept
                outcome |= bits << s

    @pytest.mark.parametrize("N, a", [(15, 2), (21, 2)])
    @pytest.mark.parametrize("channel", [PAULI, MEASUREMENT])
    def test_coherence_equals_the_explicit_control_channel(self, N, a, channel, monkeypatch):
        # the coherence _run_steps hands each block stage against the
        # explicit channel on the blocks of the sigma it steps there: runs
        # 0..3 have their control hit, at every stage, after no gate, after
        # the multiplication, after the Hadamard, and after both.  Bitwise
        # equal, but for a Pauli hit after the Hadamard alone, where the
        # engine reads (a + d) / 2 for the mean of top and bottom
        inst = build_instance(N, a)
        cfg = NoiseConfig(channel, 0.5)
        uniforms = np.full((4, experiments._draws_per_run(inst, cfg)), 0.75)
        control_hits, first = [], 0
        for s in range(inst.L):
            gates = 3 if s else 2
            hit = np.zeros((4, gates), dtype=bool)
            hit[[1, 3], 0] = hit[[2, 3], -1] = True
            uniforms[:, first : first + gates * inst.m : inst.m] = np.where(hit, 0.0, 0.75)
            control_hits.append(hit)
            first += gates * inst.m + 1
        stage_blocks = circuit._stage_blocks
        for kind in (PURE, MIXED_N):
            recorded = []

            def recording(sigma, inst, s, outcome, coherence=1.0):
                recorded.append((sigma, s, outcome.copy(), coherence))
                return stage_blocks(sigma, inst, s, outcome, coherence)

            with monkeypatch.context() as patch:
                patch.setattr(circuit, "_stage_blocks", recording)
                for _ in experiments._run_steps(inst, kind, cfg, uniforms):
                    pass
            stages = [s for s, k in enumerate(circuit.stage_multipliers(inst)) if k != 1]
            assert [s for _, s, _, _ in recorded] == stages
            for sigma, s, outcome, coherence in recorded:
                got = circuit._hadamard_diagonal(*stage_blocks(sigma, inst, s, outcome, coherence))
                expected = _explicit_diagonal(inst, channel, s, sigma, outcome, control_hits[s])
                for block, reference in zip(got, expected):
                    for run in range(4):
                        where = (kind, s, run)
                        if channel == PAULI and run == 2:
                            assert np.max(np.abs(block[run] - reference[run])) <= 1e-15, where
                        else:
                            assert np.array_equal(block[run], reference[run]), where

    @pytest.mark.parametrize(
        "N, a, runs, chunks, stages",
        [(15, 2, 100, 4, [6, 7]), (21, 2, 20, 3, list(range(10))), (21, 8, 20, 3, [9])],
    )
    def test_blocks_formed_only_at_stages_whose_multiplier_is_not_1(
        self, N, a, runs, chunks, stages, monkeypatch
    ):
        # a count of work, the same on every machine: one sweep over two
        # grid points forms the control blocks of each chunk once at each
        # stage whose multiplier is not 1, and at no other stage
        inst = build_instance(N, a)
        assert stages == [s for s, k in enumerate(circuit.stage_multipliers(inst)) if k != 1]
        calls = []
        stage_blocks = circuit._stage_blocks

        def counted(sigma, inst, s, outcome, coherence=1.0):
            calls.append(s)
            return stage_blocks(sigma, inst, s, outcome, coherence)

        monkeypatch.setattr(circuit, "_stage_blocks", counted)
        monte_carlo_sweep(inst, PURE, PAULI, [0.1, 0.3], runs, exclude_control=False, seed=1)
        assert calls == stages * (2 * chunks)

    def test_runs_across_a_chunk_boundary_match_runs_stepped_alone(self, monkeypatch):
        # 37 runs at d = 32 step as chunks of 32 and 5; each run's outcome
        # is the one it gets stepped alone, B = 1, from its own stream
        inst = build_instance(15, 2)
        runs, seed = 37, 23
        stacks = []

        def recorded(inst, kind, cfg, uniforms):
            stacks.append(uniforms.shape[0])
            return run_trajectory(inst, kind, cfg, uniforms)

        monkeypatch.setattr(experiments, "run_trajectory", recorded)
        for kind in (PURE, MIXED_N):
            for channel in (PAULI, MEASUREMENT):
                for prob in (0.3, 1.0):
                    cfg = NoiseConfig(channel, prob)
                    draws = experiments._draws_per_run(inst, cfg)
                    streams = [run_rng(seed, run) for run in range(runs)]
                    alone = [
                        run_trajectory(inst, kind, cfg, rng.random((1, draws)))[0] for rng in streams
                    ]
                    got = experiments._sweep_outcomes(inst, kind, [cfg], runs, seed)[0]
                    assert stacks == [32, 5]
                    stacks.clear()
                    assert list(got) == alone, (kind, channel, prob)

    def test_grid_points_share_each_runs_stream(self, monkeypatch):
        # each stretch of whole chunks is drawn once for the whole grid;
        # every point, the noiseless ones reading only the leading columns,
        # gets the outcomes it gets alone.  A byte budget of 8 KiB makes
        # chunks of 2 runs and stretches of 4 chunks at 123 draws a run
        inst = build_instance(15, 2)
        configs = [NoiseConfig(PAULI, 0.3), None, NoiseConfig(PAULI, 0.0), NoiseConfig(PAULI, 1.0)]
        alone = [experiments._sweep_outcomes(inst, PURE, [cfg], 13, 5)[0] for cfg in configs]
        drawn = []
        run_uniforms = experiments._run_uniforms

        def counted(seed, runs, count):
            drawn.append((runs, count))
            return run_uniforms(seed, runs, count)

        monkeypatch.setattr(experiments, "_run_uniforms", counted)
        for budget, stretches in ((1 << 17, [range(13)]), (1 << 13, [range(8), range(8, 13)])):
            monkeypatch.setattr(experiments, "CHUNK_BYTES", budget)
            drawn.clear()
            together = experiments._sweep_outcomes(inst, PURE, configs, 13, 5)
            assert drawn == [(runs, 123) for runs in stretches], budget
            assert np.array_equal(together, alone), budget

    @pytest.mark.parametrize("seed", [0, 1, 3, 401, 123456789, -1, 2**63 + 5, 2**64 - 1])
    def test_run_uniforms_equal_numpy_philox_bit_for_bit(self, seed):
        # the vectorized draw against numpy's generator of each run, over
        # run ranges that cross the chunk boundaries of d = 16, 32 and 64
        # (128, 32 and 8 runs), partial and whole Philox blocks, and a run
        # index above 2^32
        for runs in (range(1), range(5, 13), range(30, 35), range(120, 133), range(2**40, 2**40 + 2)):
            for count in (0, 1, 3, 4, 5, 123, 184):
                got = experiments._run_uniforms(seed, runs, count)
                expected = np.zeros((len(runs), count))
                for row, run in zip(expected, runs):
                    row[:] = run_rng(seed, run).random(count)
                assert got.dtype == np.float64 and got.shape == expected.shape
                assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), (runs, count)

    def test_mixed_state_dephasing_is_harmless_for_power_of_two_period(self):
        # with the work register already diagonal and r = 2^m, measurement
        # noise off the control cannot change any outcome statistics
        inst = build_instance(15, 2)
        rows = monte_carlo_sweep(
            inst, MIXED_N, MEASUREMENT, [0.8], runs=400, exclude_control=True, seed=3
        )
        sigma = np.sqrt(0.4 * 0.6 / 400)
        assert abs(rows[0].rate - 0.4) <= 4 * sigma


class TestMixSweep:
    def test_rows_and_monotone_success(self):
        # exact success probability is non-increasing in epsilon, both kinds
        inst = build_instance(15, 2)
        eps = [0.0, 0.1, 0.25, 0.4, 0.5]
        start = {PURE: 0.5, MIXED_FULL: 0.375}
        for kind, first in start.items():
            rows = mix_sweep(inst, kind, eps)
            assert [r.epsilon for r in rows] == eps
            rates = [r.success_prob for r in rows]
            assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))
            assert abs(rates[0] - first) < 1e-9
            assert abs(rates[-1] - random_baseline(inst)) < 1e-9

    def test_entanglement_vanishes_at_half(self):
        inst = build_instance(15, 2)
        rows = mix_sweep(inst, PURE, [0.5])
        assert rows[0].avg_entanglement < 1e-9

    def test_average_entanglement_matches_profile(self):
        inst = build_instance(10, 3)
        rows = mix_sweep(inst, PURE, [0.2])
        prof = tree_profile(inst, PURE, epsilon=0.2)
        assert abs(rows[0].avg_entanglement - prof.whole_run_average_entanglement()) < 1e-12

    def test_epsilon_validated(self):
        inst = build_instance(15, 2)
        with pytest.raises(ValueError):
            mix_sweep(inst, PURE, [0.7])

    @pytest.mark.parametrize("eps", [0.6, -0.1, float("nan"), float("inf")])
    def test_tree_checks_epsilon_before_any_stage(self, eps, monkeypatch):
        # epsilon is checked once per tree, before any stage forms its
        # blocks; a valid one steps one chunk at each of the L stages
        calls = []
        stage_blocks = circuit._stage_blocks

        def counted(*args):
            calls.append(args[2])
            return stage_blocks(*args)

        monkeypatch.setattr(circuit, "_stage_blocks", counted)
        inst = build_instance(6, 5)
        with pytest.raises(ValueError, match="epsilon"):
            tree_profile(inst, PURE, eps)
        with pytest.raises(ValueError, match="epsilon"):
            experiments._average_entanglement(inst, PURE, eps)
        assert calls == []
        tree_profile(inst, PURE, 0.5)
        assert calls == list(range(inst.L))


class TestSectorOracle:
    # the closed form at control mixing eps > 0: each stage's coherence is
    # scaled by (1 - 2 eps), so no formula without eps can stand in for it
    @pytest.mark.parametrize("N, a", [(6, 5), (9, 2), (10, 3), (15, 2), (15, 7)])
    @pytest.mark.parametrize("kind", [PURE, MIXED_N, MIXED_FULL])
    def test_tree_leaves_match_closed_form(self, N, a, kind):
        inst = build_instance(N, a)
        for eps in (0.1, 0.25, 0.4, 0.5):
            leaf = tree_profile(inst, kind, eps).leaf_probs
            assert np.max(np.abs(leaf - sector_distribution(inst, kind, eps))) < 1e-12, eps

    @pytest.mark.parametrize("kind", [PURE, MIXED_N, MIXED_FULL])
    def test_mix_sweep_success_matches_closed_form(self, kind):
        inst = build_instance(15, 2)
        mask = extraction_success_mask(inst)
        epsilons = [0.0, 0.05, 0.125, 0.2, 0.3, 0.375, 0.45, 0.5]
        for row in mix_sweep(inst, kind, epsilons):
            expected = sector_distribution(inst, kind, row.epsilon)[mask].sum()
            assert abs(row.success_prob - expected) < 1e-12, row.epsilon

    def test_zero_mixing_is_the_oracle(self):
        for N, a in ((14, 3), (21, 2)):
            inst = build_instance(N, a)
            for kind in InitialStateKind:
                closed = sector_distribution(inst, kind, 0.0)
                assert np.max(np.abs(closed - reference_distribution(inst, kind))) < 1e-12


class TestCrossing:
    def test_early_stop_bound_agrees_with_full_average(self):
        inst = build_instance(10, 3)
        full = experiments._average_entanglement(inst, MIXED_FULL, 0.2)
        prof = tree_profile(inst, MIXED_FULL, epsilon=0.2)
        assert abs(full - prof.whole_run_average_entanglement()) < 1e-12

    def test_crossing_is_bracketed(self):
        # cheap instance: the located crossing separates positive from zero
        inst = build_instance(10, 3)
        x = find_entanglement_crossing(inst, MIXED_FULL, refine_tol=1e-3)
        assert 0.0 < x <= 0.5
        below = experiments._average_entanglement(inst, MIXED_FULL, max(x - 0.02, 0.0))
        above = experiments._average_entanglement(inst, MIXED_FULL, min(x + 0.02, 0.5))
        assert below >= 1e-10
        assert above < 1e-10 or x >= 0.5 - 1e-3

    @pytest.mark.parametrize(
        "bad",
        [{"refine_tol": v} for v in (0.0, -1e-3, np.nan, np.inf)]
        + [{"threshold": v} for v in (0.0, np.nan, np.inf)],
    )
    def test_bad_tolerance_rejected_before_any_tree(self, bad, monkeypatch):
        # a zero tolerance bisects forever, nan skips the refinement and an
        # infinite threshold reads every point as vanished
        def no_trees(*args, **kwargs):
            raise AssertionError("a tree was run before the tolerances were checked")

        monkeypatch.setattr(experiments, "_average_entanglement", no_trees)
        with pytest.raises(ValueError, match="finite and positive"):
            find_entanglement_crossing(build_instance(10, 3), MIXED_FULL, **bad)

    def test_refinement_stops_at_float_resolution(self):
        # a tolerance below the spacing of floats near the crossing ends
        # the bisection once the midpoint is an endpoint
        inst = build_instance(10, 3)
        x = find_entanglement_crossing(inst, MIXED_FULL, refine_tol=1e-300)
        assert experiments._average_entanglement(inst, MIXED_FULL, x) < 1e-10
        assert experiments._average_entanglement(inst, MIXED_FULL, np.nextafter(x, 0.0)) >= 1e-10


def inverse_pairs(n):
    """The bases a < a^-1 mod n of the pairs {a, a^-1} with a^2 != 1 mod n."""
    return [a for a in coprime_list(n) if a < pow(a, -1, n)]


def report_deviation(x, y):
    return max(
        max(abs(p.avg_logneg - q.avg_logneg), abs(p.mixedness - q.mixedness))
        for p, q in zip(x.reports, y.reports)
    )


class TestInverseSymmetry:
    @pytest.mark.parametrize("kind", [MIXED_N, MIXED_FULL])
    @pytest.mark.parametrize("n", [9, 14, 15])
    def test_mixed_trees_of_a_and_its_inverse_agree(self, n, kind):
        # a mixed work register commutes with U_a, and the a^-1 tree is then
        # the partial transpose over the work register of the a tree
        assert len(inverse_pairs(n)) == 2
        for a in inverse_pairs(n):
            for eps in (0.0, 0.25):
                x = tree_profile(build_instance(n, a), kind, eps)
                y = tree_profile(build_instance(n, pow(a, -1, n)), kind, eps)
                assert report_deviation(x, y) < 1e-12, (a, eps)
                assert np.array_equal(x.leaf_probs, y.leaf_probs), (a, eps)

    def test_pure_trees_of_a_and_its_inverse_differ(self):
        x = tree_profile(build_instance(14, 3), PURE)
        y = tree_profile(build_instance(14, 5), PURE)
        assert report_deviation(x, y) > 0.1


@pytest.fixture(scope="module")
def all_ensemble_trees():
    """Every tree_profile of the 4-bit ensemble per kind, keyed by (N, a)."""
    return {
        kind: {(inst.N, inst.a): tree_profile(inst, kind) for inst in ensemble_instances(4)}
        for kind in (PURE, MIXED_N, MIXED_FULL)
    }


class TestEnsemble:
    def test_instance_enumeration(self):
        instances = ensemble_instances(4)
        assert sorted({inst.N for inst in instances}) == [9, 10, 14, 15]
        assert len(instances) == 20

    def test_profile_shape_and_positivity(self):
        # the pure computer stays pure: every member entropy is round-off
        # below CLAMP_TOL, so every mixedness report is exactly 0
        reports = experiments.ensemble_profile(4, PURE)
        assert len(reports) == 16
        assert all(r.avg_logneg >= 0 for r in reports)
        assert max(r.avg_logneg for r in reports) > 0.1
        assert [r.mixedness for r in reports] == [0.0] * 16

    @pytest.mark.parametrize("kind", [PURE, MIXED_N, MIXED_FULL])
    def test_paired_profile_matches_plain_mean_of_every_tree(self, kind, all_ensemble_trees):
        # the slow path the pairing replaces: every (N, a), weight 1, in order
        results = list(all_ensemble_trees[kind].values())
        reports = experiments.ensemble_profile(4, kind)
        for i, r in enumerate(reports):
            e = sum(res.reports[i].avg_logneg for res in results) / len(results)
            s = sum(res.reports[i].mixedness for res in results) / len(results)
            if kind is PURE:
                assert (r.avg_logneg, r.mixedness) == (e, s), i
            else:
                assert abs(r.avg_logneg - e) < 1e-12 and abs(r.mixedness - s) < 1e-12, i

    @pytest.mark.parametrize(
        "kind, bases, steps", [(PURE, 20, 78), (MIXED_N, 13, 57), (MIXED_FULL, 13, 57)]
    )
    def test_mixed_kinds_run_one_tree_per_inverse_pair(self, kind, bases, steps, monkeypatch):
        # 7 of the 20 bases are the second member of a pair {a, a^-1}, and
        # the trees of one N share the stages their multipliers agree on:
        # a stage step is one stage of one node of the walk, counted by its
        # distinct (N, owners, stage)
        walk = experiments._tree_steps
        stepped, nodes = [], set()

        def recorded(group, k, epsilon):
            stepped.extend((inst.N, inst.a) for inst in group)
            for step in walk(group, k, epsilon):
                nodes.add((group[0].N, step[0], step[1] // 2))
                yield step

        monkeypatch.setattr(experiments, "_tree_steps", recorded)
        experiments.ensemble_profile(4, kind)
        assert len(stepped) == len(set(stepped)) == bases
        assert len(nodes) == steps
        if kind is not PURE:

            def pair(n, a):
                return n, frozenset((a, pow(a, -1, n)))

            every = {pair(inst.N, inst.a) for inst in ensemble_instances(4)}
            assert {pair(n, a) for n, a in stepped} == every

    @pytest.mark.parametrize(
        "bits, kind, bases, steps",
        [
            (4, PURE, 20, 78),
            (4, MIXED_N, 13, 57),
            (4, MIXED_FULL, 13, 57),
            (5, PURE, 50, 202),
            (5, MIXED_N, 28, 123),
            (5, MIXED_FULL, 28, 123),
        ],
    )
    def test_each_pair_steps_its_member_with_the_smaller_multipliers(
        self, bits, kind, bases, steps, monkeypatch
    ):
        # the representative rule alone, with no tree stepped: a stage step
        # is a distinct multiplier prefix of a group, one node of its trie;
        # of each pair {a, a^-1} the member with the lexicographically
        # smaller multipliers is stepped, and it counts once for each base
        def multipliers(n, a):
            L = 2 * (n - 1).bit_length()
            return tuple(pow(a, 1 << (L - 1 - s), n) for s in range(L))

        groups = []

        def recorded(group, k, epsilon):
            groups.append(group)
            return iter(())

        monkeypatch.setattr(experiments, "_tree_steps", recorded)
        experiments.ensemble_profile(bits, kind)
        stepped = [(inst.N, inst.a) for group in groups for inst in group]
        assert len(stepped) == len(set(stepped)) == bases
        assert len({group[0].N for group in groups}) == len(groups)
        prefixes = {(n, multipliers(n, a)[:s]) for n, a in stepped for s in range(1, 2 * bits + 1)}
        assert len(prefixes) == steps

        def representative(n, a):
            if kind is PURE:
                return n, a
            return n, min(a, pow(a, -1, n), key=lambda b: multipliers(n, b))

        instances = ensemble_instances(bits)
        counts = {}
        for inst in instances:
            tree = representative(inst.N, inst.a)
            counts[tree] = counts.get(tree, 0) + 1
        assert stepped == list(counts)

        # stub profiles report 1 for one tree and 0 for the rest, so the
        # ensemble mean reads that tree's count over the ensemble size
        points = 4 * bits
        for probe in stepped:

            def stub(group, k):
                return [
                    experiments.TreeResult(
                        reports=tuple(
                            experiments.StageReport(
                                i // 2, "post_gate", float((inst.N, inst.a) == probe), 0.0
                            )
                            for i in range(points)
                        ),
                        leaf_probs=np.zeros(1),
                    )
                    for inst in group
                ]

            monkeypatch.setattr(experiments, "_tree_profiles", stub)
            reports = experiments.ensemble_profile(bits, kind)
            expected = counts[probe] / len(instances)
            assert [r.avg_logneg for r in reports] == [expected] * points, probe
