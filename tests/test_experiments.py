import numpy as np
import pytest

from mixshor import circuit, densemat, entanglement, experiments
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
    explicit_tree,
    measure_control,
    reference_stages,
    reference_trajectory,
    reference_tree_steps,
    run_stage_gates,
    sector_distribution,
)

PURE = InitialStateKind.PURE
MIXED_N = InitialStateKind.MIXED_N
MIXED_FULL = InitialStateKind.MIXED_FULL


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
                for point, _, states, _ in experiments._tree_steps(inst, kind, eps):
                    densemat.assert_valid_state(states, context=f"{kind} eps={eps} point {point}")

    @pytest.mark.parametrize("N, a", [(6, 5), (9, 2), (15, 2), (21, 2)])
    def test_tree_steps_equal_full_state_walk(self, N, a):
        # the block stage against plus_control, the full-state gates and
        # the full-state collapse, chunk by chunk at every sampling point:
        # path probabilities, states and outcome bits equal bitwise
        inst = build_instance(N, a)
        chunk = experiments._chunk_size(1 << inst.m)
        for kind in (PURE, MIXED_N, MIXED_FULL):
            for eps in (0.0, 0.25):
                steps = experiments._tree_steps(inst, kind, eps)
                reference = reference_tree_steps(inst, kind, eps, chunk)
                count = 0
                for got, expected in zip(steps, reference, strict=True):
                    where = (kind, eps, got[0])
                    assert got[0] == expected[0], where
                    for x, y in zip(got[1:], expected[1:]):
                        assert np.array_equal(x, y), where
                    count += 1
                assert count >= 2 * inst.L

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
                    for point, probs, states, _ in experiments._tree_steps(inst, kind, eps):
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
            (p0, kept0), (p1, kept1) = measure(block0, block1)
            return (p0 * 0.9, kept0), (p1 * 0.9, kept1)

        monkeypatch.setattr(circuit, "measure_control", leaky)
        inst = build_instance(15, 2)
        callers = (
            lambda: tree_profile(inst, PURE),
            lambda: tree_leaf_distribution(inst, PURE),
            lambda: success_probability_exact(inst, PURE),
            lambda: experiments._average_entanglement(inst, PURE, 0.0, stop_above=CLAMP_TOL),
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
        for point, probs, states, c in experiments._tree_steps(inst, kind, eps):
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
        steps = experiments._tree_steps(inst, PURE, 0.0)
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

        monkeypatch.setattr(experiments, "_run_stack", no_runs)
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
                        experiments._run_stack(inst, kind, cfg, uniforms)
                        where = (kind, channel, exclude, prob)
                        assert sorted(uniforms.read) == list(range(draws)), where
                        with pytest.raises((IndexError, ValueError)):
                            experiments._run_stack(inst, kind, cfg, rng.random((2, draws - 1)))

    def test_trajectory_returns_valid_outcome(self):
        inst = build_instance(10, 3)
        for run in range(5):
            c = run_trajectory(inst, MIXED_N, None, experiments._run_rng(1, run))
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
                            streams = [experiments._run_rng(seed, run) for run in range(runs)]
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
        uniforms = np.stack([experiments._run_rng(seed, run).random(draws) for run in range(runs)])
        got = np.zeros(runs, dtype=np.int64)
        for s, (bit, sigma) in enumerate(experiments._run_steps(inst, MIXED_N, cfg, uniforms)):
            densemat.assert_valid_state(sigma, context=f"stage {s}")
            got += bit << s
        expected = []
        for run in range(runs):
            rng = experiments._run_rng(seed, run)
            stages = reference_stages(inst, MIXED_N, cfg, rng, check=densemat.assert_valid_state)
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
                        streams = [experiments._run_rng(seed, run) for run in range(runs)]
                        uniforms = np.stack([rng.random(draws) for rng in streams])
                        steps = experiments._run_steps(inst, kind, cfg, uniforms)
                        references = [
                            reference_stages(inst, kind, cfg, experiments._run_rng(seed, run))
                            for run in range(runs)
                        ]
                        for s, (bits, sigma) in enumerate(steps):
                            for run, reference in enumerate(references):
                                bit, expected = next(reference)
                                where = (kind, channel, prob, exclude, s, run)
                                assert bits[run] == bit, where
                                assert np.max(np.abs(sigma[run] - expected)) <= 1e-12, where
                        assert s == inst.L - 1

    def test_runs_across_a_chunk_boundary_match_runs_stepped_alone(self, monkeypatch):
        # 37 runs at d = 32 step as chunks of 32 and 5; each run's outcome
        # is the one it gets stepped alone, B = 1, from its own stream
        inst = build_instance(15, 2)
        runs, seed = 37, 23
        stacks = []
        run_stack = experiments._run_stack

        def recorded(inst, kind, cfg, uniforms):
            stacks.append(uniforms.shape[0])
            return run_stack(inst, kind, cfg, uniforms)

        monkeypatch.setattr(experiments, "_run_stack", recorded)
        for kind in (PURE, MIXED_N):
            for channel in (PAULI, MEASUREMENT):
                for prob in (0.3, 1.0):
                    cfg = NoiseConfig(channel, prob)
                    draws = experiments._draws_per_run(inst, cfg)
                    streams = [experiments._run_rng(seed, run) for run in range(runs)]
                    alone = [run_stack(inst, kind, cfg, rng.random((1, draws)))[0] for rng in streams]
                    got = experiments._sweep_outcomes(inst, kind, [cfg], runs, seed)[0]
                    assert stacks == [32, 5]
                    stacks.clear()
                    assert list(got) == alone, (kind, channel, prob)

    def test_grid_points_share_each_runs_stream(self, monkeypatch):
        # each chunk's streams are drawn once for the whole grid; every point,
        # the noiseless ones reading only the leading columns, gets the
        # outcomes it gets alone
        inst = build_instance(15, 2)
        configs = [NoiseConfig(PAULI, 0.3), None, NoiseConfig(PAULI, 0.0), NoiseConfig(PAULI, 1.0)]
        alone = [experiments._sweep_outcomes(inst, PURE, [cfg], 13, 5)[0] for cfg in configs]
        built = []
        run_rng = experiments._run_rng

        def counted(seed, run):
            built.append(run)
            return run_rng(seed, run)

        monkeypatch.setattr(experiments, "_run_rng", counted)
        together = experiments._sweep_outcomes(inst, PURE, configs, 13, 5)
        assert built == list(range(13))
        assert np.array_equal(together, alone)

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

    @pytest.mark.parametrize("kind, calls", [(PURE, 20), (MIXED_N, 13), (MIXED_FULL, 13)])
    def test_mixed_kinds_run_one_tree_per_inverse_pair(
        self, kind, calls, all_ensemble_trees, monkeypatch
    ):
        # 7 of the 20 bases are the larger member of a pair {a, a^-1}
        run = []

        def recorded(inst, k, epsilon=0.0):
            run.append((inst.N, inst.a))
            return all_ensemble_trees[k][(inst.N, inst.a)]

        monkeypatch.setattr(experiments, "tree_profile", recorded)
        experiments.ensemble_profile(4, kind)
        assert len(run) == calls
        if kind is not PURE:
            assert all(a <= pow(a, -1, n) for n, a in run)
