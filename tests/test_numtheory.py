import math
from fractions import Fraction

import pytest

from mixshor import numtheory
from mixshor.numtheory import (
    coprime_list,
    extract_period,
    multiplicative_order,
    permutation_cycles,
    semiprime_list,
)

from reference import convergents


class TestBasics:
    def test_multiplicative_order(self):
        assert multiplicative_order(2, 15) == 4
        assert multiplicative_order(2, 21) == 6
        assert multiplicative_order(4, 15) == 2

    def test_order_requires_coprimality(self):
        with pytest.raises(ValueError):
            multiplicative_order(6, 15)


class TestConvergents:
    def test_three_quarters(self):
        assert convergents(192, 256) == [Fraction(0), Fraction(1), Fraction(3, 4)]

    def test_one_half(self):
        assert convergents(128, 256) == [Fraction(0), Fraction(1, 2)]

    def test_zero(self):
        assert convergents(0, 256) == [Fraction(0)]

    def test_last_equals_input_reduced(self):
        for c in range(0, 256, 7):
            assert convergents(c, 256)[-1] == Fraction(c, 256)

    def test_denominators_grow_and_alternate(self):
        # denominators strictly increase from the second step on; the
        # convergents alternate around the target value
        for c, t in ((192, 256), (77, 256), (411, 1024), (613, 1024)):
            convs = convergents(c, t)
            dens = [f.denominator for f in convs]
            assert all(b > a for a, b in zip(dens[1:], dens[2:]))
            target = Fraction(c, t)
            for i, f in enumerate(convs[:-1]):
                assert (f <= target) if i % 2 == 0 else (f >= target)


class TestExtractPeriod:
    def test_recovers_period(self):
        assert extract_period(192, 256, 15, 2) == 4

    def test_rejects_wrong_candidate(self):
        # c = 128 leads to k = 2 which fails 2**2 = 1 (mod 15)
        assert extract_period(128, 256, 15, 2) is None

    def test_zero_outcome_carries_nothing(self):
        assert extract_period(0, 256, 15, 2) is None

    def test_exact_phase_multiples(self):
        # c = j * (t / r) with gcd(j, r) = 1 always recovers r when r | t
        for N, a in ((15, 2), (15, 7), (16 - 1, 4)):
            r = multiplicative_order(a, N)
            t = 256
            assert t % r == 0
            for j in range(1, r):
                if math.gcd(j, r) == 1:
                    assert extract_period(j * t // r, t, N, a) == r

    def test_success_requires_exact_order(self):
        # a convergent denominator that is a proper multiple of r is
        # returned by extraction but counted as failure by the == r rule
        r = multiplicative_order(2, 15)
        for c in range(256):
            got = extract_period(c, 256, 15, 2)
            if got is not None:
                assert pow(2, got, 15) == 1
                assert got % r == 0

    def test_matches_convergent_rule_on_every_outcome(self):
        # the integer denominators against the rule read off convergents():
        # the largest denominator below N, accepted when a^k = 1 (mod N),
        # for every (N, a, c) of the composite N in 6..31 at t = 2^(2n)
        def convergent_rule(c, t, n, a):
            best = None
            for frac in convergents(c, t):
                if frac.denominator < n:
                    best = frac.denominator
            return best if best is not None and pow(a, best, n) == 1 else None

        checked = 0
        for N in range(6, 32):
            if len(numtheory.prime_factors(N)) < 2:
                continue
            t = 1 << 2 * (N - 1).bit_length()
            for a in coprime_list(N):
                for c in range(t):
                    assert extract_period(c, t, N, a) == convergent_rule(c, t, N, a), (N, a, c)
                checked += t
        assert checked == 114432

    def test_outcome_outside_range_rejected(self):
        for c, t in ((-1, 256), (256, 256), (0, 0)):
            with pytest.raises(ValueError):
                extract_period(c, t, 15, 2)


class TestPermutationCycles:
    def test_explicit_cycles_for_15(self):
        cycles = permutation_cycles(2, 15, 4)
        as_sets = {frozenset(c) for c in cycles}
        assert frozenset({1, 2, 4, 8}) in as_sets
        assert frozenset({3, 6, 12, 9}) in as_sets
        assert frozenset({5, 10}) in as_sets
        assert frozenset({7, 14, 13, 11}) in as_sets
        assert frozenset({0}) in as_sets
        assert frozenset({15}) in as_sets
        assert len(cycles) == 6

    def test_eigenstate_count_bound(self):
        # elements in cycles of length r must be at least (p-1)(q-1)
        in_length_4 = sum(len(c) for c in permutation_cycles(2, 15, 4) if len(c) == 4)
        assert in_length_4 == 12
        assert in_length_4 >= (3 - 1) * (5 - 1)

    def test_self_inverse_base(self):
        # a = N - 1 squares to 1, so no cycle exceeds length 2
        for N in (9, 15, 21):
            cycles = permutation_cycles(N - 1, N, (N - 1).bit_length())
            assert max(len(c) for c in cycles) <= 2

    def test_partition_covers_domain(self):
        cycles = permutation_cycles(2, 21, 5)
        assert sum(len(c) for c in cycles) == 32

    def test_cycle_of_one_has_length_r(self):
        for N in (9, 10, 14, 15, 21):
            for a in coprime_list(N):
                n = (N - 1).bit_length()
                (cycle_of_one,) = [c for c in permutation_cycles(a, N, n) if 1 in c]
                assert len(cycle_of_one) == multiplicative_order(a, N)


class TestEnumerations:
    def test_semiprimes_four_bits(self):
        assert semiprime_list(4) == [9, 10, 14, 15]

    def test_semiprimes_five_bits(self):
        assert semiprime_list(5) == [21, 22, 25, 26]

    def test_semiprimes_three_bits(self):
        assert semiprime_list(3) == [4, 6]

    def test_coprime_lists(self):
        assert coprime_list(15) == [2, 4, 7, 8, 11, 13, 14]
        assert coprime_list(9) == [2, 4, 5, 7, 8]
        assert coprime_list(4) == [3]

    def test_primes_and_factors_match_brute_force(self):
        for v in range(1001):
            prime = v >= 2 and all(v % d for d in range(2, v))
            assert numtheory.is_prime(v) == prime, v
            if v >= 2:
                factors = numtheory.prime_factors(v)
                assert factors == sorted(factors) and math.prod(factors) == v, v
                assert all(all(f % d for d in range(2, f)) for f in factors), v
        with pytest.raises(ValueError):
            numtheory.prime_factors(1)
