import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totient_lab import (
    INT_CEILING,
    Convention,
    Factorization,
    coprime_numerators,
    factorize,
    gcd,
    is_prime,
    numbers_with_prime_support,
    primes_up_to,
    totient,
    totient_bruteforce,
    totient_from_factorization,
)
from reference_values import (
    factor_by_repeated_division,
    gcd_by_subtraction,
    small_primes,
    totient_by_gcd_count,
)

EULER = Convention.EULER
MODERN = Convention.MODERN


class TestGcd:
    @pytest.mark.parametrize(
        "a,b,expected", [(15, 24, 3), (7, 1, 1), (9450, 2160, 270)]
    )
    def test_examples(self, a, b, expected):
        assert gcd(a, b) == expected
        assert gcd_by_subtraction(a, b) == expected

    def test_one_zero_argument(self):
        assert gcd(0, 5) == 5
        assert gcd(5, 0) == 5

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd(0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gcd(-3, 6)

    @given(st.integers(0, 10**9), st.integers(0, 10**9), st.integers(1, 1000))
    def test_divides_both_and_is_greatest(self, a, b, k):
        if a == 0 and b == 0:
            a = 1
        g = gcd(a, b)
        assert a % g == 0 and b % g == 0
        if a % k == 0 and b % k == 0:
            assert g % k == 0


class TestFactorize:
    def test_worked_example_9450(self):
        assert factorize(9450).factors == ((2, 1), (3, 3), (5, 2), (7, 1))

    def test_one_has_empty_factors(self):
        assert factorize(1).factors == ()

    def test_360(self):
        expected = tuple(factor_by_repeated_division(360))
        assert expected == ((2, 3), (3, 2), (5, 1))
        assert factorize(360).factors == expected

    def test_at_ceiling(self):
        f = factorize(INT_CEILING)
        assert f.distinct_primes == (3, 5, 17, 257, 641, 65537, 6700417)

    @given(st.integers(1, 10**6))
    def test_roundtrip_against_division_oracle(self, n):
        f = factorize(n)
        assert list(f.factors) == factor_by_repeated_division(n)
        assert math.prod(p**e for p, e in f.factors) == n

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Factorization(12, ((3, 1), (2, 2)))  # primes out of order
        with pytest.raises(ValueError):
            Factorization(12, ((2, 2), (3, 0)))  # zero exponent
        with pytest.raises(ValueError):
            Factorization(16, ((4, 2),))  # composite "prime"
        with pytest.raises(ValueError):
            Factorization(10, ((2, 1), (3, 1)))  # wrong product
        with pytest.raises(ValueError):
            Factorization(1, ((2, 1),))  # n=1 must be the empty product

    def test_str_rendering(self):
        assert str(factorize(9450)) == "2 * 3^3 * 5^2 * 7"
        assert str(factorize(1)) == "1"
        assert str(factorize(7)) == "7"


class TestTotientFromFactorization:
    def test_24_euler(self):
        assert totient_from_factorization(Factorization(24, ((2, 3), (3, 1))), EULER) == 8

    def test_value_at_one_by_convention(self):
        one = Factorization(1, ())
        assert totient_from_factorization(one, EULER) == 0
        assert totient_from_factorization(one, MODERN) == 1

    def test_9450(self):
        assert totient_from_factorization(factorize(9450), EULER) == 2160


class TestTotient:
    @pytest.mark.parametrize("n,expected", [(360, 96), (97, 96), (1024, 512)])
    def test_examples(self, n, expected):
        assert totient(n, EULER) == expected

    def test_1024_matches_bruteforce(self):
        assert totient_bruteforce(1024) == 512

    def test_convention_at_one(self):
        assert totient(1, MODERN) == 1
        assert totient(1, EULER) == 0

    def test_default_convention_is_modern(self):
        assert totient(1) == 1

    def test_over_ceiling_rejected(self):
        with pytest.raises(OverflowError):
            totient(2**64, EULER)

    @given(st.integers(2, 10**6))
    def test_matches_factorization_route(self, n):
        assert totient(n, EULER) == totient_from_factorization(factorize(n), EULER)

    @given(st.integers(1, 2000))
    def test_matches_definitional_oracle(self, n):
        assert totient(n, EULER) == totient_by_gcd_count(n)

    @given(st.integers(2, 10**5))
    def test_conventions_agree_above_one(self, n):
        assert totient(n, MODERN) == totient(n, EULER)

    def test_prime_rule(self):
        for p in small_primes(10**4):
            assert totient(p, EULER) == p - 1

    def test_prime_power_rule(self):
        for p in small_primes(100):
            power = p
            k = 1
            while power <= INT_CEILING:
                assert totient(power, EULER) == (p - 1) * p ** (k - 1)
                if power > INT_CEILING // p:
                    break
                power *= p
                k += 1

    def test_product_rule_distinct_primes(self):
        primes = small_primes(300)
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                assert totient(p * q, EULER) == (p - 1) * (q - 1)

    def test_multiplicativity_random_coprime_pairs(self):
        rng = random.Random(20260809)
        checked = 0
        while checked < 1000:
            m = rng.randint(2, 10**5)
            n = rng.randint(2, 10**5)
            if math.gcd(m, n) != 1:
                continue
            assert totient(m * n, EULER) == totient(m, EULER) * totient(n, EULER)
            checked += 1


class TestTotientBruteforce:
    @pytest.mark.parametrize("n,expected", [(24, 8), (2, 1), (1, 0)])
    def test_examples(self, n, expected):
        assert totient_bruteforce(n) == expected


class TestCoprimeNumerators:
    def test_24(self):
        assert coprime_numerators(24) == [1, 5, 7, 11, 13, 17, 19, 23]

    def test_2(self):
        assert coprime_numerators(2) == [1]

    def test_12(self):
        assert coprime_numerators(12) == [1, 5, 7, 11]
        assert len(coprime_numerators(12)) == totient(12, EULER)

    @pytest.mark.parametrize("d", [0, 1])
    def test_below_two_rejected(self, d):
        with pytest.raises(ValueError):
            coprime_numerators(d)

    @given(st.integers(2, 3000))
    def test_length_order_and_coprimality(self, d):
        ks = coprime_numerators(d)
        assert ks == sorted(set(ks))
        assert all(1 <= k < d and math.gcd(k, d) == 1 for k in ks)
        assert len(ks) == totient(d, EULER)


class TestNumbersWithPrimeSupport:
    def test_support_2_3(self):
        assert numbers_with_prime_support({2, 3}, 100) == [6, 12, 18, 24, 36, 48, 54, 72, 96]

    def test_powers_of_two(self):
        assert numbers_with_prime_support({2}, 16) == [2, 4, 8, 16]

    def test_support_3_5(self):
        assert numbers_with_prime_support({3, 5}, 100) == [15, 45, 75]

    def test_family_third_rule(self):
        for n in numbers_with_prime_support({2, 3}, 2000):
            assert 3 * totient(n, EULER) == n

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            numbers_with_prime_support(set(), 100)

    def test_composite_member_rejected(self):
        with pytest.raises(ValueError):
            numbers_with_prime_support({2, 4}, 100)

    def test_no_member_fits(self):
        assert numbers_with_prime_support({11, 13}, 100) == []

    # The oracle trial-divides every n in 1..limit, which near the top of
    # the range can outlast hypothesis's default 200 ms deadline; the
    # deadline would time the oracle, not the function under test.
    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.sampled_from([2, 3, 5, 7, 11]), min_size=1, max_size=3),
           st.integers(1, 5000))
    def test_matches_scan_oracle(self, support, limit):
        def distinct_primes(n):
            return {p for p, _ in factor_by_repeated_division(n)}

        expected = [n for n in range(1, limit + 1) if distinct_primes(n) == support]
        assert numbers_with_prime_support(support, limit) == expected


class TestIsPrime:
    def test_small_values(self):
        assert [n for n in range(2, 60) if is_prime(n)] == small_primes(59)[:]

    def test_matches_sieve_to_1e5(self):
        limit = 10**5
        assert [n for n in range(limit + 1) if is_prime(n)] == primes_up_to(limit).tolist()

    def test_edges(self):
        assert not is_prime(0)
        assert not is_prime(1)
        assert is_prime(2)
        assert not is_prime(4)
