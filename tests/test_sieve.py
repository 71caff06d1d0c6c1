import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from totient_lab import (
    SIEVE_LIMIT,
    Convention,
    TotientTable,
    bench_totient_methods,
    cumulative_counts,
    primes_up_to,
    totient,
    totient_sieve,
)
from totient_lab.sieve import BENCH_BRUTEFORCE_BOUND
from reference_values import (
    CUMULATIVE_ERRATA,
    CUMULATIVE_PRINTED,
    ROOT_EDGE_SIZES,
    TOTIENT_1_TO_100,
    sampled_entries,
    small_primes,
    totient_by_gcd_count,
)

EULER = Convention.EULER
MODERN = Convention.MODERN


@pytest.fixture(scope="module")
def table_5000():
    return totient_sieve(5000, EULER)


class TestTotientSieve:
    def test_reference_table_to_100(self):
        assert totient_sieve(100, EULER).values.tolist() == TOTIENT_1_TO_100

    def test_progression_to_12(self):
        assert totient_sieve(12, EULER).values.tolist() == [0, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]

    def test_spot_values(self):
        table = totient_sieve(100, EULER)
        assert table.phi(40) == 16
        assert table.phi(100) == 40

    def test_single_entry_by_convention(self):
        assert totient_sieve(1, MODERN).values.tolist() == [1]
        assert totient_sieve(1, EULER).values.tolist() == [0]

    def test_prime_entries(self):
        table = totient_sieve(2000, MODERN)
        for p in small_primes(2000):
            assert table.phi(p) == p - 1

    def test_matches_closed_form_to_1e5(self):
        values = totient_sieve(10**5, EULER).values.tolist()
        for n in range(1, 10**5 + 1):
            assert values[n - 1] == totient(n, EULER)

    def test_divisor_sum_identity_to_1e4(self):
        # sum of totient(d) over the divisors d of n equals n (MODERN,
        # since the d = 1 term must contribute 1)
        limit = 10**4
        values = totient_sieve(limit, MODERN).values
        acc = np.zeros(limit + 1, dtype=np.uint64)
        for d in range(1, limit + 1):
            acc[d::d] += values[d - 1]
        assert np.array_equal(acc[1:], np.arange(1, limit + 1, dtype=np.uint64))

    def test_values_length_and_readonly(self):
        table = totient_sieve(50, EULER)
        assert len(table.values) == 50
        with pytest.raises(ValueError):
            table.values[0] = 99

    def test_phi_bounds_checked(self):
        table = totient_sieve(10, EULER)
        with pytest.raises(ValueError):
            table.phi(0)
        with pytest.raises(ValueError):
            table.phi(11)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            totient_sieve(0)

    def test_above_limit_rejected(self):
        with pytest.raises(ValueError, match="limit"):
            totient_sieve(SIEVE_LIMIT + 1)

    @given(n=st.integers(1, 5000))
    def test_entries_match_core(self, table_5000, n):
        assert table_5000.phi(n) == totient(n, EULER)

    @pytest.mark.parametrize("convention", [EULER, MODERN])
    def test_matches_closed_form_around_prime_squares(self, convention):
        closed_form = [totient(n, convention) for n in range(1, ROOT_EDGE_SIZES[-1] + 1)]
        for max_n in ROOT_EDGE_SIZES:
            values = totient_sieve(max_n, convention).values.tolist()
            bad = [n for n in range(1, max_n + 1) if values[n - 1] != closed_form[n - 1]]
            assert not bad, f"max_n={max_n}: first wrong entry n={bad[0]}"

    def test_matches_closed_form_at_sampled_entries_of_1e7(self):
        table = totient_sieve(10**7, MODERN)
        for n in sampled_entries(10**7, seed=20071):
            assert table.phi(n) == totient(n, MODERN), f"n={n}"


def weighted_sum(values) -> int:
    """Sum of n * values[n - 1] over n = 1.., reduced mod 2**64."""
    return sum(n * v for n, v in enumerate(values, start=1)) % 2**64


class TestTableExport:
    def test_checksum_mod_2_64(self):
        assert totient_sieve(100, EULER).checksum() == weighted_sum(TOTIENT_1_TO_100)
        # values near 2**64 make the uint64 products and sum wrap
        big = [2**64 - 1, 2**63 + 3, 2**62 + 7]
        table = TotientTable(3, EULER, np.array(big, dtype=np.uint64))
        assert table.checksum() == weighted_sum(big)

    def test_checksum_sees_swapped_values(self):
        values = np.array(TOTIENT_1_TO_100, dtype=np.uint64)
        values[[5, 6]] = values[[6, 5]]  # phi(6) = 2 and phi(7) = 6 trade places
        swapped = TotientTable(100, EULER, values)
        assert swapped.values.sum() == sum(TOTIENT_1_TO_100)
        assert swapped.checksum() != totient_sieve(100, EULER).checksum()


class TestCumulativeCounts:
    def test_first_three_rows(self):
        rows = cumulative_counts([10, 20, 30])
        assert [r.fraction_count for r in rows] == [31, 127, 277]
        assert [r.max_denominator for r in rows] == [10, 20, 30]

    def test_row_100(self):
        assert cumulative_counts([100])[0].fraction_count == 3043

    def test_trivial_denominator_2(self):
        assert cumulative_counts([2])[0].fraction_count == 1

    def test_checkpoint_1_counts_nothing(self):
        assert cumulative_counts([1])[0].fraction_count == 0

    def test_matches_gcd_count_oracle_by_tens(self):
        # The in-repo fixture cumulative.csv preserves the printed table verbatim,
        # where the 80 and 90 rows are off by 10 from the column sums of
        # the totient table; the definitional sums below are authoritative,
        # and they equal the printed rows with CUMULATIVE_ERRATA applied.
        checkpoints = list(range(10, 101, 10))
        rows = cumulative_counts(checkpoints)
        expected = [
            sum(totient_by_gcd_count(k) for k in range(2, d + 1))
            for d in checkpoints
        ]
        assert expected == [
            CUMULATIVE_ERRATA.get(d, printed)
            for d, printed in zip(checkpoints, CUMULATIVE_PRINTED)
        ]
        assert [r.fraction_count for r in rows] == expected
        assert [r.fraction_count for r in rows] != CUMULATIVE_PRINTED

    def test_nondecreasing(self):
        rows = cumulative_counts(list(range(1, 300)))
        counts = [r.fraction_count for r in rows]
        assert counts == sorted(counts)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cumulative_counts([])

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            cumulative_counts([10, 5])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            cumulative_counts([10, 10])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            cumulative_counts([0, 3])


class TestBench:
    def test_all_methods_agree_small(self):
        report = bench_totient_methods(300)
        assert [r.method for r in report.results] == [
            "bruteforce-oracle",
            "per-n-factorization",
            "sieve",
        ]
        assert all(r.executed for r in report.results)
        assert report.checksums_agree()
        assert len(set(report.executed_checksums())) == 1

    def test_trivial_run(self):
        report = bench_totient_methods(1)
        assert report.checksums_agree()
        assert report.executed_checksums() == [0, 0, 0]  # EULER value at 1

    def test_bruteforce_skipped_above_bound(self):
        report = bench_totient_methods(BENCH_BRUTEFORCE_BOUND + 1)
        by_method = {r.method: r for r in report.results}
        oracle = by_method["bruteforce-oracle"]
        assert not oracle.executed
        assert oracle.checksum is None
        assert "bound" in oracle.skip_reason
        assert by_method["per-n-factorization"].executed
        assert by_method["sieve"].executed
        assert report.checksums_agree()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            bench_totient_methods(0)

    def test_above_every_bound_rejected(self):
        # every method would be skipped, so no checksums could agree
        with pytest.raises(ValueError, match="every method's bound"):
            bench_totient_methods(SIEVE_LIMIT + 1)

    def test_checksum_value(self):
        report = bench_totient_methods(100)
        assert set(report.executed_checksums()) == {weighted_sum(TOTIENT_1_TO_100)}


class TestPrimesUpTo:
    def test_matches_reference_sieve(self):
        assert primes_up_to(2000).tolist() == small_primes(2000)

    def test_degenerate(self):
        assert primes_up_to(1).tolist() == []
