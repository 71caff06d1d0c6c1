from math import isqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from totient_lab import (
    SIEVE_LIMIT,
    Convention,
    TotientTable,
    bench_totient_methods,
    count_by_exclusion,
    cumulative_counts,
    primes_up_to,
    totient,
    totient_sieve,
)
from totient_lab import sieve
from totient_lab.sieve import (
    BENCH_BRUTEFORCE_BOUND,
    _BLOCK,
    _ranges,
    _smooth_blocks,
    _totient_blocks,
)
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
        assert [(lo, v.tolist()) for lo, v in _totient_blocks(1, MODERN)] == [(1, [1])]
        assert [(lo, v.tolist()) for lo, v in _totient_blocks(1, EULER)] == [(1, [0])]

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


INT32_MAX = 2**31 - 1


@st.composite
def int32_runs(draw) -> tuple[list[int], list[int], list[int]]:
    """(first, counts, step) for up to 8 runs, empty runs included, every
    value of which fits int32: the last ones may reach 2**31 - 1."""
    first, counts, step = [], [], []
    for _ in range(draw(st.integers(0, 8))):
        c, s = draw(st.integers(0, 6)), draw(st.integers(1, 2**20))
        last = INT32_MAX - max(c - 1, 0) * s
        first.append(draw(st.one_of(st.just(last), st.integers(0, last))))
        counts.append(c)
        step.append(s)
    return first, counts, step


class TestRanges:
    """_ranges against a double loop over the runs, in the dtype of counts."""

    @staticmethod
    def double_loop(first, counts, step) -> list[int]:
        return [f + j * s for f, c, s in zip(first, counts, step) for j in range(c)]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("first,counts,step", [
        ([], [], []),
        ([5], [0], [3]),
        ([0, 7, 9, 2], [0, 3, 0, 1], [4, 1, 1, 6]),
        ([3, 100, 5, 11], [4, 0, 2, 0], [2, 17, 9, 1]),
        # int32 runs whose last value is 2**31 - 1
        ([INT32_MAX - 3, 0, INT32_MAX, INT32_MAX - 2 * 2**30], [4, 2, 1, 3], [1, 2**30, 5, 2**30]),
    ])
    def test_matches_a_double_loop(self, dtype, first, counts, step):
        first, counts, step = (np.array(x, dtype=dtype) for x in (first, counts, step))
        stepped, unit = _ranges(first, counts, step), _ranges(first, counts)
        assert stepped.dtype == unit.dtype == dtype
        assert stepped.tolist() == self.double_loop(first.tolist(), counts.tolist(), step.tolist())
        assert unit.tolist() == self.double_loop(first.tolist(), counts.tolist(), [1] * len(first))

    @given(int32_runs())
    def test_int32_runs_match_a_double_loop(self, runs):
        first, counts, step = (np.array(x, dtype=np.int32) for x in runs)
        assert _ranges(first, counts, step).tolist() == self.double_loop(*runs)
        unit = [min(f, INT32_MAX - max(c - 1, 0)) for f, c in zip(runs[0], runs[1])]
        assert _ranges(np.array(unit, dtype=np.int32), counts).tolist() == self.double_loop(
            unit, runs[1], [1] * len(unit))


def whole_table_totients(max_n: int, convention: Convention) -> np.ndarray:
    """The earlier whole-table kernel, kept as an oracle for the blocks:
    value -= value // p over the stride of each prime p <= isqrt(max_n),
    then value[j * p] -= value[j] for each cofactor j and each prime
    p > isqrt(max_n) with j * p <= max_n."""
    phi = np.arange(max_n + 1, dtype=np.uint64)
    primes = primes_up_to(max_n)
    root = isqrt(max_n)
    for p in primes[primes <= root].tolist():
        stride = phi[p::p]
        stride -= stride // p
    large = primes[primes > root]
    for j in range(1, max_n // (root + 1) + 1):
        ps = large[: np.searchsorted(large, max_n // j, side="right")]
        phi[ps * j] -= phi[j]
    phi[1] = convention.value_at_one
    return phi[1:]


def first_difference(values: np.ndarray, expected: np.ndarray) -> str | None:
    """None when the tables are equal, else where they first differ."""
    if len(values) != len(expected):
        return f"length {len(values)} != {len(expected)}"
    bad = np.flatnonzero(values != expected)
    if bad.size:
        n = int(bad[0]) + 1
        return f"n={n}: {values[n - 1]} != {expected[n - 1]}"
    return None


#: Table sizes at the seams of the blocks, and on both sides of q*q for the
#: primes q nearest isqrt(_BLOCK), where the primes <= isqrt(max_n) gain one
#: while the table is one block (q = 353, 359) or two (q = 367, 373).
BLOCK_EDGE_SIZES = sorted(
    {_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 1, 2 * _BLOCK + 1}
    | {q * q + d for q in (353, 359, 367, 373) for d in (-1, 0, 1)}
)


def smooth_values(max_n: int) -> np.ndarray:
    """The values _smooth_blocks promises, from whole_table_totients: totient(n)
    at the n with no odd prime factor above isqrt(max_n), and P * totient(n / P)
    at the n with one, P."""
    phi = whole_table_totients(max_n, MODERN)
    expected = phi.copy()
    primes = primes_up_to(max_n)
    large = primes[(primes > isqrt(max_n)) & (primes != 2)]
    for j in range(1, max_n // (isqrt(max_n) + 1) + 1):
        ps = large[: np.searchsorted(large, max_n // j, side="right")]
        expected[ps * j - 1] = ps.astype(np.uint64) * phi[j - 1]
    return expected


class TestSmoothBlocks:
    # 1..40 (at 2 and 3, 2 is above the root and still sieved); around p^2 for
    # primes p, where the root gains a prime; around the block edges
    @pytest.mark.parametrize("max_n", sorted(
        {*range(1, 41), 3 * 10**5}
        | {r * r + d for r in (349, 547, 1009) for d in (-1, 0, 1)}
        | {m * _BLOCK + d for m in (1, 2) for d in (-1, 0, 1, 2)}))
    def test_values_and_primes_match_the_whole_table(self, max_n):
        blocks = list(_smooth_blocks(max_n))
        assert [lo for lo, _, _ in blocks] == list(range(1, max_n + 1, _BLOCK))
        values = np.concatenate([values for _, values, _ in blocks])
        assert first_difference(values, smooth_values(max_n)) is None
        primes = primes_up_to(max_n)
        expected = primes[(primes > isqrt(max_n)) & (primes != 2)]
        for lo, values, block_primes in blocks:
            inside = expected[(expected >= lo) & (expected < lo + len(values))]
            assert block_primes.tolist() == inside.tolist(), f"block at {lo}"


class TestTotientBlocks:
    @pytest.mark.parametrize("convention", [EULER, MODERN])
    def test_matches_whole_table_kernel_to_2000(self, convention):
        for max_n in range(1, 2001):
            values = totient_sieve(max_n, convention).values
            difference = first_difference(values, whole_table_totients(max_n, convention))
            assert difference is None, f"max_n={max_n}: {difference}"

    @pytest.mark.parametrize("max_n", BLOCK_EDGE_SIZES)
    def test_blocks_match_whole_table_kernel_at_block_edges(self, max_n):
        blocks = list(_totient_blocks(max_n, MODERN))
        assert [lo for lo, _ in blocks] == list(range(1, max_n + 1, _BLOCK))
        assert all(len(values) == _BLOCK for _, values in blocks[:-1])
        values = np.concatenate([values for _, values in blocks])
        expected = whole_table_totients(max_n, MODERN)
        assert first_difference(values, expected) is None
        table = totient_sieve(max_n, MODERN)
        assert first_difference(table.values, expected) is None
        assert not table.values.flags.writeable

    @pytest.mark.parametrize("max_n", [1, 2, 3, 4, 50, 4099, 3 * 4099 + 1, 10**5 + 3, 300_000])
    def test_matches_whole_table_kernel_with_other_block_sizes(self, monkeypatch, max_n):
        # 4099 is prime, so no stride lines up with the seams; a block of
        # isqrt(max_n) + 1 entries holds every cofactor j <= J, and blocks
        # of 1, 7 and 64 entries hold few of them (J = 547 at 300,000).  The
        # tiny blocks run where they make at most 5,000 blocks, about 1.5 s.
        expected = whole_table_totients(max_n, EULER)
        tiny = [block for block in (1, 7, 64) if max_n // block <= 5000]
        for block in (4099, isqrt(max_n) + 1, *tiny):
            monkeypatch.setattr(sieve, "_BLOCK", block)
            difference = first_difference(totient_sieve(max_n, EULER).values, expected)
            assert difference is None, f"_BLOCK={block}: {difference}"

    def test_prime_count_bound_holds(self):
        primes = primes_up_to(10**6)
        for x in [*range(2001), *range(2001, 10**6 + 1, 997)]:
            count = int(np.searchsorted(primes, x, side="right"))
            assert sieve._prime_count_bound(x) >= count, f"x={x}"

    def test_matches_closed_form_at_sampled_entries_of_3e6(self):
        table = totient_sieve(3 * 10**6, MODERN)
        for n in sampled_entries(3 * 10**6, seed=1994):
            assert table.phi(n) == totient(n, MODERN), f"n={n}"

    def test_refused_when_the_first_block_is_asked_for(self):
        blocks = _totient_blocks(0, MODERN)
        with pytest.raises(ValueError, match="must be >= 1"):
            next(blocks)
        with pytest.raises(ValueError, match="limit"):
            next(_totient_blocks(SIEVE_LIMIT + 1, MODERN))

    @pytest.mark.parametrize("D", [2 * _BLOCK - 2, 2 * _BLOCK, 2 * _BLOCK + 1, 2 * _BLOCK + 2])
    def test_exclusion_count_with_half_of_d_at_a_block_seam(self, D):
        report = count_by_exclusion(D)
        assert report.first_broken_identity() is None
        phi = whole_table_totients(D, EULER)
        k = np.arange(2, D // 2 + 1, dtype=np.uint64)
        assert report.excluded == int(np.dot(D // k - 1, phi[1:D // 2]))
        assert report.count_by_totient_sum == int(phi.sum())

    @pytest.mark.parametrize("block,D", [(1, 4099), (7, 30_000), (64, 300_000)])
    def test_count_routes_with_tiny_blocks(self, monkeypatch, block, D):
        # the k <= K = D // (isqrt(D // 2) + 1) of the exclusion count run
        # past the first block (K = 89, 243 and 774), as do the cofactors of
        # _totient_sum's sieve prefix; at most 5,000 blocks each
        monkeypatch.setattr(sieve, "_BLOCK", block)
        phi = whole_table_totients(D, EULER)
        running = np.cumsum(phi)
        k = np.arange(2, D // 2 + 1, dtype=np.uint64)
        report = count_by_exclusion(D)
        assert report.excluded == int(np.dot(D // k - 1, phi[1:D // 2]))
        assert report.count_by_totient_sum == int(running[-1])  # from _totient_sum
        checkpoints = sorted({2, block + 1, D // 2, D})
        rows = cumulative_counts(checkpoints)
        assert [r.fraction_count for r in rows] == [int(running[d - 1]) for d in checkpoints]

    def test_cumulative_counts_across_block_seams(self):
        checkpoints = [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK]
        running = np.cumsum(whole_table_totients(checkpoints[-1], EULER))
        rows = cumulative_counts(checkpoints)
        assert [r.max_denominator for r in rows] == checkpoints
        assert [r.fraction_count for r in rows] == [int(running[d - 1]) for d in checkpoints]


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

    def test_above_every_bound_rejected(self):
        # every method would be skipped, so no checksums could agree
        with pytest.raises(ValueError, match="every method's bound"):
            bench_totient_methods(SIEVE_LIMIT + 1)

    def test_checksum_value(self):
        report = bench_totient_methods(100)
        assert set(report.executed_checksums()) == {weighted_sum(TOTIENT_1_TO_100)}

    @pytest.mark.parametrize("max_n", [131_073, 2_000_000])
    def test_sieve_route_sums_blocks_to_the_table_checksum(self, max_n):
        # the route reads the sieve's blocks, a block past the first at
        # 131,073, and holds no table
        sieve_route = bench_totient_methods(max_n).results[-1]
        assert sieve_route.method == "sieve"
        assert sieve_route.checksum == totient_sieve(max_n, EULER).checksum()


class TestPrimesUpTo:
    def test_matches_reference_sieve(self):
        assert primes_up_to(2000).tolist() == small_primes(2000)

    def test_degenerate(self):
        assert primes_up_to(0).tolist() == []
        assert primes_up_to(1).tolist() == []
