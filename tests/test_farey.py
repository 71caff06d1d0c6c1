import dataclasses
import itertools
import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import totient_lab.farey as farey
from totient_lab import (
    ENUMERATION_BOUND,
    FAREY_MATERIALIZE_BOUND,
    SIEVE_LIMIT,
    Convention,
    FareyCountReport,
    count_by_enumeration,
    count_by_exclusion,
    count_by_totient_sum,
    count_reducible,
    farey_sequence,
    iter_farey_pairs,
    iter_farey_sequence,
)
from totient_lab.farey import _farey_blocks, _farey_windows, _totient_sum
from totient_lab.sieve import _BLOCK, _totient_blocks
from reference_values import totient_by_gcd_count
from test_sieve import whole_table_totients


def block_pairs(max_denominator: int) -> list[tuple[int, int]]:
    """The terms of _farey_blocks as (numerator, denominator) ints."""
    return [
        pair
        for num, den in _farey_blocks(max_denominator)
        for pair in zip(num.tolist(), den.tolist())
    ]


#: Every D in 3..1000 where the window count of _farey_blocks changes.
WINDOW_COUNT_CHANGES = [d for d in range(3, 1001) if _farey_windows(d) != _farey_windows(d - 1)]


def farey_by_sorting(max_denominator: int) -> list[Fraction]:
    """Sort-based oracle: enumerate, deduplicate by value, sort exactly."""
    values = {
        Fraction(a, b)
        for b in range(2, max_denominator + 1)
        for a in range(1, b)
    }
    return sorted(values)


def sieve_count_by_totient_sum(max_denominator: int) -> int:
    """The earlier count_by_totient_sum, kept as an oracle for _totient_sum:
    the sieve's blocks of 1..D summed one at a time (totient(1) = 0)."""
    return sum(
        int(values.sum(dtype=np.uint64))
        for _, values in _totient_blocks(max_denominator, Convention.EULER)
    )


def per_entry_excluded(max_denominator: int) -> int:
    """The earlier exclusion sum, kept as an oracle for count_by_exclusion's
    runs: per block of the sieve of 1..D/2, floor(D/k) - 1 for every k by
    one floor division, and one dot with the block's totients."""
    D, excluded = max_denominator, 0
    for lo, phi in _totient_blocks(D // 2, Convention.EULER):
        terms = np.arange(lo, lo + len(phi), dtype=np.uint64)
        np.floor_divide(D, terms, out=terms)
        terms -= 1
        excluded += int(np.dot(terms, phi))
    return excluded


#: D around the squares where the runs of equal floor(D/k) change from one k
#: each to many, and D whose D // 2 lies at and around the sieve's block edges.
RUN_SEAMS = sorted(
    [r * r + delta for r in (300, 362, 512, 1000, 2236) for delta in (-1, 0, 1)]
    + [2 * m * _BLOCK + delta for m in (1, 2, 3) for delta in range(-2, 4)]
)


def seed_cofactors(D: int) -> int:
    """How many big[j] _totient_sum fills above its sieve prefix, as it
    sizes the prefix."""
    L = min(D, max(math.isqrt(D) + 1, round(D ** (2 / 3))))
    return D // (L + 1)


#: The D where _totient_sum's first big[j] appears, and where their count
#: next changes below 10**5 and 10**6, each with its neighbours.
SEED_SEAMS = sorted({
    s + delta
    for lo, hi in [(2, 100), (90_000, 10**5), (950_000, 10**6)]
    for s in [next(d for d in range(lo, hi) if seed_cofactors(d) != seed_cofactors(d - 1))]
    for delta in (-1, 0, 1)
})


@pytest.fixture(scope="module")
def totient_sums_to_1e6():
    """Phi(D) at index D - 1 for D = 1..10**6, from the cumsum of the
    whole-table sieve kernel."""
    return np.cumsum(whole_table_totients(10**6, Convention.MODERN)).tolist()


class TestTotientSum:
    def test_matches_whole_table_cumsum_to_2000(self, totient_sums_to_1e6):
        got = [_totient_sum(d) for d in range(1, 2001)]
        bad = [d for d in range(1, 2001) if got[d - 1] != totient_sums_to_1e6[d - 1]]
        assert not bad, f"first wrong D={bad[0]}"

    def test_seed_seams_found(self):
        assert seed_cofactors(SEED_SEAMS[0]) == 0 and seed_cofactors(SEED_SEAMS[2]) == 1
        assert len(SEED_SEAMS) == 9

    @pytest.mark.parametrize("d", SEED_SEAMS)
    def test_matches_whole_table_cumsum_at_seed_seams(self, totient_sums_to_1e6, d):
        assert _totient_sum(d) == totient_sums_to_1e6[d - 1]

    @pytest.mark.parametrize("d", [q * q + delta for q in (31, 316, 997) for delta in (-1, 0, 1)])
    def test_matches_whole_table_cumsum_around_squares(self, totient_sums_to_1e6, d):
        assert _totient_sum(d) == totient_sums_to_1e6[d - 1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10**6))
    def test_matches_whole_table_cumsum_below_1e6(self, totient_sums_to_1e6, d):
        assert _totient_sum(d) == totient_sums_to_1e6[d - 1]

    @pytest.mark.parametrize("d", [
        2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK - 2, 2 * _BLOCK + 2, 4_999_500,
    ])
    def test_matches_the_one_pass_sieve_sum(self, d):
        assert count_by_totient_sum(d) == sieve_count_by_totient_sum(d)

    def test_routes_consistent_at_the_table_limit(self):
        # the exclusion sum sieves 1..D/2; the totient sum is the recursion
        assert count_by_exclusion(SIEVE_LIMIT).first_broken_identity() is None


class TestCountByTotientSum:
    @pytest.mark.parametrize("d,expected", [(10, 31), (20, 127), (2, 1)])
    def test_examples(self, d, expected):
        assert count_by_totient_sum(d) == expected

    @pytest.mark.parametrize("d", [0, 1])
    def test_small_rejected(self, d):
        with pytest.raises(ValueError):
            count_by_totient_sum(d)


class TestCountByExclusion:
    def test_worked_example_20(self):
        report = count_by_exclusion(20)
        assert report.total_unreduced == 190
        assert report.excluded == 63
        assert report.count_by_exclusion == 127
        assert report.count_by_totient_sum == 127
        assert report.count_by_enumeration is None
        assert report.consistent()

    def test_worked_example_10(self):
        report = count_by_exclusion(10)
        assert (report.total_unreduced, report.excluded, report.count_by_exclusion) == (45, 14, 31)

    def test_trivial_2(self):
        report = count_by_exclusion(2)
        assert (report.total_unreduced, report.excluded, report.count_by_exclusion) == (1, 0, 1)

    def test_small_rejected(self):
        with pytest.raises(ValueError):
            count_by_exclusion(1)

    def test_sieves_half_of_d(self, monkeypatch):
        # the exclusion sum reads 1..D/2; _totient_sum sieves its own prefix
        sizes = []

        def recorded(max_n, convention):
            sizes.append((max_n, convention))
            return _totient_blocks(max_n, convention)

        monkeypatch.setattr(farey, "_totient_blocks", recorded)
        assert count_by_exclusion(10**6 + 1).consistent()
        assert sizes == [(500_000, Convention.EULER), (10**4, Convention.MODERN)]

    @pytest.mark.parametrize("d", [2, 3, 7, 20, 50, 97, 256, 999])
    def test_excluded_matches_explicit_loop(self, d):
        # reference loop runs k while floor(d/k) >= 2, which ends by
        # k = floor(d/2) + 1 at the latest
        expected = 0
        k = 2
        while d // k >= 2:
            expected += (d // k - 1) * totient_by_gcd_count(k)
            k += 1
        assert k <= d // 2 + 1
        assert count_by_exclusion(d).excluded == expected

    def test_excluded_matches_per_entry_route_to_3000(self):
        bad = [d for d in range(2, 3001) if count_by_exclusion(d).excluded != per_entry_excluded(d)]
        assert not bad, f"first wrong D={bad[0]}"

    @pytest.mark.parametrize("d", [*RUN_SEAMS, 10**7])
    def test_excluded_matches_per_entry_route_at_seams(self, d):
        assert count_by_exclusion(d).excluded == per_entry_excluded(d)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3 * 10**5))
    def test_excluded_matches_per_entry_route(self, d):
        assert count_by_exclusion(d).excluded == per_entry_excluded(d)

    def test_consistent_flags_disagreement(self):
        bad = FareyCountReport(
            max_denominator=10,
            total_unreduced=45,
            excluded=14,
            count_by_exclusion=31,
            count_by_totient_sum=30,
        )
        assert not bad.consistent()
        assert bad.first_broken_identity() == "count_by_exclusion=31 != count_by_totient_sum=30"

    def test_first_broken_identity_in_order(self):
        good = count_by_exclusion(10)
        assert good.first_broken_identity() is None
        cases = [
            ({"total_unreduced": 46}, "total_unreduced=46 != D(D-1)/2=45"),
            ({"excluded": 15}, "count_by_exclusion=31 != total_unreduced-excluded=30"),
            ({"count_by_enumeration": 30}, "count_by_enumeration=30 != count_by_exclusion=31"),
            # two broken identities: the first in order is named
            ({"excluded": 15, "count_by_enumeration": 30},
             "count_by_exclusion=31 != total_unreduced-excluded=30"),
        ]
        for changes, expected in cases:
            bad = dataclasses.replace(good, **changes)
            assert bad.first_broken_identity() == expected
            assert not bad.consistent()


class TestCountReducible:
    @pytest.mark.parametrize("d,expected", [(10, 14), (20, 63), (3, 0)])
    def test_examples(self, d, expected):
        assert count_reducible(d) == expected

    def test_small_rejected(self):
        with pytest.raises(ValueError):
            count_reducible(1)


class TestCountByEnumeration:
    @pytest.mark.parametrize("d,expected", [(10, 31), (100, 3043), (2, 1)])
    def test_examples(self, d, expected):
        assert count_by_enumeration(d) == expected

    def test_refuses_above_bound(self):
        with pytest.raises(ValueError, match="bound"):
            count_by_enumeration(ENUMERATION_BOUND + 1)

    def test_small_rejected(self):
        with pytest.raises(ValueError):
            count_by_enumeration(1)


class TestTripleAgreement:
    def test_routes_agree_to_400(self):
        for d in range(2, 401):
            report = count_by_exclusion(d)
            assert report.count_by_exclusion == report.count_by_totient_sum
            assert report.consistent()

    @pytest.mark.parametrize("d", [2, 3, 10, 50, 149, 300])
    def test_enumeration_agrees(self, d):
        assert count_by_enumeration(d) == count_by_totient_sum(d)


class TestFareySequence:
    def test_complete_tiny_case(self):
        assert [str(f) for f in farey_sequence(3)] == ["1/3", "1/2", "2/3"]

    def test_order_5_matches_sort_oracle(self):
        expected = farey_by_sorting(5)
        got = farey_sequence(5)
        assert [(f.numerator, f.denominator) for f in got] == [
            (f.numerator, f.denominator) for f in expected
        ]

    def test_order_10_has_31_fractions(self):
        assert len(farey_sequence(10)) == 31

    def test_length_matches_totient_sum(self):
        for d in range(2, 80):
            assert len(farey_sequence(d)) == count_by_totient_sum(d)

    def test_strictly_increasing_exact(self):
        seq = farey_sequence(30)
        for left, right in itertools.pairwise(seq):
            assert left.numerator * right.denominator < right.numerator * left.denominator

    def test_neighbor_determinant(self):
        seq = farey_sequence(40)
        for left, right in itertools.pairwise(seq):
            assert right.numerator * left.denominator - left.numerator * right.denominator == 1

    def test_elements_valid_and_bounded(self):
        # on the raw pairs of the walk and of the blocks: Fraction would
        # reduce a pair that is not in lowest terms
        for a, b in [*iter_farey_pairs(25), *block_pairs(25)]:
            assert 0 < a < b <= 25
            assert gcd(a, b) == 1

    def test_small_rejected(self):
        with pytest.raises(ValueError):
            farey_sequence(1)

    def test_materialize_bound_refused(self):
        with pytest.raises(ValueError, match="iter_farey_sequence"):
            farey_sequence(FAREY_MATERIALIZE_BOUND + 1)

    @pytest.mark.parametrize("d", [0, 1, -3])
    def test_bad_denominator_refused_at_call(self, d):
        # before the first next(): a streaming caller writes nothing first
        with pytest.raises(ValueError):
            iter_farey_pairs(d)
        with pytest.raises(ValueError):
            iter_farey_sequence(d)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 80))
    def test_pairs_match_materialized_sequence(self, d):
        assert block_pairs(d) == list(iter_farey_pairs(d))
        assert [(f.numerator, f.denominator) for f in farey_sequence(d)] == block_pairs(d)

    def test_streaming_works_past_materialize_bound(self):
        stream = iter_farey_sequence(FAREY_MATERIALIZE_BOUND + 1)
        first = next(stream)
        assert (first.numerator, first.denominator) == (1, FAREY_MATERIALIZE_BOUND + 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 80))
    def test_matches_sort_oracle(self, d):
        assert farey_sequence(d) == farey_by_sorting(d)


class TestFareyBlocks:
    def test_window_count_changes_below_1000(self):
        assert WINDOW_COUNT_CHANGES and _farey_windows(1000) > 1

    # and D = 1500, 11 windows, the size of the benchmark's farey run
    @pytest.mark.parametrize("d", sorted({x for c in WINDOW_COUNT_CHANGES for x in (c - 1, c)}
                                         | {1500}))
    def test_match_walk_where_window_count_changes(self, d):
        assert block_pairs(d) == list(iter_farey_pairs(d))

    def test_bound_refused_at_first_block(self):
        blocks = _farey_blocks(FAREY_MATERIALIZE_BOUND + 1)
        with pytest.raises(ValueError, match="exceeds the sequence bound"):
            next(blocks)

    def test_ends_and_count_at_materialize_bound(self):
        d = FAREY_MATERIALIZE_BOUND
        first = list(itertools.islice(iter_farey_pairs(d), 2000))
        count, head, tail = 0, [], []
        for num, den in _farey_blocks(d):
            count += len(num)
            if len(head) < 2000:
                head += zip(num[:2000].tolist(), den[:2000].tolist())
            tail = (tail + list(zip(num[-2000:].tolist(), den[-2000:].tolist())))[-2000:]
        assert count == count_by_totient_sum(d)
        assert head[:2000] == first
        # the sequence is symmetric about 1/2: its last terms are 1 - a/b
        # for its first terms a/b, in reverse
        assert tail == [(b - a, b) for a, b in reversed(first)]
