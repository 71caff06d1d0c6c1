import dataclasses
import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totient_lab import (
    ENUMERATION_BOUND,
    FAREY_MATERIALIZE_BOUND,
    FareyCountReport,
    count_by_enumeration,
    count_by_exclusion,
    count_by_totient_sum,
    count_reducible,
    farey_sequence,
    iter_farey_pairs,
    iter_farey_sequence,
)
from reference_values import totient_by_gcd_count


def farey_by_sorting(max_denominator: int) -> list[Fraction]:
    """Sort-based oracle: enumerate, deduplicate by value, sort exactly."""
    values = {
        Fraction(a, b)
        for b in range(2, max_denominator + 1)
        for a in range(1, b)
    }
    return sorted(values)


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
        # on the walk's raw pairs: Fraction would reduce a pair that is not
        # in lowest terms
        for a, b in iter_farey_pairs(25):
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
        assert list(iter_farey_pairs(d)) == [
            (f.numerator, f.denominator) for f in farey_sequence(d)
        ]

    def test_streaming_works_past_materialize_bound(self):
        stream = iter_farey_sequence(FAREY_MATERIALIZE_BOUND + 1)
        first = next(stream)
        assert (first.numerator, first.denominator) == (1, FAREY_MATERIALIZE_BOUND + 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 80))
    def test_matches_sort_oracle(self, d):
        assert farey_sequence(d) == farey_by_sorting(d)
