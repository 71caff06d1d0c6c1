from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from totient_lab import (
    Convention,
    factorize,
    group_by_coefficient,
    integrated_series_coefficients,
    phi_over_n,
    radical,
    series_coefficients,
    totient,
)
import totient_lab.series as series
import totient_lab.sieve as sieve
from totient_lab.series import _CHUNK, _coefficient_blocks, _group_chunks, _radical_table
from reference_values import ROOT_EDGE_SIZES, sampled_entries

EULER = Convention.EULER


class TestPhiOverN:
    @pytest.mark.parametrize(
        "n,expected", [(4, Fraction(1, 2)), (10, Fraction(2, 5)), (6, Fraction(1, 3))]
    )
    def test_examples(self, n, expected):
        assert phi_over_n(n) == expected

    @pytest.mark.parametrize("n", [0, 1])
    def test_below_two_rejected(self, n):
        with pytest.raises(ValueError):
            phi_over_n(n)

    def test_stored_reduced(self):
        coeff = phi_over_n(9450)
        assert (coeff.numerator, coeff.denominator) == (8, 35)

    @given(st.integers(2, 2000))
    def test_equals_prime_product(self, n):
        product = Fraction(1)
        for p in factorize(n).distinct_primes:
            product *= Fraction(p - 1, p)
        assert phi_over_n(n) == product

    @given(st.integers(2, 10**4))
    def test_depends_only_on_radical(self, n):
        assert phi_over_n(n) == phi_over_n(radical(n))


class TestRadical:
    @pytest.mark.parametrize("n,expected", [(12, 6), (8, 2), (1, 1), (30, 30), (9, 3)])
    def test_examples(self, n, expected):
        assert radical(n) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            radical(0)


class TestRadicalTable:
    def test_matches_radical_around_prime_squares(self):
        by_factorization = [radical(n) for n in range(1, ROOT_EDGE_SIZES[-1] + 1)]
        for max_n in ROOT_EDGE_SIZES:
            rad = _radical_table(max_n).tolist()
            bad = [n for n in range(1, max_n + 1) if rad[n] != by_factorization[n - 1]]
            assert not bad, f"max_n={max_n}: first wrong entry n={bad[0]}"

    def test_matches_radical_at_sampled_entries_of_1e7(self):
        rad = _radical_table(10**7)
        for n in sampled_entries(10**7, seed=20071):
            assert rad[n] == radical(n), f"n={n}"


class TestSeriesCoefficients:
    def test_first_ten(self):
        assert series_coefficients(10) == [0, 1, 2, 2, 4, 2, 6, 4, 6, 4]

    def test_trivial(self):
        assert series_coefficients(2) == [0, 1]

    def test_entry_100(self):
        assert series_coefficients(100)[99] == 40

    def test_small_rejected(self):
        with pytest.raises(ValueError):
            series_coefficients(1)


class TestIntegratedSeries:
    def test_first_terms(self):
        assert integrated_series_coefficients(10) == [
            Fraction(1, 2), Fraction(2, 3), Fraction(1, 2), Fraction(4, 5),
            Fraction(1, 3), Fraction(6, 7), Fraction(1, 2), Fraction(2, 3),
            Fraction(2, 5),
        ]

    def test_trivial(self):
        assert integrated_series_coefficients(2) == [Fraction(1, 2)]

    def test_entry_9450(self):
        coefficients = integrated_series_coefficients(9450)
        assert coefficients[9450 - 2] == Fraction(2160, 9450) == Fraction(8, 35)

    def test_small_rejected(self):
        with pytest.raises(ValueError):
            integrated_series_coefficients(1)

    def test_matches_phi_over_n(self):
        coefficients = integrated_series_coefficients(300)
        for n, coeff in enumerate(coefficients, start=2):
            assert coeff == phi_over_n(n)

    @pytest.mark.parametrize("block,chunk", [(4099, 1000), (4099, _CHUNK), (sieve._BLOCK, 7)])
    def test_rows_across_block_and_chunk_seams(self, monkeypatch, block, chunk):
        # the rows come from the sieve's blocks, cut in chunks that do not
        # line up with them
        monkeypatch.setattr(sieve, "_BLOCK", block)
        monkeypatch.setattr(series, "_CHUNK", chunk)
        max_n = 3 * 4099 + 1
        blocks = list(_coefficient_blocks(max_n))
        assert max(len(n) for n, *_ in blocks) <= chunk
        n, phi, num, den = (np.concatenate(column).tolist() for column in zip(*blocks))
        assert n == list(range(2, max_n + 1))
        assert phi == [totient(k, EULER) for k in n]
        reduced = [Fraction(p, k) for p, k in zip(phi, n)]
        assert list(zip(num, den)) == [(c.numerator, c.denominator) for c in reduced]


def assert_groups_match_factorized_radicals(max_n: int) -> None:
    """group_by_coefficient(max_n) equals 2..max_n grouped in a dict by
    trial-division radicals, each with coefficient phi_over_n(radical)."""
    by_radical: dict[int, list[int]] = {}
    for n in range(2, max_n + 1):
        by_radical.setdefault(radical(n), []).append(n)
    assert [(g.radical, g.coefficient, g.members) for g in group_by_coefficient(max_n)] == [
        (r, phi_over_n(r), tuple(members)) for r, members in sorted(by_radical.items())
    ]


class TestGroupByCoefficient:
    def test_powers_of_two(self):
        groups = {g.radical: g for g in group_by_coefficient(64)}
        assert groups[2].members == (2, 4, 8, 16, 32, 64)
        assert groups[2].coefficient == Fraction(1, 2)

    def test_powers_of_three(self):
        groups = {g.radical: g for g in group_by_coefficient(27)}
        assert groups[3].members == (3, 9, 27)
        assert groups[3].coefficient == Fraction(2, 3)

    def test_powers_of_five_coefficient(self):
        groups = {g.radical: g for g in group_by_coefficient(125)}
        assert groups[5].members == (5, 25, 125)
        assert groups[5].coefficient == Fraction(4, 5)

    def test_radical_six_members(self):
        groups = {g.radical: g for g in group_by_coefficient(36)}
        assert groups[6].members == (6, 12, 18, 24, 36)
        assert groups[6].coefficient == Fraction(1, 3)

    def test_small_rejected(self):
        with pytest.raises(ValueError):
            group_by_coefficient(1)

    @pytest.mark.parametrize("max_n", [2, 3, 4, 5, 48, 49, 50, 121])
    def test_matches_grouping_by_factorized_radical(self, max_n):
        assert_groups_match_factorized_radicals(max_n)

    @pytest.mark.parametrize("chunk", [1, 3, 7, _CHUNK])
    def test_matches_grouping_by_factorized_radical_to_1e4_in_chunks(self, monkeypatch, chunk):
        # chunks of at most 1, 3 or 7 members, unless one group holds more
        monkeypatch.setattr(series, "_CHUNK", chunk)
        assert_groups_match_factorized_radicals(10**4)

    def test_matches_grouping_by_factorized_radical_across_sieve_blocks(self, monkeypatch):
        # totient(r) is gathered from four blocks of the sieve
        monkeypatch.setattr(sieve, "_BLOCK", 4099)
        assert_groups_match_factorized_radicals(3 * 4099 + 1)

    def test_sorted_by_radical(self):
        radicals = [g.radical for g in group_by_coefficient(200)]
        assert radicals == sorted(radicals)

    def test_partitions_range(self):
        groups = group_by_coefficient(500)
        seen: list[int] = []
        for g in groups:
            assert g.members == tuple(sorted(g.members))
            assert len(g.members) >= 1
            seen.extend(g.members)
        assert sorted(seen) == list(range(2, 501))
        assert sum(len(g.members) for g in groups) == 499

    def test_members_share_the_group_radical(self):
        for g in group_by_coefficient(400):
            for member in g.members:
                assert radical(member) == g.radical

    def test_group_coefficient_matches_each_member(self):
        for g in group_by_coefficient(300):
            assert g.coefficient == phi_over_n(g.radical)
            for member in g.members:
                assert phi_over_n(member) == g.coefficient

    def test_table_coefficients_match_scalar_route_to_5000(self):
        # the grouping reads totient(r) from the sieve; phi_over_n and radical
        # factor each value by trial division
        for g in group_by_coefficient(5000):
            assert g.coefficient == phi_over_n(g.radical), g.radical
            for member in g.members:
                assert radical(member) == g.radical, member

    def test_prime_power_groups_are_pure_powers(self):
        groups = {g.radical: g for g in group_by_coefficient(1000)}
        for p in (2, 3, 5, 7):
            power, expected = p, []
            while power <= 1000:
                expected.append(power)
                power *= p
            assert groups[p].members == tuple(expected)

    def test_coefficient_determines_radical_to_1e4(self):
        # equal coefficient implies equal radical, checked exhaustively
        by_coefficient: dict[Fraction, int] = {}
        for g in group_by_coefficient(10**4):
            assert g.coefficient not in by_coefficient, (
                g.coefficient, by_coefficient[g.coefficient], g.radical
            )
            by_coefficient[g.coefficient] = g.radical

    def test_totient_recoverable_from_groups(self):
        groups = group_by_coefficient(240)
        for g in groups:
            for member in g.members:
                value = g.coefficient * member
                assert value.denominator == 1
                assert value.numerator == totient(member, EULER)


def chunk_members(sizes: list[int]) -> list[int]:
    """Members per chunk that _group_chunks cuts from groups of these
    sizes, after checking that the chunks cover the groups in order."""
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    chunks = list(_group_chunks(bounds))
    assert [first for first, _ in chunks] == [0, *(end for _, end in chunks[:-1])]
    assert all(first < end for first, end in chunks)
    assert chunks[-1][1] == len(sizes)
    return [int(bounds[end] - bounds[first]) for first, end in chunks]


class TestGroupChunks:
    @pytest.mark.parametrize("max_n", [500_000, 2_000_000])
    def test_chunk_members_bounded_at_sizes_of_max_n(self, max_n):
        # the first groups, of the small radicals, hold the most members
        sizes = np.bincount(_radical_table(max_n)[2:])
        sizes = sizes[sizes > 0].tolist()
        members = chunk_members(sizes)
        assert len(members) > 1
        assert max(members) <= _CHUNK + max(sizes)

    @pytest.mark.parametrize("sizes", [
        [1],
        [_CHUNK],
        [_CHUNK + 1],
        [3, _CHUNK * 2, 5],
        [_CHUNK - 1, 2, _CHUNK - 1],
        [1] * (3 * _CHUNK + 7),
    ])
    def test_chunk_members_bounded(self, sizes):
        assert max(chunk_members(sizes)) <= _CHUNK + max(sizes)
