from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from totient_lab import (
    SERIES_MATERIALIZE_BOUND,
    SIEVE_LIMIT,
    Convention,
    factorize,
    group_by_coefficient,
    integrated_series_coefficients,
    phi_over_n,
    primes_up_to,
    radical,
    series_coefficients,
    totient,
    totient_sieve,
)
import totient_lab.series as series
import totient_lab.sieve as sieve
from totient_lab.series import (
    _CHUNK,
    _coefficient_blocks,
    _coefficient_groups,
    _cofactors,
)
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


def radical_table(max_n: int) -> np.ndarray:
    """The earlier radical table, kept as an oracle for the grouping:
    rad[n] for 0..max_n as int32, rad[p::p] *= p for each prime
    p <= isqrt(max_n), then rad[j * p] *= p for each cofactor j and each
    prime p > isqrt(max_n) with j * p <= max_n."""
    rad = np.ones(max_n + 1, dtype=np.int32)
    primes = primes_up_to(max_n)
    root = isqrt(max_n)
    for p in primes[primes <= root].tolist():
        rad[p::p] *= p
    large = primes[primes > root]
    for j in range(1, max_n // (root + 1) + 1):
        ps = large[: np.searchsorted(large, max_n // j, side="right")]
        rad[ps * j] *= ps
    return rad


def radical_table_groups(max_n: int) -> tuple[np.ndarray, ...]:
    """The earlier grouping, kept as an oracle for _coefficient_groups:
    (radicals, nums, dens, sizes, members) of 2..max_n at once, the group
    sizes from a bincount of the radical table, and its members from a
    stable argsort of the table."""
    rad = radical_table(max_n)[2:]
    sizes = np.bincount(rad)
    radicals = np.flatnonzero(sizes)
    phi = totient_sieve(max_n, EULER).values[radicals - 1]
    g = np.gcd(phi, radicals.astype(np.uint64))
    return (radicals, phi // g, radicals.astype(np.uint64) // g, sizes[radicals],
            np.argsort(rad, kind="stable") + 2)


def concatenated_groups(max_n: int) -> tuple[np.ndarray, ...]:
    """The chunks of _coefficient_groups(max_n) laid end to end, in the
    shape of radical_table_groups, after checking that each chunk holds a
    group and spans its members with its edges."""
    chunks = list(_coefficient_groups(max_n))
    for _, _, _, edges, members in chunks:
        assert len(edges) > 1 and edges[0] == 0 and edges[-1] == len(members)
    radicals, nums, dens, edges, members = zip(*chunks)
    return (*map(np.concatenate, (radicals, nums, dens)),
            np.concatenate([np.diff(e) for e in edges]), np.concatenate(members))


def assert_groups_match_radical_table(max_n: int) -> None:
    names = ("radicals", "nums", "dens", "sizes", "members")
    for name, got, expected in zip(names, concatenated_groups(max_n),
                                   radical_table_groups(max_n)):
        assert np.array_equal(got, expected), f"max_n={max_n}: {name} differ"


class TestRadicalTable:
    def test_matches_radical_around_prime_squares(self):
        by_factorization = [radical(n) for n in range(1, ROOT_EDGE_SIZES[-1] + 1)]
        for max_n in ROOT_EDGE_SIZES:
            rad = radical_table(max_n).tolist()
            bad = [n for n in range(1, max_n + 1) if rad[n] != by_factorization[n - 1]]
            assert not bad, f"max_n={max_n}: first wrong entry n={bad[0]}"

    def test_matches_radical_at_sampled_entries_of_1e7(self):
        rad = radical_table(10**7)
        for n in sampled_entries(10**7, seed=20071):
            assert rad[n] == radical(n), f"n={n}"


class TestCofactors:
    def test_matches_trial_division_to_1e4(self):
        # the cofactors change only where max_n reaches some k * rad(k),
        # and the primes <= isqrt(max_n) only at p * p, one of those
        products = sorted((k * radical(k), k) for k in range(1, 10**4 + 1))
        sizes = {kr + d for kr, _ in products if kr <= 10**4 for d in (-1, 0)}
        for max_n in sorted(sizes - {0} | {10**4}):
            ks, rads = _cofactors(primes_up_to(isqrt(max_n)), max_n)
            expected = sorted(k for kr, k in products if kr <= max_n)
            assert ks.tolist() == expected, f"max_n={max_n}"
            assert rads.tolist() == [radical(k) for k in expected], f"max_n={max_n}"

    def test_matches_radical_table_at_1e6(self):
        rad = radical_table(10**6)
        expected = np.flatnonzero(np.arange(10**6 + 1) * rad <= 10**6)[1:]
        ks, rads = _cofactors(primes_up_to(1000), 10**6)
        assert np.array_equal(ks, expected)
        assert np.array_equal(rads, rad[expected])


class TestCoefficientGroups:
    @pytest.mark.parametrize("max_n", ROOT_EDGE_SIZES)
    def test_matches_radical_table_around_prime_squares(self, max_n):
        assert_groups_match_radical_table(max_n)

    @pytest.mark.parametrize("max_n", sorted(
        {k * _CHUNK + 1 + d for k in (1, 2, 4, 7) for d in (-1, 0, 1)}
        | {sieve._BLOCK + d for d in (-1, 0, 1, 2)}
        | {99_500}
    ))
    def test_matches_radical_table_at_sub_block_and_block_seams(self, max_n):
        # radicals are taken _CHUNK at a time from 2, in blocks of the sieve;
        # at 4 * _CHUNK + 2 = 65538 the last sub-block, [65538, 65539), holds
        # no squarefree number
        assert_groups_match_radical_table(max_n)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_matches_radical_table_in_small_sub_blocks(self, monkeypatch, chunk):
        monkeypatch.setattr(series, "_CHUNK", chunk)
        for max_n in (2, 3, 4, 49, 50, 1000, 2 * 4099 + 1):
            assert_groups_match_radical_table(max_n)

    def test_matches_radical_table_across_small_sieve_blocks(self, monkeypatch):
        monkeypatch.setattr(sieve, "_BLOCK", 4099)
        for max_n in (4098, 4099, 4100, 3 * 4099 + 1, 50_000):
            assert_groups_match_radical_table(max_n)

    def test_members_partition_the_range_at_1e6(self):
        # a lost or a doubled member changes the count or the sum
        max_n = 10**6
        count = total = 0
        for _, _, _, _, members in _coefficient_groups(max_n):
            count += len(members)
            total += int(members.sum())
        assert (count, total) == (max_n - 1, max_n * (max_n + 1) // 2 - 1)


class TestProductsAtTheTableLimit:
    # numpy array arithmetic wraps silently on overflow, so these compare
    # the int64 products k * rad(k) * p**2 and r * k at SIEVE_LIMIT with
    # Python ints, which cannot overflow
    def test_cofactors_match_a_search_in_python_ints(self):
        primes = primes_up_to(isqrt(SIEVE_LIMIT)).tolist()
        found, stack = [], [(1, 1, 0)]  # k, rad(k), index of the least prime k may gain
        while stack:
            k, rad, start = stack.pop()
            found.append((k, rad))
            for i in range(start, len(primes)):
                p = primes[i]
                if k * rad * p * p > SIEVE_LIMIT:
                    break
                k_p = k * p
                while k_p * rad * p <= SIEVE_LIMIT:
                    stack.append((k_p, rad * p, i + 1))
                    k_p *= p
        found.sort()
        assert len(found) == 21_044
        ks, rads = _cofactors(np.array(primes), SIEVE_LIMIT)
        assert ks.tolist() == [k for k, _ in found]
        assert rads.tolist() == [rad for _, rad in found]

    def test_first_groups_match_products_in_python_ints(self):
        radicals, _, _, edges, members = next(_coefficient_groups(SIEVE_LIMIT))
        radicals, edges, members = radicals.tolist(), edges.tolist(), members.tolist()
        squarefree = [r for r in range(2, radicals[-1] + 1)
                      if all(e == 1 for _, e in factorize(r).factors)]
        assert radicals == squarefree
        assert max(members) <= SIEVE_LIMIT
        for r, a, b in zip(radicals, edges, edges[1:]):
            # the members are r * k for every k <= SIEVE_LIMIT // r whose
            # primes all divide r
            ks = [1]
            for p in factorize(r).distinct_primes:
                ks = [k * p**e for k in ks for e in range(SIEVE_LIMIT.bit_length())
                      if k * p**e <= SIEVE_LIMIT // r]
            assert all(m % r == 0 for m in members[a:b]), f"radical {r}"
            assert members[a:b] == sorted(r * k for k in ks), f"radical {r}"


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


class TestMaterializeBound:
    @pytest.mark.parametrize("route", [series_coefficients, integrated_series_coefficients,
                                       group_by_coefficient])
    def test_refused_above_the_bound_before_any_work(self, monkeypatch, route):
        def no_sieve(*args, **kwargs):
            raise AssertionError("sieved a list above the bound")

        for name in ("_totient_blocks", "totient_sieve", "primes_up_to"):
            monkeypatch.setattr(series, name, no_sieve)
        with pytest.raises(ValueError, match=f"exceeds the bound {SERIES_MATERIALIZE_BOUND};"):
            route(SERIES_MATERIALIZE_BOUND + 1)


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
        # sub-blocks of 1, 3 or 7 radicals, many of them with no squarefree
        # number and so no group
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
