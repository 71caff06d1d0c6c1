"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see
them).  All comparisons are exact; the stated runtime budgets are asserted
with wall-clock checks.

The printed cumulative-count table has two misprinted rows (D = 80 and
D = 90).  Its criterion compares against the printed rows with those two
replaced by CUMULATIVE_ERRATA, and proves each erratum, and every row left
as printed, against the package-independent gcd-count oracle.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from pathlib import Path

from click.testing import CliRunner

from totient_lab import (
    Convention,
    coprime_numerators,
    count_by_enumeration,
    count_by_exclusion,
    count_by_totient_sum,
    count_reducible,
    cumulative_counts,
    farey_sequence,
    group_by_coefficient,
    integrated_series_coefficients,
    numbers_with_prime_support,
    totient,
    totient_bruteforce,
    totient_sieve,
)
from totient_lab.cli import main as cli_main
from reference_values import (
    CUMULATIVE_ERRATA,
    CUMULATIVE_PRINTED,
    TOTIENT_1_TO_100,
    totient_by_gcd_count,
)

EULER = Convention.EULER
MODERN = Convention.MODERN
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {name}")
        raise
    print(f"ACCEPTANCE PASS: {name}")


def _cli(args: list[str]) -> str:
    result = CliRunner().invoke(cli_main, args)
    assert result.exit_code == 0, result.stderr
    return result.stdout


def test_totient_table_1_to_100_exact():
    with criterion("totient table 1..100 via `table 100 --convention euler` (exact, < 1 s)"):
        start = time.perf_counter()
        out = _cli(["table", "100", "--convention", "euler", "--format", "csv"])
        elapsed = time.perf_counter() - start
        assert out == (GOLDEN / "table100.csv").read_text()
        values = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert values == TOTIENT_1_TO_100
        assert values[0] == 0 and values[99] == 40
        assert elapsed < 1.0


def test_cumulative_table_rows_as_printed():
    # Reproduces the printed table row by row.  The rows at D = 80 and 90
    # are misprints and are replaced by CUMULATIVE_ERRATA.  Each erratum must
    # differ from its printed value and equal the gcd-count oracle, and every
    # other printed row must equal the oracle as printed, so any new
    # disagreement fails here and the errata cannot grow to hide it.
    with criterion("cumulative fraction counts at D = 10..100 match the printed rows, errata at D = 80, 90 applied (< 1 s)"):
        checkpoints = list(range(10, 101, 10))
        start = time.perf_counter()
        rows = cumulative_counts(checkpoints)
        elapsed = time.perf_counter() - start
        counts = dict(zip(checkpoints, (r.fraction_count for r in rows)))
        assert elapsed < 1.0

        printed = dict(zip(checkpoints, CUMULATIVE_PRINTED))
        oracle = {
            d: sum(totient_by_gcd_count(k) for k in range(2, d + 1))
            for d in checkpoints
        }
        assert set(CUMULATIVE_ERRATA) == {80, 90}
        for d, value in CUMULATIVE_ERRATA.items():
            assert value != printed[d], f"erratum at D={d} repeats the printed value"
            assert value == oracle[d], f"erratum at D={d} is {value}, the oracle gives {oracle[d]}"
        for d in checkpoints:
            if d not in CUMULATIVE_ERRATA:
                assert printed[d] == oracle[d], f"printed row D={d} disagrees with the oracle"

        expected = {d: CUMULATIVE_ERRATA.get(d, printed[d]) for d in checkpoints}
        assert counts == expected, (
            "cumulative_counts disagrees with the printed table, errata applied"
        )


def test_cumulative_table_rows_match_column_sums():
    # Companion to the verbatim-row criterion: the definitional sums.
    with criterion("cumulative fraction counts at D = 10..100 equal the totient-table column sums (< 1 s)"):
        start = time.perf_counter()
        rows = cumulative_counts(list(range(10, 101, 10)))
        elapsed = time.perf_counter() - start
        expected = [sum(TOTIENT_1_TO_100[1:d]) for d in range(10, 101, 10)]
        assert [r.fraction_count for r in rows] == expected
        assert expected == [
            CUMULATIVE_ERRATA.get(d, printed)
            for d, printed in zip(range(10, 101, 10), CUMULATIVE_PRINTED)
        ]
        assert elapsed < 1.0


def test_exclusion_worked_example_d20():
    with criterion("exclusion count at D = 20: total 190, excluded 63, count 127 (exact, < 1 s)"):
        start = time.perf_counter()
        report = count_by_exclusion(20)
        elapsed = time.perf_counter() - start
        assert report.total_unreduced == 190
        assert report.excluded == 63
        assert report.count_by_exclusion == 127
        assert report.first_broken_identity() is None
        assert elapsed < 1.0


def test_reducible_count_d10():
    with criterion("reducible-fraction count at D = 10 equals 14 (exact)"):
        assert count_reducible(10) == 14


def test_totient_9450_with_verbose_primes():
    with criterion("totient(9450) = 2160 and verbose output lists primes 2, 3, 5, 7"):
        assert totient(9450, EULER) == 2160
        out = _cli(["totient", "9450", "--convention", "euler", "--verbose"])
        assert "2160" in out
        assert "distinct primes: 2, 3, 5, 7" in out


def test_multiplicative_split_of_360():
    with criterion("totient(360) = 96 and totient(9) * totient(40) = 6 * 16 = 96"):
        assert totient(360, EULER) == 96
        assert totient(9, EULER) == 6
        assert totient(40, EULER) == 16
        assert totient(9, EULER) * totient(40, EULER) == 96


def test_coprime_numerators_of_24():
    with criterion("coprime numerators of 24 are [1, 5, 7, 11, 13, 17, 19, 23]"):
        assert coprime_numerators(24) == [1, 5, 7, 11, 13, 17, 19, 23]


def test_numbers_supported_by_2_and_3():
    with criterion("numbers with prime support {2, 3} up to 100, each with 3 * totient(n) = n"):
        members = numbers_with_prime_support({2, 3}, 100)
        assert members == [6, 12, 18, 24, 36, 48, 54, 72, 96]
        for n in members:
            assert 3 * totient(n, EULER) == n


def test_series_coefficients_and_groups():
    with criterion("integrated series coefficients to n = 10 and the radical 2/3/6 groups"):
        assert integrated_series_coefficients(10) == [
            Fraction(1, 2), Fraction(2, 3), Fraction(1, 2), Fraction(4, 5),
            Fraction(1, 3), Fraction(6, 7), Fraction(1, 2), Fraction(2, 3),
            Fraction(2, 5),
        ]
        groups_64 = {g.radical: g for g in group_by_coefficient(64)}
        assert groups_64[2].members == (2, 4, 8, 16, 32, 64)
        assert groups_64[2].coefficient == Fraction(1, 2)
        groups_27 = {g.radical: g for g in group_by_coefficient(27)}
        assert groups_27[3].members == (3, 9, 27)
        assert groups_27[3].coefficient == Fraction(2, 3)
        groups_36 = {g.radical: g for g in group_by_coefficient(36)}
        assert groups_36[6].members == (6, 12, 18, 24, 36)
        assert groups_36[6].coefficient == Fraction(1, 3)


def test_property_oracle_equivalence_to_1e4():
    with criterion("oracle equivalence for all n <= 10^4: closed form = brute force = numerator count (< 30 s)"):
        start = time.perf_counter()
        for n in range(2, 10**4 + 1):
            closed = totient(n, EULER)
            assert closed == totient_bruteforce(n)
            assert closed == len(coprime_numerators(n))
        assert time.perf_counter() - start < 30.0


def test_property_triple_count_agreement():
    with criterion("count agreement: sum vs exclusion for D <= 2000, and vs enumeration for D <= 300"):
        for d in range(2, 2001):
            report = count_by_exclusion(d)
            assert report.count_by_exclusion == report.count_by_totient_sum
            assert report.first_broken_identity() is None
        for d in range(2, 301):
            assert count_by_enumeration(d) == count_by_totient_sum(d)


def test_property_farey_neighbor_determinant():
    with criterion("farey neighbor determinant a'b - ab' = 1 for all D <= 100"):
        for d in range(2, 101):
            seq = farey_sequence(d)
            assert len(seq) == count_by_totient_sum(d)
            for left, right in zip(seq, seq[1:]):
                assert right.numerator * left.denominator - left.numerator * right.denominator == 1


def test_property_multiplicativity_on_random_pairs():
    with criterion("multiplicativity on 1000 random coprime pairs"):
        rng = random.Random(564)
        checked = 0
        while checked < 1000:
            m = rng.randint(2, 10**6)
            n = rng.randint(2, 10**6)
            if gcd(m, n) != 1:
                continue
            assert totient(m * n, EULER) == totient(m, EULER) * totient(n, EULER)
            checked += 1


def test_property_divisor_sum_identity():
    with criterion("divisor-sum identity: sum of totient(d) over d | n equals n, for all n <= 10^4"):
        limit = 10**4
        table = totient_sieve(limit, MODERN)
        sums = [0] * (limit + 1)
        for d in range(1, limit + 1):
            phi_d = table.phi(d)
            for m in range(d, limit + 1, d):
                sums[m] += phi_d
        assert sums[1:] == list(range(1, limit + 1))


def test_performance_sieve_1e7_with_sample_crosscheck():
    with criterion("totient_sieve(10^7) in < 10 s, checksum matching per-n factorization at 10^5 sample points"):
        start = time.perf_counter()
        table = totient_sieve(10**7, EULER)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sieve took {elapsed:.2f} s"
        rng = random.Random(10**7)
        sample = rng.sample(range(1, 10**7 + 1), 10**5)
        sieve_checksum = 0
        factorization_checksum = 0
        for n in sample:
            sieve_checksum += table.phi(n)
            factorization_checksum += totient(n, EULER)
        assert sieve_checksum % 2**64 == factorization_checksum % 2**64


def test_cli_outputs_reparse_to_library_values():
    with criterion("csv and json outputs re-parse to the in-memory results (spot: table, count, farey)"):
        table_values = json.loads(_cli(["table", "1000", "--format", "json"]))
        assert table_values == totient_sieve(1000, MODERN).values.tolist()
        payload = json.loads(_cli(["count", "1000", "--method", "all", "--format", "json"]))
        report = count_by_exclusion(1000)
        assert payload["count_by_exclusion"] == report.count_by_exclusion
        assert payload["count_by_enumeration"] == count_by_enumeration(1000)
        rows = _cli(["farey", "300", "--format", "csv"]).splitlines()[1:]
        assert [tuple(map(int, r.split(","))) for r in rows] == [
            (f.numerator, f.denominator) for f in farey_sequence(300)
        ]
