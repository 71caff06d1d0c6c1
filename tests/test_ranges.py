"""Every library entry point's integer argument at the edges of its range.

core._check_range makes every such refusal, in one of three messages:
"{name} must be >= {low}, got {value}" (ValueError) below the range,
"{name}={value} exceeds the 64-bit ceiling {INT_CEILING}" (OverflowError)
above 2**64 - 1 whatever the entry point's own bound, and
"{name}={value} exceeds the {bound} {high}" (ValueError), with a reason
after it where one is given, above a lower bound.  Factorization checks
its n as factorize does; gcd, is_prime and totient_from_factorization take
no bounded integer argument.
"""

import pytest

from totient_lab import (
    BRUTEFORCE_BOUND,
    ENUMERATION_BOUND,
    FAREY_MATERIALIZE_BOUND,
    INT_CEILING,
    SERIES_MATERIALIZE_BOUND,
    SIEVE_LIMIT,
    bench_totient_methods,
    coprime_numerators,
    count_by_enumeration,
    count_by_exclusion,
    count_by_totient_sum,
    count_reducible,
    cumulative_counts,
    factorize,
    farey_sequence,
    group_by_coefficient,
    integrated_series_coefficients,
    iter_farey_pairs,
    iter_farey_sequence,
    numbers_with_prime_support,
    phi_over_n,
    primes_up_to,
    radical,
    series_coefficients,
    totient,
    totient_bruteforce,
    totient_sieve,
)

TABLE_10 = totient_sieve(10)

#: Per entry point: the callable, its argument's name, low, high, the
#: bound's name in the message, and whether accepting high takes at most
#: about a second.  The bound of a row whose high is INT_CEILING is the
#: ceiling itself.
RANGES = {
    "factorize": (factorize, "n", 1, INT_CEILING, "64-bit ceiling", True),
    "totient": (totient, "n", 1, INT_CEILING, "64-bit ceiling", True),
    "totient_bruteforce": (totient_bruteforce, "n", 1, BRUTEFORCE_BOUND, "brute-force bound",
                           True),
    "coprime_numerators": (coprime_numerators, "d", 2, BRUTEFORCE_BOUND, "brute-force bound",
                           True),
    "numbers_with_prime_support": (lambda limit: numbers_with_prime_support({2}, limit),
                                   "limit", 1, INT_CEILING, "64-bit ceiling", True),
    "count_by_totient_sum": (count_by_totient_sum, "max_denominator", 2, SIEVE_LIMIT,
                             "table limit", True),
    "count_by_exclusion": (count_by_exclusion, "max_denominator", 2, SIEVE_LIMIT,
                           "table limit", False),
    "count_reducible": (count_reducible, "max_denominator", 2, SIEVE_LIMIT, "table limit",
                        True),
    "count_by_enumeration": (count_by_enumeration, "max_denominator", 2, ENUMERATION_BOUND,
                             "enumeration bound", False),
    "iter_farey_pairs": (iter_farey_pairs, "max_denominator", 2, SIEVE_LIMIT, "table limit",
                         True),
    "iter_farey_sequence": (iter_farey_sequence, "max_denominator", 2, SIEVE_LIMIT,
                            "table limit", True),
    "farey_sequence": (farey_sequence, "max_denominator", 2, FAREY_MATERIALIZE_BOUND,
                       "sequence bound", False),
    "phi_over_n": (phi_over_n, "n", 2, INT_CEILING, "64-bit ceiling", True),
    "radical": (radical, "n", 1, INT_CEILING, "64-bit ceiling", True),
    "series_coefficients": (series_coefficients, "max_n", 2, SERIES_MATERIALIZE_BOUND,
                            "bound", False),
    "integrated_series_coefficients": (integrated_series_coefficients, "max_n", 2,
                                       SERIES_MATERIALIZE_BOUND, "bound", False),
    "group_by_coefficient": (group_by_coefficient, "max_n", 2, SERIES_MATERIALIZE_BOUND,
                             "bound", False),
    "totient_sieve": (totient_sieve, "max_n", 1, SIEVE_LIMIT, "table limit", False),
    "primes_up_to": (primes_up_to, "n", 0, SIEVE_LIMIT, "table limit", False),
    "cumulative_counts": (lambda d: cumulative_counts([d]), "checkpoints", 1, SIEVE_LIMIT,
                          "table limit", False),
    "bench_totient_methods": (bench_totient_methods, "max_n", 1, SIEVE_LIMIT,
                              "largest method bound", False),
    "TotientTable.phi": (TABLE_10.phi, "n", 1, 10, "table's max_n", True),
}
every_entry_point = pytest.mark.parametrize(
    "route,name,low,high,bound", [row[:5] for row in RANGES.values()], ids=list(RANGES))

#: The reason that follows the bound in a refusal above it, where one is given.
REASONS = {
    "totient_bruteforce": "; totient_bruteforce is O(n log n) per call",
    "coprime_numerators": "; coprime_numerators materializes O(d) values",
    "count_by_enumeration": "; count_by_enumeration is O(D^2 log D)",
    "farey_sequence": "; iter_farey_pairs and iter_farey_sequence stream beyond it",
    "series_coefficients": "; the CLI's series streams beyond it",
    "integrated_series_coefficients": "; the CLI's series streams beyond it",
    "group_by_coefficient": "; the CLI's series streams beyond it",
    "bench_totient_methods": "; above every method's bound, no method would run",
}


@every_entry_point
def test_below_low_refused(route, name, low, high, bound):
    with pytest.raises(ValueError) as refusal:
        route(low - 1)
    assert str(refusal.value) == f"{name} must be >= {low}, got {low - 1}"


@pytest.mark.parametrize("route,name,high,bound,why", [
    (route, name, high, bound, REASONS.get(key, ""))
    for key, (route, name, _, high, bound, _) in RANGES.items()
], ids=list(RANGES))
def test_above_high_refused(route, name, high, bound, why):
    with pytest.raises(OverflowError if high == INT_CEILING else ValueError) as refusal:
        route(high + 1)
    assert str(refusal.value) == f"{name}={high + 1} exceeds the {bound} {high}{why}"


@every_entry_point
def test_above_the_64_bit_ceiling_refused(route, name, low, high, bound):
    with pytest.raises(OverflowError) as refusal:
        route(2**64)
    assert str(refusal.value) == f"{name}={2**64} exceeds the 64-bit ceiling {INT_CEILING}"


@every_entry_point
def test_low_accepted(route, name, low, high, bound):
    route(low)


@pytest.mark.parametrize("route,high", [(row[0], row[3]) for row in RANGES.values() if row[5]],
                         ids=[key for key, row in RANGES.items() if row[5]])
def test_high_accepted(route, high):
    route(high)
