"""Bulk totient tables, cumulative reduced-fraction counts, and a benchmark
comparing the three totient routes.

Totients come from one segmented product sieve, _totient_blocks, not
max_n independent factorizations: in each block of _BLOCK entries, one
in-place multiply per stride of each prime up to sqrt(max_n), then one
scatter for the primes above it.  The counts, the benchmark and the CLI's
`table` and `series` reduce or write the blocks as they come and hold no
table; totient_sieve copies them into one.  On a 2-vCPU Xeon
VM, summing the blocks of 10**7 entries took 0.22-0.29 s, and of all 10**8
2.8-3.1 s with a peak RSS of 45 MiB.  The CLI's `count 100000000` makes no
such pass: its exclusion sum reads the blocks of 1..5*10**7 (1.7 s,
41 MiB), and its totient sum a prefix of about D^(2/3) (`--method sum`:
0.21 s, 34 MiB).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import isqrt, log
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import Convention, totient, totient_bruteforce

#: Practical table-size limit; larger requests are refused.  A whole table
#: (totient_sieve) costs 8 bytes per entry, roughly 800 MB at the limit.
#: The block-by-block routes hold one block and 4 bytes per prime <= N/2,
#: so for them the limit bounds time, 2.8-3.1 s for a pass over 10**8 entries.
SIEVE_LIMIT = 10**8

#: Per-method input bounds for the benchmark.  The brute-force route costs
#: O(max_n^2 log max_n) total and the per-value factorization route
#: O(max_n^1.5); beyond these bounds the method is skipped, not run.
BENCH_BRUTEFORCE_BOUND = 10**4
BENCH_FACTORIZATION_BOUND = 10**6

_UINT64_MASK = 2**64 - 1

#: Entries per block of _totient_blocks.  At least isqrt(SIEVE_LIMIT), so
#: the first block holds every cofactor j <= max_n // (isqrt(max_n) + 1).
_BLOCK = 1 << 17


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


def _prime_count_bound(x: int) -> int:
    """An upper bound on the number of primes <= x: 1.25506 x / ln x for
    x > 1 (Rosser & Schoenfeld, Illinois J. Math. 1962, Corollary 1)."""
    return int(1.25506 * x / log(x)) + 1 if x > 1 else 0


def _check_table_size(max_n: int) -> None:
    if max_n < 1:
        raise ValueError(f"max_n must be a positive integer, got {max_n}")
    if max_n > SIEVE_LIMIT:
        raise ValueError(f"max_n={max_n} exceeds the table limit {SIEVE_LIMIT}")


def _totient_blocks(
    max_n: int, convention: Convention
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, values) for lo = 1, 1 + _BLOCK, ..., where the uint64
    array values holds the totients of lo..min(lo + _BLOCK - 1, max_n).

    Each block starts as value[n] = n and is finished in three steps:

    1. For each prime p <= sqrt(max_n), multiply its stride by 1 - 1/p in
       place: a shift for p = 2, and for odd p one multiply by
       c_p = p^-1 (p - 1) mod 2**64, p^-1 being the inverse of p mod 2**64.
       p divides the running value wherever p divides n, so the wrapped
       product is exactly value // p * (p - 1).
    2. An entry above sqrt(max_n) that the strides left at n has no prime
       factor <= sqrt(max_n), so it is a prime: its value is n - 1.  The
       primes <= max_n // 2 are kept; they are the only large primes with a
       cofactor j >= 2.
    3. Every other n left with a prime factor p > sqrt(max_n) is j * p for
       one cofactor 2 <= j <= max_n // (isqrt(max_n) + 1), whose value is
       final in the first block, and value[j * p] = totient(j) * p, so one
       scatter subtracts totient(j) at every such n of the block.

    Besides the block, this holds the cofactors' totients and the kept
    primes, about 4 bytes per prime <= max_n // 2.  max_n is checked when
    the first block is asked for.
    """
    _check_table_size(max_n)
    root = isqrt(max_n)
    odd = primes_up_to(root)[1:].tolist()
    multipliers = [np.uint64(pow(p, -1, 2**64) * (p - 1) & _UINT64_MASK) for p in odd]
    cofactors = np.arange(2, max_n // (root + 1) + 1, dtype=np.int32)
    half = max_n // 2
    large = np.empty(_prime_count_bound(half), dtype=np.int32)  # primes in (root, half]
    found = 0
    cofactor_phi = None  # totient(j) for each cofactor j, from the first block
    for lo in range(1, max_n + 1, _BLOCK):
        hi = min(lo + _BLOCK - 1, max_n)
        val = np.arange(lo, hi + 1, dtype=np.uint64)
        val[lo & 1::2] >>= 1  # the even n
        for p, c in zip(odd, multipliers):
            val[-lo % p::p] *= c
        if cofactor_phi is None:
            cofactor_phi = val[1:len(cofactors) + 1].copy()
        first = max(root + 1, lo)
        # uint32 holds every n <= SIEVE_LIMIT, and halves the temporary
        primes = np.flatnonzero(val[first - lo:] == np.arange(first, hi + 1, dtype=np.uint32))
        val[primes + (first - lo)] -= 1
        primes = primes[: np.searchsorted(primes, half - first, side="right")]
        large[found:found + len(primes)] = primes + first
        found += len(primes)
        del primes
        known = large[:found]
        starts = np.searchsorted(known, -(-lo // cofactors))
        counts = np.searchsorted(known, hi // cofactors, side="right") - starts
        # cofactors[i] * p is in the block for the counts[i] primes p from
        # known[starts[i]] on
        at = np.repeat((starts - np.cumsum(counts) + counts).astype(np.int32), counts)
        at += np.arange(len(at), dtype=np.int32)
        index = known[at]
        del at
        index *= np.repeat(cofactors, counts)
        index -= lo
        val[index] -= np.repeat(cofactor_phi, counts)
        del index
        if lo == 1:
            val[0] = convention.value_at_one
        yield lo, val


def totient_sieve(
    max_n: int, convention: Convention = Convention.MODERN
) -> TotientTable:
    """Totient table for 1..max_n, filled from the blocks of
    _totient_blocks.  Total work is O(max_n log log max_n).
    """
    _check_table_size(max_n)
    # MemoryError from the allocation is the resource-failure signal.
    phi = np.empty(max_n, dtype=np.uint64)
    for lo, block in _totient_blocks(max_n, convention):
        phi[lo - 1:lo - 1 + len(block)] = block
    phi.flags.writeable = False
    return TotientTable(max_n=max_n, convention=convention, values=phi)


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
    rows, pending = [], iter(checkpoints)
    d = next(pending)
    total = 0  # sum of totient(k) for k below the block in hand
    for lo, values in _totient_blocks(checkpoints[-1], Convention.EULER):
        running = np.cumsum(values, dtype=np.uint64)
        while d is not None and d < lo + len(values):
            rows.append(CumulativeCountRow(
                max_denominator=d, fraction_count=total + int(running[d - lo])))
            d = next(pending, None)
        total += int(running[-1])
    return rows


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
     lambda max_n: sum(int(np.dot(np.arange(lo, lo + len(phi), dtype=np.uint64), phi))
                       for lo, phi in _totient_blocks(max_n, Convention.EULER)) & _UINT64_MASK),
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
