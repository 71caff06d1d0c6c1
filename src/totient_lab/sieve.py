"""Bulk totient tables, cumulative reduced-fraction counts, and a benchmark
comparing the three totient routes.

Totients come from one segmented product sieve, not max_n independent
factorizations: in each block of _BLOCK entries, _smooth_blocks makes one
in-place multiply per stride of each prime up to sqrt(max_n), and
_totient_blocks finishes the block with one scatter for the primes above
it.  The counts, the benchmark and the CLI's `table` and `series` reduce or
write the blocks as they come and hold no table; totient_sieve copies them
into one.  On a 2-vCPU Xeon VM the blocks of 10**7 entries summed in
0.20 s; `bench 100000000` took 3.06-3.18 s and 44.6-44.8 MiB.  `count
100000000` makes no such pass: its exclusion sum reads the smooth blocks
of 1..5*10**7 with no scatter (0.67-0.76 s in-process; `--method
exclusion` 0.75-0.86 s, 33.6-33.7 MiB), and its totient sum a prefix of
about D^(2/3) (`--method sum` 0.14-0.20 s, 33.0-33.1 MiB).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import starmap
from math import isqrt, log
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import Convention, _check_range, totient, totient_bruteforce

#: Practical table-size limit; larger requests are refused.  A whole table
#: (totient_sieve) costs 8 bytes per entry, roughly 800 MB at the limit.
#: _totient_blocks holds one block and 4 bytes per prime <= N/2, so for its
#: readers the limit bounds time, about 3 s for a pass over 10**8 entries.
SIEVE_LIMIT = 10**8

#: Per-method input bounds for the benchmark.  The brute-force route costs
#: O(max_n^2 log max_n) total and the per-value factorization route
#: O(max_n^1.5); beyond these bounds the method is skipped, not run.
BENCH_BRUTEFORCE_BOUND = 10**4
BENCH_FACTORIZATION_BOUND = 10**6

_UINT64_MASK = 2**64 - 1

#: Entries per block of _smooth_blocks, a tuning constant: every reader
#: works at any size >= 1.  2**17 took 64 ms on the exclusion count's pass
#: over 2.5 * 10**6 entries, against 79 ms at 2**18.
_BLOCK = 1 << 17


def primes_up_to(n: int) -> np.ndarray:
    """Primes <= n via a boolean Eratosthenes sieve, for 0 <= n <= SIEVE_LIMIT
    (n + 1 bytes of flags)."""
    _check_range(n, "n", 0, SIEVE_LIMIT, "table limit")
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
        _check_range(n, "n", 1, self.max_n, "table's max_n")
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


def _ranges(first: np.ndarray, counts: np.ndarray, step: np.ndarray | None = None) -> np.ndarray:
    """first[i] + j * step[i] for j < counts[i], run after run, in the dtype
    of counts, which first and step share; step 1 if omitted.  j is formed
    before the product, so int32 runs whose values fit never overflow."""
    run = np.arange(counts.sum(), dtype=counts.dtype)
    run -= np.repeat(np.cumsum(counts, dtype=counts.dtype) - counts, counts)  # j
    if step is not None:
        run *= np.repeat(step, counts)
    run += np.repeat(first, counts)
    return run


def _smooth_blocks(max_n: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (lo, values, primes) for lo = 1, 1 + _BLOCK, ..., where the
    uint64 array values holds, for n = lo..min(lo + _BLOCK - 1, max_n),
    n * (1 - 1/p) over the primes p dividing n that are 2 or at most
    sqrt(max_n), and primes lists, ascending, the n above sqrt(max_n) that
    this left at n: the odd primes in (sqrt(max_n), max_n] of the block.

    Each block starts as value[n] = n and, for each such prime p, has its
    stride multiplied by 1 - 1/p in place: a shift for p = 2, and for odd p
    one multiply by c_p = p^-1 (p - 1) mod 2**64, p^-1 being the inverse of
    p mod 2**64.  p divides the running value wherever p divides n, so the
    wrapped product is exactly value // p * (p - 1).  An entry above
    sqrt(max_n) left at n has no prime factor <= sqrt(max_n), so it is a
    prime.  So value[n] = totient(n) unless n = j * P for a prime
    P > sqrt(max_n), and then value[n] = totient(j) * P, with j <= max_n //
    (isqrt(max_n) + 1) <= isqrt(max_n).  This is the package's one stride
    loop over totients.  max_n is checked when the first block is asked for.
    """
    _check_range(max_n, "max_n", 1, SIEVE_LIMIT, "table limit")
    root = isqrt(max_n)
    odd = primes_up_to(root)[1:].tolist()
    multipliers = [np.uint64(pow(p, -1, 2**64) * (p - 1) & _UINT64_MASK) for p in odd]
    for lo in range(1, max_n + 1, _BLOCK):
        hi = min(lo + _BLOCK - 1, max_n)
        val = np.arange(lo, hi + 1, dtype=np.uint64)
        val[lo & 1::2] >>= 1  # the even n
        for p, c in zip(odd, multipliers):
            val[-lo % p::p] *= c
        first = max(root + 1, lo)
        # uint32 holds every n <= SIEVE_LIMIT, and halves the temporary; the
        # primes are not named, so the reader alone holds them
        yield lo, val, np.flatnonzero(
            val[first - lo:] == np.arange(first, hi + 1, dtype=np.uint32)) + first
        del val  # freed before the next block is made, if the reader let go too


def _totient_blocks(
    max_n: int, convention: Convention
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, values) for lo = 1, 1 + _BLOCK, ..., where the uint64
    array values holds the totients of lo..min(lo + _BLOCK - 1, max_n).

    Each block of _smooth_blocks is finished in two steps:

    1. Its primes' values become n - 1.  The primes <= max_n // 2 are kept;
       they are the only large primes with a cofactor j >= 2.
    2. Every other n left with a prime factor P > sqrt(max_n) is j * P for
       one cofactor 2 <= j <= J = max_n // (isqrt(max_n) + 1), and
       value[j * P] = totient(j) * P, so one scatter subtracts totient(j)
       at every such n of the block.  j <= isqrt(max_n) has no prime
       factor above the root, so _smooth_blocks leaves totient(j) at j.
       That value is kept as its block passes, and j < j * P puts it in
       hand before any block reads it.

    Besides the block, this holds the totients of 1..J and the kept
    primes, about 4 bytes per prime <= max_n // 2.  max_n is checked when
    the first block is asked for.
    """
    _check_range(max_n, "max_n", 1, SIEVE_LIMIT, "table limit")
    half, J = max_n // 2, max_n // (isqrt(max_n) + 1)
    cofactors = np.arange(2, J + 1, dtype=np.int32)
    cofactor_phi = np.empty(J + 1, dtype=np.uint32)  # phi(j) <= j <= J <= isqrt(max_n)
    large = np.empty(_prime_count_bound(half), dtype=np.int32)  # primes in (isqrt(max_n), half]
    found = 0
    for lo, val, primes in _smooth_blocks(max_n):
        hi = lo + len(val) - 1
        if lo <= J:  # the block's cofactors, whose values are final
            cofactor_phi[lo:hi + 1] = val[:J + 1 - lo]
        val[primes - lo] -= 1
        primes = primes[: np.searchsorted(primes, half, side="right")]
        large[found:found + len(primes)] = primes
        found += len(primes)
        del primes
        known = large[:found]
        starts = np.searchsorted(known, -(-lo // cofactors)).astype(np.int32)
        counts = np.searchsorted(known, hi // cofactors, side="right").astype(np.int32)
        counts -= starts
        # cofactors[i] * p is in the block for the counts[i] primes p from
        # known[starts[i]] on
        index = known[_ranges(starts, counts)]
        index *= np.repeat(cofactors, counts)
        index -= lo
        val[index] -= np.repeat(cofactor_phi[2:], counts)
        del index
        if lo == 1:
            val[0] = convention.value_at_one
        yield lo, val
        del val  # freed before the next block is made, if the reader let go too


def totient_sieve(
    max_n: int, convention: Convention = Convention.MODERN
) -> TotientTable:
    """Totient table for 1..max_n, filled from the blocks of
    _totient_blocks.  Total work is O(max_n log log max_n).
    """
    _check_range(max_n, "max_n", 1, SIEVE_LIMIT, "table limit")
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
    _check_range(checkpoints[0], "checkpoints", 1)
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be strictly ascending")
    _check_range(checkpoints[-1], "checkpoints", 1, SIEVE_LIMIT, "table limit")
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
        del values, running  # not held while the next block is made
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
     # starmap, unlike a generator expression, holds no block while the next is made
     lambda max_n: sum(starmap(
         lambda lo, phi: int(np.dot(np.arange(lo, lo + len(phi), dtype=np.uint64), phi)),
         _totient_blocks(max_n, Convention.EULER))) & _UINT64_MASK),
)


def bench_totient_methods(max_n: int) -> BenchReport:
    """Time the three totient routes over 1..max_n (EULER convention).

    Methods whose documented bound is exceeded are skipped and marked,
    never run; a max_n above every bound, where nothing would run, is
    refused.  Checksums (sum of n * totient(n) mod 2**64) of every
    executed method must agree; the report exposes that check but does not
    raise, so callers decide how to surface a mismatch.
    """
    _check_range(max_n, "max_n", 1, max(bound for _, bound, _, _ in _BENCH_METHODS),
                 "largest method bound", "; above every method's bound, no method would run")
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
