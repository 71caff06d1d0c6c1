"""Counting and enumerating the reduced fractions strictly between 0 and 1
with denominator at most D, by three independent routes: totient summation,
exclusion of reducible forms from the D(D-1)/2 total, and the definitional
double-loop enumeration.

The totient sum is not summed over a sieve of all D entries: the paper's
exclusion identity, applied to its own quotients, gives it from a sieve
prefix up to about D^(2/3) in O(D^(2/3)) (_totient_sum, 0.03 s at 10**8 on
a 2-vCPU VM).  The exclusion route reads the smooth blocks of 1..D/2, the
only k with a nonzero term, and weights each run of k with equal floor(D/k)
once, with one sum of its values.  The values of the k with a prime factor
P above sqrt(D/2) are left unfinished, and the excess is taken back once,
from the primes counted up to the quotients of D: no scatter, and no list
of primes held.  So the two routes share no pass over the sieve.

All counting is exact integer arithmetic.  The sequence's terms are
fractions.Fraction, the type the series module returns too; only the
functions that build them import fractions.  They come in
order two ways, neither using floating point: the neighbor walk steps from
each term to the next in O(1) memory, and the value windows of
_farey_blocks give each value one slot of an exact integer key, into which
numpy scatters the value's reduced form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .core import Convention, _check_range
from .sieve import SIEVE_LIMIT, _smooth_blocks, _totient_blocks

if TYPE_CHECKING:
    from fractions import Fraction

#: count_by_enumeration is O(D^2 log D); it refuses D above this.
ENUMERATION_BOUND = 10**4

#: farey_sequence materializes about 3 D^2 / pi^2 fraction objects (roughly
#: 2 GB at this bound); iter_farey_pairs and iter_farey_sequence stream
#: without that cost.  _farey_blocks, which farey_sequence and the CLI's
#: `farey` read, refuses D above it; its window keys stay exact in int64 far
#: beyond.  The CLI writes a block at a time, so there the bound limits time
#: (about 30 M rows), not memory.
FAREY_MATERIALIZE_BOUND = 10**4

#: The most terms a block of _farey_blocks is sized for, roughly: F_D has
#: about 3 D^2 / pi^2 interior terms, so D^2 // (3 * T) windows hold about
#: 0.9 * T each, T being _farey_windows' terms per window, at most _BLOCK.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class FareyCountReport:
    """Counts for one maximum denominator D, cross-checkable across routes.

    count_by_enumeration is None unless the enumeration route was run.
    """

    max_denominator: int
    total_unreduced: int
    excluded: int
    count_by_exclusion: int
    count_by_totient_sum: int
    count_by_enumeration: int | None = None

    def first_broken_identity(self) -> str | None:
        """The first mutual identity that the populated fields break, as
        ``"lhs=value != rhs=value"``, or None when every one holds.

        count_by_exclusion = count_by_totient_sum spans two algorithms: a
        sieve of k <= D/2 weighted by floor(D/k) - 1 and summed per run of
        equal floor(D/k), against the recursion of _totient_sum over the
        quotients of D on a prefix of D^(2/3)."""
        d = self.max_denominator
        identities = [
            ("total_unreduced", self.total_unreduced, "D(D-1)/2", d * (d - 1) // 2),
            ("count_by_exclusion", self.count_by_exclusion,
             "total_unreduced-excluded", self.total_unreduced - self.excluded),
            ("count_by_exclusion", self.count_by_exclusion,
             "count_by_totient_sum", self.count_by_totient_sum),
        ]
        if self.count_by_enumeration is not None:
            identities.append(("count_by_enumeration", self.count_by_enumeration,
                               "count_by_exclusion", self.count_by_exclusion))
        for lhs, left, rhs, right in identities:
            if left != right:
                return f"{lhs}={left} != {rhs}={right}"
        return None

    def consistent(self) -> bool:
        """True when every populated field satisfies the mutual identities."""
        return self.first_broken_identity() is None


def _totient_sum(D: int) -> int:
    """Phi(D), the sum of totient(k) for k = 1..D with totient(1) = 1.

    The D(D+1)/2 pairs 1 <= a <= b <= D are, for g = gcd(a, b), the
    g * (x, y) with x <= y <= D // g coprime, Phi(D // g) of them.  Taking
    away the reducible ones, g = d >= 2, as the paper does, leaves
    Phi(D) = D(D+1)/2 - sum of Phi(D // d) for d = 2..D.  For m = D // j
    that sum takes the d <= r = isqrt(m) one at a time and groups the
    larger d by their quotient q = m // d <= Q = m // (r + 1), which
    m // q - m // (q + 1) of them share: m // (Q + 1) is r itself (write
    m = r^2 + t with 0 <= t <= 2r), so no d <= r is counted.  A sieve prefix
    gives Phi up to L, about D^(2/3); above it, big[j] = Phi(D // j) is
    filled for j = D // (L + 1) down to 1, reading big[j * d] for the
    quotients above L, in O(D^(2/3)) time and memory in all.  The arrays
    wrap mod 2**64 and the scalars are Python ints, so the result is exact
    while Phi(D) < 2**64, which holds far beyond the table limit.
    """
    L = min(D, max(math.isqrt(D) + 1, round(D ** (2 / 3))))
    prefix = np.zeros(L + 1, dtype=np.uint64)  # prefix[n] = Phi(n)
    for lo, phi in _totient_blocks(L, Convention.MODERN):
        run = prefix[lo:lo + len(phi)]
        np.cumsum(phi, out=run)
        run += prefix[lo - 1]
        del phi  # not held while the next block is made
    J = D // (L + 1)
    big = np.zeros(J + 1, dtype=np.uint64)
    for j in range(J, 0, -1):
        m, r = D // j, math.isqrt(D // j)
        inner = min(r, J // j)  # the d with D // (j * d) above L
        total = m * (m + 1) // 2 - int(big[2 * j:inner * j + 1:j].sum())
        d = np.arange(max(2, inner + 1), r + 1, dtype=np.int64)
        total -= int(prefix[m // d].sum())
        # m // q for q = 1..m // (r + 1) + 1, the last of which is r
        quotients = m // np.arange(1, m // (r + 1) + 2, dtype=np.uint64)
        total -= int(np.dot(quotients[:-1] - quotients[1:], prefix[1:len(quotients)]))
        big[j] = total % 2**64
    return int(big[1]) if J else int(prefix[D])


def count_by_totient_sum(max_denominator: int) -> int:
    """Reduced fractions in (0, 1) with denominator <= D, as the sum of
    totient(k) for k = 2..D: _totient_sum less the k = 1 term."""
    _check_range(max_denominator, "max_denominator", 2, SIEVE_LIMIT, "table limit")
    return _totient_sum(max_denominator) - 1


def count_by_exclusion(max_denominator: int) -> FareyCountReport:
    """Count reduced fractions by excluding reducible forms from the total.

    Of the D(D-1)/2 unreduced pairs a/b, the fractions equal in value to
    some j/k (j < k coprime) appear with denominators k, 2k, ...,
    floor(D/k) * k; all but the first are reducible, so k contributes
    (floor(D/k) - 1) * totient(k) exclusions.  Terms with floor(D/k) < 2
    contribute nothing, so the sum stops after k = N = floor(D/2).

    The weight floor(D/k) - 1 is constant over each run of k that share
    floor(D/k), fewer than 2 sqrt(D) runs: each k <= r = isqrt(D) is one,
    and the larger k run from D // (q + 1) + 1 for q = D // (r + 1) down
    to 2.  The first of those is r + 1 (D // (q + 1) is r itself, as in
    _totient_sum), so the starts ascend strictly.  Each block sums its
    values over the runs it meets with one reduceat, from its own first
    k, and takes one dot with the runs' weights: no division per entry.

    The values are those of the sieve's smooth blocks of 1..N, and no
    table and no list of primes is held.  A value is totient(n), except at
    n = j * P with P a prime above R = isqrt(N), where it is totient(j) * P,
    totient(j) too much (j = 1 included: totient(P) = P - 1).  Such an n is
    weighted by the number of q >= 2 with j * q * P <= D, and the totients
    of the proper divisors j of k = j * q sum to the cototient
    k - totient(k), so the excess is

        sum over k = 2..K of (k - totient(k)) * (pi(D // k) - pi(R)),

    K = D // (R + 1) being the last k with a prime in (R, D // k]; q >= 2
    keeps j * P <= N.  The points D // k ascend as k falls, so each block
    counts its primes up to the points inside it with one searchsorted,
    onto the running count of the blocks before, and pi is never held.
    Every k <= K <= 2R + 1 is in the first block (sieve._BLOCK), where its
    value is totient(k) but at the primes in (R, K], which read P.  The
    count_by_totient_sum field comes from _totient_sum, another algorithm
    on another sieve prefix, so the two counts check each other;
    count_by_enumeration is the independent oracle.
    """
    D = max_denominator
    _check_range(D, "max_denominator", 2, SIEVE_LIMIT, "table limit")
    total_unreduced = D * (D - 1) // 2
    r = math.isqrt(D)
    starts = np.concatenate((np.arange(1, r + 1, dtype=np.int64),
                             D // np.arange(D // (r + 1) + 1, 2, -1, dtype=np.int64) + 1))
    N = D // 2
    R = math.isqrt(N)
    K = D // (R + 1)
    k = np.arange(K, 1, -1, dtype=np.int64)
    points = D // k  # ascending
    excluded = 0
    done = 0  # the points in the blocks before the one in hand
    below = 0  # the primes above R in those blocks
    for lo, values, primes in _smooth_blocks(N):
        if lo == 1:
            cototient = k.astype(np.uint64)
            cototient -= values[k - 1]  # but 0 at the primes in (R, K], not 1
            cototient[K - primes[:np.searchsorted(primes, K, side="right")]] += 1
            values[0] = 0  # the k=1 term is 0
        hi = lo + len(values) - 1
        # the block's runs: from lo, then from each start inside the block
        first, last = np.searchsorted(starts, (lo, hi), side="right")
        runs = np.concatenate(([lo], starts[first:last]))
        weights = (D // runs - 1).astype(np.uint64)
        excluded += int(np.dot(weights, np.add.reduceat(values, runs - lo)))
        # pi(point) - pi(R) at the block's points
        upto = int(np.searchsorted(points, hi, side="right"))
        pi = np.searchsorted(primes, points[done:upto], side="right").astype(np.uint64)
        pi += below
        excluded -= int(np.dot(cototient[done:upto], pi))
        done = upto
        below += len(primes)
        del values, primes  # not held while the next block is made
    return FareyCountReport(
        max_denominator=D,
        total_unreduced=total_unreduced,
        excluded=excluded,
        count_by_exclusion=total_unreduced - excluded,
        count_by_totient_sum=count_by_totient_sum(D),
    )


def count_reducible(max_denominator: int) -> int:
    """Unreduced-form pairs a/b (1 <= a < b <= D) that are NOT in lowest terms."""
    D = max_denominator
    return D * (D - 1) // 2 - count_by_totient_sum(D)


def count_by_enumeration(max_denominator: int) -> int:
    """Count coprime pairs (a, b) with a < b <= D by the definitional
    double loop.  The independent oracle for the other two routes."""
    D = max_denominator
    _check_range(D, "max_denominator", 2, ENUMERATION_BOUND, "enumeration bound",
                 "; count_by_enumeration is O(D^2 log D)")
    g = math.gcd
    return sum(1 for b in range(2, D + 1) for a in range(1, b) if g(a, b) == 1)


def iter_farey_pairs(max_denominator: int) -> Iterator[tuple[int, int]]:
    """The reduced fractions in (0, 1) with denominator <= D, as
    (numerator, denominator) ints in strictly increasing value order.

    Uses the classic neighbor recurrence: seeded with the virtual endpoint
    0/1 and the first interior term 1/D, consecutive terms a/b, c/d give
    the next term as k*(c, d) - (a, b) with k = (D + b) // d.  The
    endpoints 0/1 and 1/1 are never yielded.  D is checked at the call,
    before the first term is asked for.
    """
    _check_range(max_denominator, "max_denominator", 2, SIEVE_LIMIT, "table limit")
    return _neighbor_walk(max_denominator)


def _neighbor_walk(D: int) -> Iterator[tuple[int, int]]:
    a, b, c, d = 0, 1, 1, D
    while d > 1:  # d == 1 means the walk reached the endpoint 1/1
        yield c, d
        k = (D + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def iter_farey_sequence(max_denominator: int) -> Iterator[Fraction]:
    """iter_farey_pairs as fractions.Fraction values."""
    from fractions import Fraction

    return starmap(Fraction, iter_farey_pairs(max_denominator))


def _farey_windows(D: int) -> int:
    """How many value windows _farey_blocks splits (0, 1) into: D^2 // (3 T)
    for T = min(max(2**14, 16 D), _BLOCK) terms per window, or one.

    A window's temporaries take about 60 bytes per term, so T sets the
    working set; it is 2**14 up to D = 1024.  Each window also costs O(D),
    the lo, counts and repeat vectors over every denominator, which 16 D
    keeps within a sixteenth of its terms.  T stops at _BLOCK from
    D = 4096 on, so no D holds more than that.
    """
    terms = min(max(1 << 14, 16 * D), _BLOCK)
    return max(1, D * D // (3 * terms))


def _farey_blocks(D: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The terms of iter_farey_pairs(D) as (numerators, denominators) int64
    arrays, one value window [i/M, (i+1)/M) at a time, M = _farey_windows(D).

    A window's candidates are the a/b with b <= D and
    ceil(i b / M) <= a < ceil((i+1) b / M), denominators ascending.  Their
    keys (a M - i b) K // b = floor(K M (a/b - i/M)) lie in [0, K) with
    K = ceil(D^2 / M): distinct values lie at least 1/D^2 apart, so their
    keys differ by at least K M / D^2 >= 1, and equal values share a key.
    np.minimum.at keeps in each key's slot the least index of its
    candidates; a value's forms a/b, 2a/2b, ... come in that order, so that
    is its reduced form.  The filled slots, in key order, are the
    window's terms ascending.  With T the terms per window of
    _farey_windows, K <= 6 T <= 6 * _BLOCK (M > D^2 / (6 T) when M >= 2,
    and K = D^2 < 6 T when M = 1), and M <= D^2 / (3 * 2**14).  So a M and
    i b stay below D M <= D^3 / (3 * 2**14), and (a M - i b) K below
    D K <= 6 * _BLOCK * D, as a M - i b < b: inside int64 for
    D <= FAREY_MATERIALIZE_BOUND and far beyond.  A window costs O(D)
    besides its terms.  D is checked, against 2 and the bound, when the
    first block is asked for.
    """
    _check_range(D, "max_denominator", 2, FAREY_MATERIALIZE_BOUND, "sequence bound",
                 "; iter_farey_pairs and iter_farey_sequence stream beyond it")
    M = _farey_windows(D)
    K = -(-D * D // M)
    b = np.arange(1, D + 1, dtype=np.int64)
    for i in range(M):
        lo = np.maximum(-(-i * b // M), 1)  # ceil(i b / M), and a >= 1
        counts = -(-(i + 1) * b // M) - lo
        den = np.repeat(b, counts)
        # a runs from lo up within each denominator's stretch of den
        num = np.arange(len(den), dtype=np.int64)
        num += np.repeat(lo - (np.cumsum(counts) - counts), counts)
        key = num * M
        key -= i * den
        key *= K
        key //= den
        first = np.full(K, len(num), dtype=np.int32)  # len(num) marks an empty slot
        np.minimum.at(first, key, np.arange(len(num), dtype=np.int32))
        del key  # freed before the filled slots' indices are made
        # flatnonzero and a take: a boolean index over the sparse slots is 3-4 times slower
        first = first[np.flatnonzero(first < len(num))]
        num, den = num[first], den[first]
        del first  # not held while the block is consumed
        yield num, den


def farey_sequence(max_denominator: int) -> list[Fraction]:
    """iter_farey_sequence as a list, read from _farey_blocks (which refuses
    D above FAREY_MATERIALIZE_BOUND); its length is count_by_totient_sum(D)."""
    from fractions import Fraction

    return [
        Fraction(a, b)
        for num, den in _farey_blocks(max_denominator)
        for a, b in zip(num.tolist(), den.tolist())
    ]
