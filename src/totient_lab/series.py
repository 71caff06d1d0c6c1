"""Coefficient analysis of the totient generating series: integer
coefficients totient(n), the integrated coefficients totient(n)/n, and the
grouping of equal coefficients by squarefree kernel.

Coefficients are exact rationals end to end (grouping by equality demands
exactness).  They are reduced in integer numpy arithmetic, num/den =
(phi/g)/(n/g) with g = gcd(phi, n), a chunk of the sieve's blocks at a
time, and the groups are made from the same blocks, with no radical table.
Both leave this module as integer arrays, rendered by the CLI as they come.
fractions.Fraction values are built only by phi_over_n and for the
library's lists, by integrated_series_coefficients and
group_by_coefficient; only these import fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .core import Convention, _check_range, factorize, totient
from .sieve import SIEVE_LIMIT, _totient_blocks, primes_up_to, totient_sieve

if TYPE_CHECKING:
    from fractions import Fraction

#: Largest max_n the list functions (series_coefficients,
#: integrated_series_coefficients, group_by_coefficient) take: they build
#: about 48, 121 and 230 bytes of Python objects per entry (measured at
#: 10**6 and 3*10**6).  The CLI's `series` streams, bounded by the sieve.
SERIES_MATERIALIZE_BOUND = 10**7

#: Rows reduced, and radicals grouped, at a time: it sizes the gcd and
#: pairing temporaries; the renderer sizes its own passes.
_CHUNK = 1 << 14


def phi_over_n(n: int) -> Fraction:
    """The reduced rational totient(n)/n, i.e. prod (p-1)/p over the
    distinct primes p dividing n.

    n = 1 is rejected: its totient is 0 under the EULER convention, so the
    would-be coefficient carries no information.
    """
    from fractions import Fraction

    _check_range(n, "n", 2)
    return Fraction(totient(n, Convention.EULER), n)


def radical(n: int) -> int:
    """Squarefree kernel of n: the product of its distinct prime divisors.

    radical(1) is the empty product, 1.
    """
    result = 1
    for prime, _ in factorize(n).factors:
        result *= prime
    return result


def series_coefficients(max_n: int) -> list[int]:
    """Totient values (EULER convention) for n = 1..max_n; entry 1 is 0."""
    _check_range(max_n, "max_n", 2, SERIES_MATERIALIZE_BOUND, "bound",
                 "; the CLI's series streams beyond it")
    return totient_sieve(max_n, Convention.EULER).values.tolist()


def _reduced(phi: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerators and denominators of phi/n in lowest terms, as uint32,
    which holds every n <= SIEVE_LIMIT and on which np.gcd is faster than
    on uint64."""
    phi, n = phi.astype(np.uint32), n.astype(np.uint32)
    g = np.gcd(phi, n)
    phi //= g
    n //= g
    return phi, n


def _coefficient_blocks(max_n: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(n, totient(n), num, den) for n = 2..max_n, at most _CHUNK rows at a
    time, num/den being totient(n)/n in lowest terms: n and totient(n) as
    uint64 columns, num and den as uint32.  The
    totients are read from the sieve's blocks as they come, so no table is
    held; max_n is checked when the first block is asked for."""
    _check_range(max_n, "max_n", 2, SIEVE_LIMIT, "table limit")
    for lo, phi in _totient_blocks(max_n, Convention.EULER):
        for start in range(max(lo, 2), lo + len(phi), _CHUNK):
            block = phi[start - lo:start - lo + _CHUNK]
            n = np.arange(start, start + len(block), dtype=np.uint64)
            yield (n, block, *_reduced(block, n))
        del phi, block, n  # not held while the next block is made


def integrated_series_coefficients(max_n: int) -> list[Fraction]:
    """The reduced coefficients totient(n)/n for n = 2..max_n, in order."""
    from fractions import Fraction

    _check_range(max_n, "max_n", 2, SERIES_MATERIALIZE_BOUND, "bound",
                 "; the CLI's series streams beyond it")
    return [
        Fraction(num, den)
        for _, _, nums, dens in _coefficient_blocks(max_n)
        for num, den in zip(nums.tolist(), dens.tolist())
    ]


@dataclass(frozen=True)
class CoefficientGroup:
    """All n in 2..max_n sharing one integrated-series coefficient.

    totient(n)/n depends only on the distinct primes of n, so the members
    are exactly the n whose squarefree kernel equals ``radical``.
    """

    coefficient: Fraction
    radical: int
    members: tuple[int, ...]


def _ranges(first: np.ndarray, counts: np.ndarray, step: np.ndarray) -> np.ndarray:
    """first[i] + j * step[i] for j = 0..counts[i] - 1, for each i in turn,
    in the dtype of counts, which first and step share."""
    run = np.repeat(np.cumsum(counts, dtype=counts.dtype) - counts, counts)  # where each run starts
    run -= np.arange(len(run), dtype=run.dtype)
    run *= np.repeat(-step, counts)
    run += np.repeat(first, counts)
    return run


def _cofactors(primes: np.ndarray, max_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The k with k * rad(k) <= max_n, ascending, and their radicals rad(k),
    as int32; ``primes`` holds the primes <= isqrt(max_n), the only ones
    such a k can have.  The products are made in int64: none exceeds
    max_n**2, which int64 holds."""
    ks, rads = np.ones(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for p in primes.tolist():
        # the k found so far have only primes below p: add each k * p**e
        parts, k, rad = [(ks, rads)], ks, rads * p
        while (fits := k * rad * p <= max_n).any():
            k, rad = k[fits] * p, rad[fits]
            parts.append((k, rad))
        ks, rads = map(np.concatenate, zip(*parts))
    order = np.argsort(ks)
    return ks[order].astype(np.int32), rads[order].astype(np.int32)


def _coefficient_groups(max_n: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The groups of 2..max_n with equal totient(n)/n, ascending by radical,
    a sub-block of radicals at a time: (radicals, nums, dens, edges,
    members), where num/den = totient(r)/r in lowest terms for each radical
    r and the group of radicals[g] holds members[edges[g]:edges[g + 1]],
    ascending.

    n has radical r exactly when n = r * k, r being squarefree and rad(k)
    dividing r.  Then k * rad(k) <= n, so k is one of the _cofactors of
    max_n, 2,027 of them at 10**6.  The radicals are taken _CHUNK at a time,
    [s, e), in the sieve's blocks: the multiples of p * p in [s, e) are not
    squarefree, and the others pair with each k <= max_n // s whose rad(k)
    divides them.  Sorted by (r, k), the pairs give the members r * k, and
    totient(r) is read from the block, so nothing of size max_n is held.
    The pairs are int32, members included, and their offsets r - s, each
    below _CHUNK <= 2**16, uint16 once the squarefree r are picked, so the
    stable argsort that orders them is a radix sort.
    max_n is checked when the first chunk is asked for.
    """
    _check_range(max_n, "max_n", 2, SIEVE_LIMIT, "table limit")
    # int32 holds every value made below: none exceeds 2 * SIEVE_LIMIT < 2**31
    primes = primes_up_to(isqrt(max_n))
    squares = (primes * primes).astype(np.int32)
    ks, rads = _cofactors(primes, max_n)
    for lo, phi in _totient_blocks(max_n, Convention.EULER):
        for s in range(max(lo, 2), lo + len(phi), _CHUNK):
            e = min(s + _CHUNK, lo + len(phi))
            # the radicals r in [s, e) and the multiples of q, less s
            q = squares[:np.searchsorted(squares, e - 1, side="right")]
            above = -(-s // q)  # the least multiple of q from s on, over q
            squarefree = np.ones(e - s, dtype=bool)
            squarefree[_ranges(above * q - s, (e - 1) // q - above + 1, q)] = False
            k = ks[:np.searchsorted(ks, max_n // s, side="right")]
            rad = rads[:len(k)]
            above = -(-s // rad)
            counts = np.minimum(e - 1, max_n // k) // rad - above + 1
            r = _ranges(above * rad - s, counts, rad)
            keep = np.flatnonzero(squarefree[r])
            # each array is dropped once read: the first sub-block's pairs
            # set the peak of the whole stream
            r = r[keep].astype(np.uint16)
            k = np.repeat(k, counts)[keep]
            del keep, squarefree
            sizes = np.bincount(r, minlength=e - s)
            order = np.argsort(r, kind="stable")  # a radix sort; k stays ascending in each r
            members = r.astype(np.int32)
            del r
            members += s
            members *= k
            del k
            members = members[order]
            del order
            radicals = np.flatnonzero(sizes)
            if not radicals.size:  # no squarefree r, as in [65538, 65539) at 65538
                continue
            edges = np.concatenate(([0], np.cumsum(sizes[radicals])))
            g = (radicals + s).astype(np.uint64)
            yield g, *_reduced(phi[radicals + (s - lo)], g), edges, members


def group_by_coefficient(max_n: int) -> list[CoefficientGroup]:
    """Partition 2..max_n into groups of equal totient(n)/n, keyed by
    radical, ascending."""
    from fractions import Fraction

    _check_range(max_n, "max_n", 2, SERIES_MATERIALIZE_BOUND, "bound",
                 "; the CLI's series streams beyond it")
    groups = []
    for radicals, nums, dens, edges, members in _coefficient_groups(max_n):
        members, edges = members.tolist(), edges.tolist()
        groups += [
            CoefficientGroup(coefficient=Fraction(num, den), radical=r, members=tuple(members[a:b]))
            for r, num, den, a, b in zip(radicals.tolist(), nums.tolist(), dens.tolist(),
                                         edges, edges[1:])
        ]
    return groups
