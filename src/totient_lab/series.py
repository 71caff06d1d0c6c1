"""Coefficient analysis of the totient generating series: integer
coefficients totient(n), the integrated coefficients totient(n)/n, and the
grouping of equal coefficients by squarefree kernel.

Coefficients are exact rationals end to end (grouping by equality demands
exactness).  They are reduced in integer numpy arithmetic, num/den =
(phi/g)/(n/g) with g = gcd(phi, n), a chunk at a time, and leave this
module as uint64 arrays; the CLI renders those arrays as they come.
fractions.Fraction values are built only for the library's lists, by
integrated_series_coefficients and group_by_coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .core import Convention, factorize, totient
from .sieve import (
    _check_table_size,
    _large_prime_cofactors,
    _primes_split_at_root,
    _totient_blocks,
    totient_sieve,
)

#: Rows reduced at a time; when grouping, the most members a chunk of
#: groups holds, unless one group alone holds more.
_CHUNK = 1 << 14


def phi_over_n(n: int) -> Fraction:
    """The reduced rational totient(n)/n, i.e. prod (p-1)/p over the
    distinct primes p dividing n.

    n = 1 is rejected: its totient is 0 under the EULER convention, so the
    would-be coefficient carries no information.
    """
    if n < 2:
        raise ValueError(f"phi_over_n needs n >= 2, got {n}")
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
    if max_n < 2:
        raise ValueError(f"series needs max_n >= 2, got {max_n}")
    return totient_sieve(max_n, Convention.EULER).values.tolist()


def _reduced(phi: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numerators and denominators of phi/n in lowest terms."""
    g = np.gcd(phi, n)
    return phi // g, n // g


def _coefficient_blocks(max_n: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(n, totient(n), num, den) as uint64 columns for n = 2..max_n, at most
    _CHUNK rows at a time, num/den being totient(n)/n in lowest terms.  The
    totients are read from the sieve's blocks as they come, so no table is
    held; max_n is checked when the first block is asked for."""
    if max_n < 2:
        raise ValueError(f"series needs max_n >= 2, got {max_n}")
    for lo, phi in _totient_blocks(max_n, Convention.EULER):
        for start in range(max(lo, 2), lo + len(phi), _CHUNK):
            block = phi[start - lo:start - lo + _CHUNK]
            n = np.arange(start, start + len(block), dtype=np.uint64)
            yield (n, block, *_reduced(block, n))


def integrated_series_coefficients(max_n: int) -> list[Fraction]:
    """The reduced coefficients totient(n)/n for n = 2..max_n, in order."""
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


def _radical_table(max_n: int) -> np.ndarray:
    """rad[n] = product of the distinct primes dividing n, for 0..max_n, as
    int32, which holds every radical up to SIEVE_LIMIT at half the bytes."""
    rad = np.ones(max_n + 1, dtype=np.int32)
    small, large = _primes_split_at_root(max_n)
    for p in small.tolist():
        rad[p::p] *= p
    for j, ps in _large_prime_cofactors(max_n, large):
        rad[ps * j] *= ps  # rad(j * p) = rad(j) * p
    return rad


def _group_chunks(bounds: np.ndarray) -> Iterator[tuple[int, int]]:
    """(first, end) group indices of successive chunks, group g holding the
    bounds[g + 1] - bounds[g] members: each chunk takes the groups whose
    members stay within _CHUNK, and at least one group."""
    first, groups = 0, len(bounds) - 1
    while first < groups:
        end = int(np.searchsorted(bounds, bounds[first] + _CHUNK, side="right")) - 1
        end = max(end, first + 1)
        yield first, end
        first = end


def _coefficient_groups(max_n: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The groups of 2..max_n with equal totient(n)/n, ascending by radical,
    a chunk of _group_chunks at a time: (radicals, nums, dens, edges,
    members), where num/den = totient(r)/r in lowest terms for each radical
    r and the group of radicals[g] holds members[edges[g]:edges[g + 1]],
    ascending.  As in _coefficient_blocks, the arrays are built when the
    first chunk is asked for."""
    if max_n < 2:
        raise ValueError(f"grouping needs max_n >= 2, got {max_n}")
    _check_table_size(max_n)
    rad = _radical_table(max_n)[2:]
    sizes = np.bincount(rad)  # sizes[r] = how many n have radical r
    radicals = np.flatnonzero(sizes)  # the squarefree r in 2..max_n
    np.cumsum(sizes, out=sizes)  # now how many n have radical <= r
    bounds = np.zeros(len(radicals) + 1, dtype=np.int64)
    np.take(sizes, radicals, out=bounds[1:])
    del sizes
    # stable, so each group's members stay ascending
    order = np.argsort(rad, kind="stable")
    del rad
    # totient(r) gathered from the sieve's blocks, so no whole table is held
    phi = np.empty(len(radicals), dtype=np.uint64)
    for lo, block in _totient_blocks(max_n, Convention.EULER):
        a, b = np.searchsorted(radicals, (lo, lo + len(block)))
        phi[a:b] = block[radicals[a:b] - lo]
    for first, end in _group_chunks(bounds):
        r = radicals[first:end].astype(np.uint64)
        edges = bounds[first:end + 1]
        yield (r, *_reduced(phi[first:end], r), edges - edges[0],
               order[edges[0]:edges[-1]] + 2)


def group_by_coefficient(max_n: int) -> list[CoefficientGroup]:
    """Partition 2..max_n into groups of equal totient(n)/n, keyed by
    radical, ascending."""
    groups = []
    for radicals, nums, dens, edges, members in _coefficient_groups(max_n):
        members, edges = members.tolist(), edges.tolist()
        groups += [
            CoefficientGroup(coefficient=Fraction(num, den), radical=r, members=tuple(members[a:b]))
            for r, num, den, a, b in zip(radicals.tolist(), nums.tolist(), dens.tolist(),
                                         edges, edges[1:])
        ]
    return groups
