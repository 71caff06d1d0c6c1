"""Coefficient analysis of the totient generating series: integer
coefficients totient(n), the integrated coefficients totient(n)/n, and the
grouping of equal coefficients by squarefree kernel.

Coefficients are exact rationals end to end (grouping by equality demands
exactness).  They are reduced in integer numpy arithmetic, num/den =
(phi/g)/(n/g) with g = gcd(phi, n), a chunk at a time; the CLI writes them
as they come, and only the library's lists hold fractions.Fraction values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .core import Convention, factorize, totient
from .sieve import (
    SIEVE_LIMIT,
    _large_prime_cofactors,
    _primes_split_at_root,
    totient_sieve,
)

#: Rows reduced at a time; when grouping, the most members converted to
#: ints at a time, unless one group alone holds more.
_CHUNK = 1 << 16


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
    """(n, totient(n), num, den) as uint64 columns for n = 2..max_n, _CHUNK
    rows at a time, num/den being totient(n)/n in lowest terms.  max_n is
    checked and the one sieve built when the first block is asked for."""
    if max_n < 2:
        raise ValueError(f"series needs max_n >= 2, got {max_n}")
    phi = totient_sieve(max_n, Convention.EULER).values
    for start in range(2, max_n + 1, _CHUNK):
        n = np.arange(start, min(start + _CHUNK, max_n + 1), dtype=np.uint64)
        block = phi[start - 1:start - 1 + len(n)]
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
    """rad[n] = product of the distinct primes dividing n, for 0..max_n."""
    rad = np.ones(max_n + 1, dtype=np.int64)
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


def _coefficient_groups(max_n: int) -> Iterator[Iterator[tuple[int, int, int, list[int]]]]:
    """(radical, num, den, members) for each group of 2..max_n with equal
    totient(n)/n = num/den in lowest terms, ascending by radical and each
    group's members ascending, in one iterator per chunk of _group_chunks.
    As in _coefficient_blocks, the arrays are built when the first chunk is
    asked for."""
    if max_n < 2:
        raise ValueError(f"grouping needs max_n >= 2, got {max_n}")
    if max_n > SIEVE_LIMIT:
        raise ValueError(f"max_n={max_n} exceeds the table limit {SIEVE_LIMIT}")
    rad = _radical_table(max_n)[2:]
    sizes = np.bincount(rad)  # sizes[r] = how many n have radical r
    radicals = np.flatnonzero(sizes)  # the squarefree r in 2..max_n
    bounds = np.zeros(len(radicals) + 1, dtype=np.int64)
    np.cumsum(sizes[radicals], out=bounds[1:])
    del sizes
    # stable, so each group's members stay ascending
    order = np.argsort(rad, kind="stable")
    del rad
    # last, so that the sieve's build does not overlap the arrays deleted above
    phi = totient_sieve(max_n, Convention.EULER).values[radicals - 1]
    for first, end in _group_chunks(bounds):
        r = radicals[first:end].astype(np.uint64)
        nums, dens = _reduced(phi[first:end], r)
        edges = bounds[first:end + 1]
        members = (order[edges[0]:edges[-1]] + 2).tolist()
        edges = (edges - edges[0]).tolist()
        yield (
            (radical, num, den, members[a:b])
            for radical, num, den, a, b in zip(r.tolist(), nums.tolist(), dens.tolist(),
                                               edges, edges[1:])
        )


def group_by_coefficient(max_n: int) -> list[CoefficientGroup]:
    """Partition 2..max_n into groups of equal totient(n)/n, keyed by
    radical, ascending."""
    return [
        CoefficientGroup(coefficient=Fraction(num, den), radical=r, members=tuple(members))
        for chunk in _coefficient_groups(max_n)
        for r, num, den, members in chunk
    ]
