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

#: Rows or groups reduced and converted to ints at a time.
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


def _reduced(phi: np.ndarray, n: np.ndarray) -> tuple[list[int], list[int]]:
    """Numerators and denominators of phi/n in lowest terms, as ints."""
    g = np.gcd(phi, n)
    return (phi // g).tolist(), (n // g).tolist()


def _coefficient_rows(max_n: int) -> Iterator[tuple[int, int, int, int]]:
    """(n, totient(n), num, den) for n = 2..max_n, num/den being totient(n)/n
    in lowest terms.  max_n is checked and the one sieve built when the
    first row is asked for; rows are then reduced _CHUNK at a time."""
    if max_n < 2:
        raise ValueError(f"series needs max_n >= 2, got {max_n}")
    phi = totient_sieve(max_n, Convention.EULER).values
    for start in range(2, max_n + 1, _CHUNK):
        n = np.arange(start, min(start + _CHUNK, max_n + 1), dtype=np.uint64)
        block = phi[start - 1:start - 1 + len(n)]
        yield from zip(n.tolist(), block.tolist(), *_reduced(block, n))


def integrated_series_coefficients(max_n: int) -> list[Fraction]:
    """The reduced coefficients totient(n)/n for n = 2..max_n, in order."""
    return [Fraction(num, den) for _, _, num, den in _coefficient_rows(max_n)]


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


def _coefficient_groups(max_n: int) -> Iterator[tuple[int, int, int, list[int]]]:
    """(radical, num, den, members) for each group of 2..max_n with equal
    totient(n)/n = num/den in lowest terms, ascending by radical and each
    group's members ascending.  As in _coefficient_rows, the arrays are
    built when the first group is asked for."""
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
    for first in range(0, len(radicals), _CHUNK):
        r = radicals[first:first + _CHUNK].astype(np.uint64)
        nums, dens = _reduced(phi[first:first + len(r)], r)
        edges = bounds[first:first + len(r) + 1]
        members = (order[edges[0]:edges[-1]] + 2).tolist()
        edges = (edges - edges[0]).tolist()
        for radical, num, den, a, b in zip(r.tolist(), nums, dens, edges, edges[1:]):
            yield radical, num, den, members[a:b]


def group_by_coefficient(max_n: int) -> list[CoefficientGroup]:
    """Partition 2..max_n into groups of equal totient(n)/n, keyed by
    radical, ascending."""
    return [
        CoefficientGroup(coefficient=Fraction(num, den), radical=r, members=tuple(members))
        for r, num, den, members in _coefficient_groups(max_n)
    ]
