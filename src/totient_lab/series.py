"""Coefficient analysis of the totient generating series: integer
coefficients totient(n), the integrated coefficients totient(n)/n, and the
grouping of equal coefficients by squarefree kernel.

Coefficients are exact rationals end to end (grouping by equality demands
exactness), so everything is built on fractions.Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Convention, factorize, totient
from .sieve import (
    SIEVE_LIMIT,
    _large_prime_cofactors,
    _primes_split_at_root,
    totient_sieve,
)

#: Exact reduced rational.  Fraction normalizes on construction, which is
#: exactly the contract needed here: gcd(num, den) = 1 and den >= 1.
ExactRational = Fraction


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
    return totient_sieve(max_n, Convention.EULER).json_values()


def integrated_series_coefficients(max_n: int) -> list[Fraction]:
    """The reduced coefficients totient(n)/n for n = 2..max_n, in order."""
    if max_n < 2:
        raise ValueError(f"series needs max_n >= 2, got {max_n}")
    values = totient_sieve(max_n, Convention.EULER).json_values()
    return [Fraction(values[n - 1], n) for n in range(2, max_n + 1)]


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


def group_by_coefficient(max_n: int) -> list[CoefficientGroup]:
    """Partition 2..max_n into groups of equal totient(n)/n, keyed by
    radical, ascending."""
    if max_n < 2:
        raise ValueError(f"grouping needs max_n >= 2, got {max_n}")
    if max_n > SIEVE_LIMIT:
        raise ValueError(f"max_n={max_n} exceeds the table limit {SIEVE_LIMIT}")
    phi = totient_sieve(max_n, Convention.EULER).values
    rad = _radical_table(max_n)[2:]
    # stable, so each group's members stay ascending
    order = np.argsort(rad, kind="stable")
    sorted_rad = rad[order]
    starts = np.flatnonzero(np.diff(sorted_rad, prepend=0))  # radicals are >= 1
    radicals = sorted_rad[starts]
    members = (order + 2).tolist()
    bounds = [*starts.tolist(), len(members)]
    return [
        CoefficientGroup(
            coefficient=Fraction(phi_r, r),
            radical=r,
            members=tuple(members[a:b]),
        )
        for r, phi_r, a, b in zip(
            radicals.tolist(), phi[radicals - 1].tolist(), bounds, bounds[1:]
        )
    ]
