"""Counting and enumerating the reduced fractions strictly between 0 and 1
with denominator at most D, by three independent routes: totient summation,
exclusion of reducible forms from the D(D-1)/2 total, and the definitional
double-loop enumeration.

All counting is exact integer arithmetic.  The sequence's terms are
fractions.Fraction, the type the series module returns too; they order by
exact cross-multiplication, never floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import starmap
from typing import Iterator

import numpy as np

from .core import Convention
from .sieve import SIEVE_LIMIT, totient_sieve

#: count_by_enumeration is O(D^2 log D); it refuses D above this.
ENUMERATION_BOUND = 10**4

#: farey_sequence materializes about 3 D^2 / pi^2 fraction objects (roughly
#: 2 GB at this bound); iter_farey_pairs and iter_farey_sequence stream
#: without that cost.  The CLI's `farey` streams too, so there the bound
#: limits time (about 30 M rows), not memory.
FAREY_MATERIALIZE_BOUND = 10**4


def _check_denominator(max_denominator: int) -> None:
    if max_denominator < 2:
        raise ValueError(
            f"max denominator must be >= 2, got {max_denominator}"
        )
    if max_denominator > SIEVE_LIMIT:
        raise ValueError(
            f"max denominator {max_denominator} exceeds the table limit {SIEVE_LIMIT}"
        )


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
        ``"lhs=value != rhs=value"``, or None when every one holds."""
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


def count_by_totient_sum(max_denominator: int) -> int:
    """Reduced fractions in (0, 1) with denominator <= D, as sum of
    totient(k) for k = 2..D."""
    _check_denominator(max_denominator)
    table = totient_sieve(max_denominator, Convention.EULER)
    return int(table.values.sum(dtype=np.uint64))  # the k=1 term is 0


def count_by_exclusion(max_denominator: int) -> FareyCountReport:
    """Count reduced fractions by excluding reducible forms from the total.

    Of the D(D-1)/2 unreduced pairs a/b, the fractions equal in value to
    some j/k (j < k coprime) appear with denominators k, 2k, ...,
    floor(D/k) * k; all but the first are reducible, so k contributes
    (floor(D/k) - 1) * totient(k) exclusions.  Terms with floor(D/k) < 2
    contribute nothing, so the sum stops after k = floor(D/2).  The
    exclusion sum and the count_by_totient_sum field are both read from one
    totient table up to D; count_by_enumeration is the independent oracle.
    """
    D = max_denominator
    _check_denominator(D)
    total_unreduced = D * (D - 1) // 2
    phi = totient_sieve(D, Convention.EULER).values
    half = D // 2
    # one D/2 buffer: k, then floor(D/k) - 1, then the terms
    terms = np.arange(2, half + 1, dtype=np.uint64)
    np.floor_divide(D, terms, out=terms)
    terms -= 1
    terms *= phi[1:half]
    excluded = int(terms.sum(dtype=np.uint64))
    return FareyCountReport(
        max_denominator=D,
        total_unreduced=total_unreduced,
        excluded=excluded,
        count_by_exclusion=total_unreduced - excluded,
        count_by_totient_sum=int(phi.sum(dtype=np.uint64)),  # the k=1 term is 0
    )


def count_reducible(max_denominator: int) -> int:
    """Unreduced-form pairs a/b (1 <= a < b <= D) that are NOT in lowest terms."""
    D = max_denominator
    _check_denominator(D)
    return D * (D - 1) // 2 - count_by_totient_sum(D)


def count_by_enumeration(max_denominator: int) -> int:
    """Count coprime pairs (a, b) with a < b <= D by the definitional
    double loop.  The independent oracle for the other two routes."""
    D = max_denominator
    _check_denominator(D)
    if D > ENUMERATION_BOUND:
        raise ValueError(
            f"enumeration is O(D^2 log D); D={D} exceeds the bound {ENUMERATION_BOUND}"
        )
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
    _check_denominator(max_denominator)
    return _neighbor_walk(max_denominator)


def _neighbor_walk(D: int) -> Iterator[tuple[int, int]]:
    a, b, c, d = 0, 1, 1, D
    while d > 1:  # d == 1 means the walk reached the endpoint 1/1
        yield c, d
        k = (D + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def iter_farey_sequence(max_denominator: int) -> Iterator[Fraction]:
    """iter_farey_pairs as fractions.Fraction values."""
    return starmap(Fraction, iter_farey_pairs(max_denominator))


def farey_sequence(max_denominator: int) -> list[Fraction]:
    """Materialized iter_farey_sequence; length equals count_by_totient_sum(D)."""
    if max_denominator > FAREY_MATERIALIZE_BOUND:
        raise ValueError(
            f"materializing D={max_denominator} needs ~3 D^2 / pi^2 objects; "
            f"the bound is {FAREY_MATERIALIZE_BOUND}, use iter_farey_sequence instead"
        )
    return list(iter_farey_sequence(max_denominator))
