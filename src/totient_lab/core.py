"""Exact integer arithmetic: gcd, trial-division factorization, and the
totient computed both by the closed-form prime product and by definitional
brute force.

Every function here is pure and works on plain Python ints.  _check_range
is the package's one refusal of an integer argument outside an entry
point's range: a ValueError below the range; an OverflowError above
``INT_CEILING`` (the unsigned 64-bit range), whatever the entry point's own
bound, so callers never depend on silently unbounded arithmetic; and up to
the ceiling, a ValueError that names the bound it exceeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

#: Largest accepted input value (unsigned 64-bit range).
INT_CEILING = 2**64 - 1

#: totient_bruteforce and coprime_numerators are O(n log n) per call and
#: refuse n above this rather than running for minutes.
BRUTEFORCE_BOUND = 10**6


class Convention(Enum):
    """Value assigned to the totient at n = 1.

    MODERN counts 1 as coprime to itself (value 1).  EULER counts only the
    integers strictly below n, so the value at 1 is 0.  The two agree for
    every n >= 2.
    """

    MODERN = "modern"
    EULER = "euler"

    @property
    def value_at_one(self) -> int:
        return 1 if self is Convention.MODERN else 0


def _check_range(value: int, name: str, low: int, high: int = INT_CEILING,
                 bound: str = "", why: str = "") -> None:
    """Refuse the argument name = value unless low <= value <= high, bound
    being high's description in the message and why a reason after it."""
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if value > INT_CEILING:
        raise OverflowError(f"{name}={value} exceeds the 64-bit ceiling {INT_CEILING}")
    if value > high:
        raise ValueError(f"{name}={value} exceeds the {bound} {high}{why}")


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two nonnegative integers, not both zero."""
    if a < 0 or b < 0:
        raise ValueError(f"gcd needs nonnegative arguments, got ({a}, {b})")
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


def _prime_powers(n: int) -> Iterator[tuple[int, int]]:
    """Yield the (prime, exponent) pairs of n >= 1 in ascending order.

    The package's one trial-division loop: strip 2, then try odd
    candidates up to the square root of what remains; a remainder above 1
    is prime.  Yields nothing for n = 1.
    """
    remaining = n
    exponent = 0
    while remaining % 2 == 0:
        remaining //= 2
        exponent += 1
    if exponent:
        yield 2, exponent
    candidate = 3
    while candidate * candidate <= remaining:
        if remaining % candidate == 0:
            exponent = 0
            while remaining % candidate == 0:
                remaining //= candidate
                exponent += 1
            yield candidate, exponent
        candidate += 2
    if remaining > 1:
        yield remaining, 1


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check."""
    return n >= 2 and next(_prime_powers(n)) == (n, 1)


@dataclass(frozen=True)
class Factorization:
    """Ordered prime-power decomposition of a positive integer.

    ``factors`` holds (prime, exponent) pairs with strictly increasing
    primes and exponents >= 1; it is empty exactly when n == 1.  The
    invariants are enforced on construction.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _check_range(self.n, "n", 1)
        product = 1
        previous = 0
        for prime, exponent in self.factors:
            if prime <= previous:
                raise ValueError("factor primes must be strictly increasing")
            if exponent < 1:
                raise ValueError(f"exponent of prime {prime} must be >= 1")
            if not is_prime(prime):
                raise ValueError(f"{prime} is not prime")
            product *= prime**exponent
            previous = prime
        if product != self.n:
            raise ValueError(f"factors multiply to {product}, not {self.n}")

    @property
    def distinct_primes(self) -> tuple[int, ...]:
        return tuple(prime for prime, _ in self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(
            f"{p}^{e}" if e > 1 else f"{p}" for p, e in self.factors
        )


def factorize(n: int) -> Factorization:
    """Factor n by trial division: strip 2, then odd candidates up to sqrt."""
    _check_range(n, "n", 1)
    return Factorization(n, tuple(_prime_powers(n)))


def totient_from_factorization(
    factorization: Factorization, convention: Convention = Convention.MODERN
) -> int:
    """Totient from a known factorization: prod p^(e-1) * (p-1) over factors."""
    if factorization.n == 1:
        return convention.value_at_one
    result = 1
    for prime, exponent in factorization.factors:
        result *= prime ** (exponent - 1) * (prime - 1)
    return result


def totient(n: int, convention: Convention = Convention.MODERN) -> int:
    """Totient of n by the closed-form product over distinct prime divisors.

    Only the distinct primes matter: the running value is updated as
    value // p * (p - 1) per prime, in ascending order.  Dividing before
    multiplying keeps every intermediate at most n (p always divides the
    running value exactly).
    """
    _check_range(n, "n", 1)
    if n == 1:
        return convention.value_at_one
    result = n
    for prime, _ in _prime_powers(n):
        result = result // prime * (prime - 1)
    return result


def totient_bruteforce(n: int) -> int:
    """Count 1 <= k < n with gcd(k, n) = 1, straight from the definition.

    Deliberately naive; this is the independent oracle for totient().  The
    value at n = 1 is 0 (no k exists).  Refuses n above BRUTEFORCE_BOUND
    instead of being silently slow.
    """
    _check_range(n, "n", 1, BRUTEFORCE_BOUND, "brute-force bound",
                 "; totient_bruteforce is O(n log n) per call")
    g = math.gcd
    return sum(1 for k in range(1, n) if g(k, n) == 1)


def coprime_numerators(d: int) -> list[int]:
    """All admissible numerators for denominator d: k < d with gcd(k, d) = 1.

    Returned ascending; the length equals totient(d) under the EULER
    convention.
    """
    _check_range(d, "d", 2, BRUTEFORCE_BOUND, "brute-force bound",
                 "; coprime_numerators materializes O(d) values")
    g = math.gcd
    return [k for k in range(1, d) if g(k, d) == 1]


def numbers_with_prime_support(primes: Iterable[int], limit: int) -> list[int]:
    """All n <= limit whose set of distinct prime divisors is exactly `primes`.

    Enumerates products with every exponent >= 1, so the cost is the size
    of the answer, not a scan of 1..limit.
    """
    support = sorted(set(primes))
    if not support:
        raise ValueError("the prime support set must be nonempty")
    for p in support:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    _check_range(limit, "limit", 1)

    found: list[int] = []

    def grow(index: int, value: int) -> None:
        if index == len(support):
            found.append(value)
            return
        multiple = value * support[index]
        while multiple <= limit:
            grow(index + 1, multiple)
            multiple *= support[index]

    grow(0, 1)
    found.sort()
    return found
