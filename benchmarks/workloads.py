"""The four benchmark workloads: their inputs, made from a seed, and an
independent check of every output.

Each check computes the answer by a route other than the one under test,
here in the benchmark, and never compares against a recalled constant.
A workload is a list of CLI requests; one workload run sends them all, one
after another.
"""

from __future__ import annotations

import json
import math
import random
import re
import warnings

import numpy as np
import sympy


class CheckFailed(Exception):
    """An output that is not the correct answer to its request."""


def coprime_pair_count(D: int) -> int:
    """Reduced fractions a/b with 0 < a < b <= D, by the Moebius identity.

    The ordered pairs in [1, D]^2 with gcd 1 number sum_d mu(d) floor(D/d)^2;
    they are (1, 1) plus each fraction twice.  mu comes from a sieve over the
    sympy primes up to sqrt(D): every n <= D keeps at most one prime factor
    above sqrt(D) once those are divided out.  The sum is grouped over the
    O(sqrt D) distinct quotients with the Mertens prefix sums.
    """
    if D >= 2**31:
        raise ValueError(f"D={D} is beyond the int32 tables used here")
    mu = np.ones(D + 1, dtype=np.int8)
    rest = np.arange(D + 1, dtype=np.int32)
    for p in sympy.primerange(2, math.isqrt(D) + 1):
        mu[::p] *= -1
        mu[:: p * p] = 0
        rest[::p] //= p
    mu[rest > 1] *= -1
    mu[0] = 0
    mertens = np.cumsum(mu, dtype=np.int32)
    total = 0
    d = 1
    while d <= D:
        q = D // d
        last = D // q
        total += q * q * int(mertens[last] - mertens[d - 1])
        d = last + 1
    return (total - 1) // 2


class CountExclusion:
    """count D --method exclusion, D a little under 5*10**6: two totient sieves
    and about 150 bytes of output, so the sieve layer does nearly all the work."""

    name = "count-exclusion"
    reference = "sieve"  # the job in reference.py that calibrates it

    def __init__(self):
        self._counts: dict[int, int] = {}

    def requests(self, rng: random.Random) -> list[tuple[str, ...]]:
        D = 5 * 10**6 - rng.randrange(1000)
        return [("count", str(D), "--method", "exclusion")]

    def check(self, request: tuple[str, ...], stdout: bytes) -> None:
        D = int(request[1])
        if D not in self._counts:
            self._counts[D] = coprime_pair_count(D)
        count = self._counts[D]
        total = D * (D - 1) // 2
        expected = {
            "max_denominator": D,
            "total_unreduced": total,
            "excluded": total - count,
            "count_by_exclusion": count,
            "count_by_totient_sum": count,
        }
        got = {}
        for line in stdout.decode("ascii").splitlines():
            key, _, value = line.partition(": ")
            got[key] = int(value)
        if got != expected:
            raise CheckFailed(f"count {D}: got {got}, the Moebius route gives {expected}")


class FareyCsv:
    """farey D --format csv, D a little under 1500: 0.68 M fractions and 5.8 MB
    of csv with no sieve call, so the walk, formatting and the write dominate."""

    name = "farey-csv"
    reference = "farey"  # the job in reference.py that calibrates it

    def requests(self, rng: random.Random) -> list[tuple[str, ...]]:
        D = 1500 - rng.randrange(8)
        return [("farey", str(D), "--format", "csv")]

    def check(self, request: tuple[str, ...], stdout: bytes) -> None:
        """Neighbours a/b < c/d of the Farey sequence satisfy bc - ad = 1.

        With the endpoints 0/1 and 1/1 added, that makes every row reduced
        and the rows strictly increasing; with every denominator <= D and
        the Moebius count of rows, they are exactly the sequence.
        """
        D = int(request[1])
        header, _, body = stdout.partition(b"\n")
        if header != b"numerator,denominator":
            raise CheckFailed(f"farey {D}: header {header[:80]!r}")
        rows = body.count(b"\n")
        if (not body.endswith(b"\n") or body.count(b",") != rows
                or body.translate(None, b"0123456789,\n")):
            raise CheckFailed(f"farey {D}: rows are not 'numerator,denominator' lines")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.fromstring(body.replace(b"\n", b",").decode("ascii"), dtype=np.int64, sep=",")
        if values.size != 2 * rows:
            raise CheckFailed(f"farey {D}: malformed row")
        num = np.concatenate(([0], values[0::2], [1]))
        den = np.concatenate(([1], values[1::2], [1]))
        determinants = den[:-1] * num[1:] - num[:-1] * den[1:]
        bad = np.flatnonzero(determinants != 1)
        if bad.size:
            i = int(bad[0])
            raise CheckFailed(
                f"farey {D}: {num[i]}/{den[i]} and {num[i + 1]}/{den[i + 1]} "
                f"are not Farey neighbours (bc - ad = {determinants[i]})")
        if den.min() < 1 or den.max() > D:
            raise CheckFailed(f"farey {D}: a denominator lies outside 1..{D}")
        expected = coprime_pair_count(D)
        if rows != expected:
            raise CheckFailed(f"farey {D}: {rows} rows, the Moebius route gives {expected}")


_GROUP_LINE = re.compile(r"radical (\d+): coefficient (\d+)/(\d+), members (\d+(?: \d+)*)")


class SeriesGrouped:
    """series N --grouped, N a little under 10**5: a radical table, dict
    grouping and one trial-division totient per radical, so series runs and
    core sees many small inputs."""

    name = "series-grouped"
    reference = "series"  # the job in reference.py that calibrates it

    def requests(self, rng: random.Random) -> list[tuple[str, ...]]:
        N = 10**5 - rng.randrange(1000)
        return [("series", str(N), "--grouped")]

    def check(self, request: tuple[str, ...], stdout: bytes) -> None:
        """Each group's radical R is squarefree with coefficient prod (p-1)/p
        over its sympy-sieved primes, and each member m has radical R: R
        divides m, and m divides R**k with k the bit length of N, which no
        prime exponent in m <= N exceeds.  Together the groups, each with
        ascending members, partition 2..N in ascending radical order.
        """
        N = int(request[1])
        k = N.bit_length()
        smallest = _smallest_prime_factors(N)
        previous = 0
        members: list[int] = []
        for line in stdout.decode("ascii").splitlines():
            match = _GROUP_LINE.fullmatch(line)
            if match is None:
                raise CheckFailed(f"series {N}: malformed line {line[:80]!r}")
            R, num, den = (int(g) for g in match.groups()[:3])
            if R <= previous:
                raise CheckFailed(f"series {N}: radical {R} after {previous}")
            previous = R
            primes = _prime_factors(R, smallest)
            if math.prod(primes) != R:
                raise CheckFailed(f"series {N}: radical {R} is not squarefree")
            expected = math.prod(p - 1 for p in primes), R
            g = math.gcd(*expected)
            if (num, den) != (expected[0] // g, expected[1] // g):
                raise CheckFailed(f"series {N}: radical {R} has coefficient {num}/{den}")
            group = [int(m) for m in match.group(4).split()]
            if group != sorted(set(group)):
                raise CheckFailed(f"series {N}: members of radical {R} are not ascending")
            for m in group:
                if m % R or pow(R, k, m):
                    raise CheckFailed(f"series {N}: member {m} does not have radical {R}")
            members.extend(group)
        members.sort()
        if members != list(range(2, N + 1)):
            raise CheckFailed(f"series {N}: the groups do not partition 2..{N}")


def _smallest_prime_factors(N: int) -> list[int]:
    """spf[n] for 0..N from the sympy primes up to sqrt(N)."""
    spf = np.zeros(N + 1, dtype=np.int64)
    for p in reversed(list(sympy.primerange(2, math.isqrt(N) + 1))):
        spf[p::p] = p
    unset = np.flatnonzero(spf == 0)
    spf[unset] = unset  # no prime factor up to sqrt(n): n is prime
    return spf.tolist()


def _prime_factors(n: int, spf: list[int]) -> list[int]:
    primes = []
    while n > 1:
        p = spf[n]
        primes.append(p)
        while n % p == 0:
            n //= p
    return primes


_SMALL_PRIMES = list(sympy.primerange(2, 100))
_FACTOR_REQUESTS = 12


class Factor64:
    """Twelve totient n --verbose --format json requests, n < 2**64 with one
    prime factor in [10**11, 10**12]: core on few large inputs, and the
    workload where start-up is the largest share of the time."""

    name = "factor-64"
    reference = "factor"  # the job in reference.py that calibrates it

    def requests(self, rng: random.Random) -> list[tuple[str, ...]]:
        """One n per request: a cofactor of small primes times a prime q.

        q comes from the i-th of twelve equal slices of [10**11, 10**12] in
        log scale, so the trial-division work per run barely depends on the
        seed.
        """
        requests = []
        for i in range(_FACTOR_REQUESTS):
            lo = round(10 ** (11 + i / _FACTOR_REQUESTS))
            hi = round(10 ** (11 + (i + 1) / _FACTOR_REQUESTS))
            q = sympy.nextprime(rng.randrange(lo, hi))
            if q >= hi:
                q = sympy.prevprime(hi)
            limit = (2**64 - 1) // q
            cofactor = 1
            for _ in range(rng.randint(1, 8)):
                p = rng.choice(_SMALL_PRIMES)
                if cofactor * p <= limit:
                    cofactor *= p
            requests.append(("totient", str(cofactor * q), "--verbose", "--format", "json"))
        return requests

    def check(self, request: tuple[str, ...], stdout: bytes) -> None:
        n = int(request[1])
        payload = json.loads(stdout)
        factors = [tuple(pair) for pair in payload["factorization"]]
        primes = [p for p, _ in factors]
        if payload["n"] != n or payload["convention"] != "modern":
            raise CheckFailed(f"totient {n}: header fields {payload['n']}, {payload['convention']}")
        if primes != sorted(set(primes)) or payload["distinct_primes"] != primes:
            raise CheckFailed(f"totient {n}: primes {primes} not strictly increasing or not listed")
        for p, e in factors:
            if not 1 <= e < 64 or not sympy.isprime(p):
                raise CheckFailed(f"totient {n}: factor {p}^{e} is not a prime power")
        if math.prod(p**e for p, e in factors) != n:
            raise CheckFailed(f"totient {n}: factors {factors} do not multiply to n")
        phi = math.prod(p ** (e - 1) * (p - 1) for p, e in factors)
        if payload["phi"] != phi:
            raise CheckFailed(f"totient {n}: phi {payload['phi']}, the product formula gives {phi}")


def make_workloads() -> dict:
    """Fresh workload objects by name; each caches its own expected values."""
    return {w.name: w for w in (CountExclusion(), FareyCsv(), SeriesGrouped(), Factor64())}
