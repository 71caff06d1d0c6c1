"""Fixed jobs that measure how fast the machine is at the moment.

    python3 benchmarks/reference.py KIND

The benchmark runs one of these as a child process between a workload's
requests, and its time calibrates theirs: on a shared host the speed of
the same program drifts by up to 2x over minutes, and a job of the same
kind of work drifts with it.  Each KIND does, in its own code, the work one
workload's requests do: a numpy stride sieve (``sieve``), a Farey walk that
builds small frozen objects and formats them (``farey``), a radical table
grouped in a dict with one exact ratio per radical (``series``), and trial
division of large n (``factor``).  Every kind starts Python with numpy and
click, as the CLI does.  None imports anything from the repository, so a
change to the program leaves their times alone.

A job writes its text to stdout, the same on every run, and to stderr the
seconds it spent after its imports.  The rest of its wall time is
start-up, which calibrates the benchmark's cold-start samples.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import click  # noqa: F401  imported for its start-up cost, as the CLI does
import numpy as np


def _primes(n: int) -> list[int]:
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).tolist()


def sieve() -> str:
    """Sums of phi over 1..n for n = 10**6 and n/2, by the product sieve."""
    sums = []
    for n in (10**6, 10**6 // 2):
        phi = np.arange(n + 1, dtype=np.uint64)
        for p in _primes(n):
            stride = phi[p::p]
            stride -= stride // p
        sums.append(int(phi[1:].sum(dtype=np.uint64)))
    return f"{sums}\n"


@dataclass(frozen=True, slots=True)
class _Fraction:
    num: int
    den: int

    def __post_init__(self) -> None:
        if math.gcd(self.num, self.den) != 1:
            raise ValueError(f"{self.num}/{self.den} is not reduced")


def farey() -> str:
    """The Farey sequence of order 700 as csv rows, by the neighbour recurrence."""
    D = 700
    a, b, c, d = 0, 1, 1, D
    items = []
    while d > 1:
        items.append(_Fraction(c, d))
        k = (D + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return "\n".join(f"{f.num},{f.den}" for f in items) + "\n"


def _trial_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if m > 1:
        result -= result // m
    return result


def series() -> str:
    """2..N grouped by radical, N = 6*10**4, with phi(R)/R for each radical R."""
    N = 6 * 10**4
    rad = np.ones(N + 1, dtype=np.uint64)
    for p in _primes(N):
        rad[p::p] *= p
    groups: dict[int, list[int]] = {}
    for n, r in enumerate(rad.tolist()[2:], start=2):
        groups.setdefault(r, []).append(n)
    lines = []
    for r in sorted(groups):
        ratio = Fraction(_trial_phi(r), r)
        lines.append(f"radical {r}: coefficient {ratio}, members {' '.join(map(str, groups[r]))}\n")
    return "".join(lines)


def factor() -> str:
    """phi of three n with a prime factor near 10**11, by trial division."""
    return f"{[_trial_phi(q * 6) for q in (200000000041, 300000000077, 400000000019)]}\n"


KINDS = {job.__name__: job for job in (sieve, farey, series, factor)}


def main() -> None:
    job = KINDS[sys.argv[1]]
    began = time.perf_counter()
    sys.stdout.write(job())
    sys.stdout.flush()
    sys.stderr.write(f"{time.perf_counter() - began}\n")


if __name__ == "__main__":
    main()
