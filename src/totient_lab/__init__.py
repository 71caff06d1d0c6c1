"""totient-lab: Euler totient values by independent routes, reduced-fraction
counting with bounded denominators, and generating-series coefficients.

Each public name is imported from the module that defines it the first
time it is read (PEP 562), so `import totient_lab` loads neither the
modules nor numpy until a name of theirs is used."""

from importlib import import_module

__version__ = "0.1.0"

#: The public names, by the module that defines them.
_NAMES = {
    "core": (
        "BRUTEFORCE_BOUND", "INT_CEILING", "Convention", "Factorization",
        "coprime_numerators", "factorize", "gcd", "is_prime",
        "numbers_with_prime_support", "totient", "totient_bruteforce",
        "totient_from_factorization",
    ),
    "farey": (
        "ENUMERATION_BOUND", "FAREY_MATERIALIZE_BOUND", "FareyCountReport",
        "count_by_enumeration", "count_by_exclusion", "count_by_totient_sum",
        "count_reducible", "farey_sequence", "iter_farey_pairs",
        "iter_farey_sequence",
    ),
    "series": (
        "SERIES_MATERIALIZE_BOUND", "CoefficientGroup", "group_by_coefficient",
        "integrated_series_coefficients", "phi_over_n", "radical",
        "series_coefficients",
    ),
    "sieve": (
        "SIEVE_LIMIT", "BenchReport", "CumulativeCountRow", "MethodResult",
        "TotientTable", "bench_totient_methods", "cumulative_counts",
        "primes_up_to", "totient_sieve",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import name from its module, and keep it here for the next read."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
