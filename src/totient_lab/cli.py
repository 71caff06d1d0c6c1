"""Command-line front end: totient values, bulk tables, reduced-fraction
counts, the fraction sequence itself, series coefficients, and the method
benchmark.

Output discipline: plain is human-readable ASCII; csv and json are
byte-stable for identical inputs.  Exit codes: 0 success, 2 usage or
domain error, 3 internal cross-check failure.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import re
import sys
from fractions import Fraction
from itertools import islice, starmap
from typing import Iterable, Iterator

import click

from . import __version__
from .core import Convention, factorize, totient, totient_from_factorization
from .farey import (
    ENUMERATION_BOUND,
    FAREY_MATERIALIZE_BOUND,
    FareyCountReport,
    count_by_enumeration,
    count_by_exclusion,
    count_by_totient_sum,
    iter_farey_pairs,
)
from .series import (
    group_by_coefficient,
    integrated_series_coefficients,
    series_coefficients,
)
from .sieve import bench_totient_methods, totient_sieve

_DECIMAL_RE = re.compile(r"[0-9]+")

#: Rows that _write_rows renders and writes at a time.
ROWS_PER_CHUNK = 1 << 16


class DomainError(click.ClickException):
    exit_code = 2


class CrossCheckError(click.ClickException):
    exit_code = 3


class DecimalInt(click.ParamType):
    """Plain base-10 integer: no sign, no whitespace, no hex."""

    name = "integer"

    def convert(self, value, param, ctx):
        if isinstance(value, int):
            return value
        if not _DECIMAL_RE.fullmatch(value):
            self.fail(f"{value!r} is not a plain decimal integer", param, ctx)
        return int(value)


DECIMAL = DecimalInt()

_convention_option = click.option(
    "--convention",
    type=click.Choice(["modern", "euler"]),
    default="modern",
    show_default=True,
    help="Value of the totient at n = 1 (the conventions agree for n >= 2).",
)
_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["plain", "csv", "json"]),
    default="plain",
    show_default=True,
    help="Output format.",
)


def _lib_errors(fn):
    """Map library domain, overflow, and allocation errors to exit code 2."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, OverflowError) as exc:
            raise DomainError(str(exc)) from exc
        except MemoryError as exc:
            raise DomainError("allocation failed; request a smaller range") from exc

    return wrapper


def _emit(text: str) -> None:
    click.echo(text, nl=False)


def _write_rows(head: str, row: str, rows: Iterable[tuple], tail: str,
                sep: str = "\n") -> int:
    """Write head, the rows rendered by row.format(*r) and joined by sep,
    then tail; return the number of rows written.

    Rows are rendered and written ROWS_PER_CHUNK at a time, so memory stays
    flat however many there are.  A reader that closes the pipe early ends
    the command with exit code 0 and nothing on stderr, as it did when the
    whole output went out in one write.
    """
    rows = iter(rows)  # islice must resume where the last chunk ended
    written = 0
    try:
        _emit(head)
        while chunk := list(starmap(row.format, islice(rows, ROWS_PER_CHUNK))):
            _emit((sep if written else "") + sep.join(chunk))
            written += len(chunk)
        _emit(tail)
    except BrokenPipeError:
        # Later flushes, at exit included, go to /dev/null instead of failing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise click.exceptions.Exit(0) from None
    return written


def _numbered(values) -> Iterator[tuple[int, int]]:
    """(n, values[n - 1]) for n = 1, 2, ..., converting ROWS_PER_CHUNK
    numpy values to ints at a time."""
    for start in range(0, len(values), ROWS_PER_CHUNK):
        block = values[start:start + ROWS_PER_CHUNK].tolist()
        yield from zip(range(start + 1, start + 1 + len(block)), block)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Totient values, reduced-fraction counts, and series coefficients."""


@main.command("totient")
@click.argument("n", type=DECIMAL)
@_convention_option
@_format_option
@click.option("--verbose", is_flag=True, help="Show the factorization and the product-formula derivation.")
@_lib_errors
def cmd_totient(n: int, convention: str, fmt: str, verbose: bool) -> None:
    """Totient of N: how many positive integers below N are coprime to it."""
    conv = Convention(convention)
    factorization = factorize(n) if verbose and fmt != "csv" else None
    if factorization is None:
        value = totient(n, conv)
    else:
        value = totient_from_factorization(factorization, conv)
    if fmt == "csv":
        _emit(f"n,phi\n{n},{value}\n")
        return
    if fmt == "json":
        payload: dict = {"n": n, "convention": conv.value, "phi": value}
        if factorization is not None:
            payload["factorization"] = [list(pair) for pair in factorization.factors]
            payload["distinct_primes"] = list(factorization.distinct_primes)
        _emit(_json_text(payload))
        return
    if not verbose:
        _emit(f"{value}\n")
        return
    primes = factorization.distinct_primes
    lines = [
        f"phi({n}) = {value}",
        f"factorization: {factorization}",
        f"distinct primes: {', '.join(str(p) for p in primes) if primes else '(none)'}",
    ]
    if primes:
        product = " * ".join(f"{p - 1}/{p}" for p in primes)
        lines.append(f"product: {n} * {product} = {value}")
    _emit("\n".join(lines) + "\n")


#: Per format: head, row template for (n, phi), row separator, tail.  The
#: json layout is that of json.dumps(list, indent=2) plus a newline.
_TABLE_LAYOUTS = {
    "plain": ("", "{} {}", "\n", "\n"),
    "csv": ("n,phi\n", "{},{}", "\n", "\n"),
    "json": ("[\n", "  {1}", ",\n", "\n]\n"),
}


@main.command("table")
@click.argument("max_n", type=DECIMAL)
@_convention_option
@_format_option
@_lib_errors
def cmd_table(max_n: int, convention: str, fmt: str) -> None:
    """Totient values for every n in 1..MAX_N."""
    table = totient_sieve(max_n, Convention(convention))
    head, row, sep, tail = _TABLE_LAYOUTS[fmt]
    _write_rows(head, row, _numbered(table.values), tail, sep)


def _report_payload(report: FareyCountReport) -> dict:
    return {
        "max_denominator": report.max_denominator,
        "total_unreduced": report.total_unreduced,
        "excluded": report.excluded,
        "count_by_exclusion": report.count_by_exclusion,
        "count_by_totient_sum": report.count_by_totient_sum,
        "count_by_enumeration": report.count_by_enumeration,
    }


@main.command("count")
@click.argument("max_denominator", type=DECIMAL)
@click.option("--method", type=click.Choice(["sum", "exclusion", "enumerate", "all"]),
              default="all", show_default=True,
              help="Counting route; `all` runs every route and cross-checks.")
@_format_option
@_lib_errors
def cmd_count(max_denominator: int, method: str, fmt: str) -> None:
    """Count the reduced fractions in (0, 1) with denominator <= MAX_DENOMINATOR."""
    d = max_denominator
    if method in ("sum", "enumerate"):
        count = count_by_totient_sum(d) if method == "sum" else count_by_enumeration(d)
        if fmt == "csv":
            _emit(f"max_denominator,method,count\n{d},{method},{count}\n")
        elif fmt == "json":
            _emit(_json_text({"max_denominator": d, "method": method, "count": count}))
        else:
            _emit(f"{count}\n")
        return

    report = count_by_exclusion(d)
    enumeration_note = None
    if method == "all":
        if d <= ENUMERATION_BOUND:
            report = dataclasses.replace(
                report, count_by_enumeration=count_by_enumeration(d)
            )
        else:
            enumeration_note = f"skipped (D exceeds {ENUMERATION_BOUND})"

    if fmt == "json":
        _emit(_json_text(_report_payload(report)))
    elif fmt == "csv":
        enum_field = "" if report.count_by_enumeration is None else str(report.count_by_enumeration)
        _emit(
            "max_denominator,total_unreduced,excluded,"
            "count_by_exclusion,count_by_totient_sum,count_by_enumeration\n"
            f"{report.max_denominator},{report.total_unreduced},{report.excluded},"
            f"{report.count_by_exclusion},{report.count_by_totient_sum},{enum_field}\n"
        )
    else:
        lines = [
            f"max_denominator: {report.max_denominator}",
            f"total_unreduced: {report.total_unreduced}",
            f"excluded: {report.excluded}",
            f"count_by_exclusion: {report.count_by_exclusion}",
            f"count_by_totient_sum: {report.count_by_totient_sum}",
        ]
        if report.count_by_enumeration is not None:
            lines.append(f"count_by_enumeration: {report.count_by_enumeration}")
        elif enumeration_note is not None:
            lines.append(f"count_by_enumeration: {enumeration_note}")
        _emit("\n".join(lines) + "\n")

    broken = report.first_broken_identity()
    if broken is not None:
        raise CrossCheckError(f"counting routes disagree: {broken} at D={d}")


#: One fraction of `farey --format json`, as json.dumps(indent=2) lays it out.
_FAREY_JSON_ROW = '    {{\n      "numerator": {},\n      "denominator": {}\n    }}'


@main.command("farey")
@click.argument("max_denominator", type=DECIMAL)
@_format_option
@_lib_errors
def cmd_farey(max_denominator: int, fmt: str) -> None:
    """The reduced fractions in (0, 1) with denominator <= MAX_DENOMINATOR,
    in increasing order."""
    d = max_denominator
    if d > FAREY_MATERIALIZE_BOUND:
        raise DomainError(
            f"D={d} exceeds the sequence bound {FAREY_MATERIALIZE_BOUND}"
        )
    pairs = iter_farey_pairs(d)  # refuses a bad D before anything is written
    if fmt == "csv":
        _write_rows("numerator,denominator\n", "{},{}", pairs, "\n")
        return
    # plain and json print the count, taken from the totient sum and then
    # checked against the walk
    count = count_by_totient_sum(d)
    if fmt == "json":
        head = f'{{\n  "max_denominator": {d},\n  "count": {count},\n  "fractions": [\n'
        written = _write_rows(head, _FAREY_JSON_ROW, pairs, "\n  ]\n}\n", sep=",\n")
    else:
        written = _write_rows("", "{}/{}", pairs, f"\ncount: {count}\n")
    if written != count:
        raise CrossCheckError(
            f"farey walk wrote {written} fractions at D={d}, "
            f"count_by_totient_sum gives {count}"
        )


@main.command("series")
@click.argument("max_n", type=DECIMAL)
@click.option("--grouped", is_flag=True,
              help="Group n = 2..MAX_N by equal coefficient totient(n)/n.")
@_format_option
@_lib_errors
def cmd_series(max_n: int, grouped: bool, fmt: str) -> None:
    """Series coefficients: totient(n) and the reduced rational totient(n)/n
    for n = 2..MAX_N."""
    if grouped:
        groups = group_by_coefficient(max_n)
        if fmt == "json":
            payload = [
                {
                    "radical": g.radical,
                    "coefficient": {
                        "num": g.coefficient.numerator,
                        "den": g.coefficient.denominator,
                    },
                    "members": list(g.members),
                }
                for g in groups
            ]
            _emit(_json_text(payload))
        elif fmt == "csv":
            rows = [
                f"{g.radical},{_fraction_str(g.coefficient)},{m}"
                for g in groups
                for m in g.members
            ]
            _emit("radical,coefficient,member\n" + "\n".join(rows) + "\n")
        else:
            _emit("".join(
                f"radical {g.radical}: coefficient {_fraction_str(g.coefficient)}, "
                f"members {' '.join(str(m) for m in g.members)}\n"
                for g in groups
            ))
        return

    values = series_coefficients(max_n)
    coefficients = integrated_series_coefficients(max_n)
    rows = [
        (n, values[n - 1], coeff) for n, coeff in enumerate(coefficients, start=2)
    ]
    if fmt == "json":
        payload = [
            {
                "n": n,
                "phi": phi,
                "coefficient": {"num": coeff.numerator, "den": coeff.denominator},
            }
            for n, phi, coeff in rows
        ]
        _emit(_json_text(payload))
    elif fmt == "csv":
        _emit(
            "n,phi,phi_over_n\n"
            + "\n".join(f"{n},{phi},{_fraction_str(c)}" for n, phi, c in rows)
            + "\n"
        )
    else:
        _emit("".join(f"{n} {phi} {_fraction_str(c)}\n" for n, phi, c in rows))


@main.command("bench")
@click.argument("max_n", type=DECIMAL)
@_format_option
@_lib_errors
def cmd_bench(max_n: int, fmt: str) -> None:
    """Time the totient routes over 1..MAX_N and cross-check their checksums."""
    report = bench_totient_methods(max_n)
    if fmt == "json":
        payload = {
            "max_n": report.max_n,
            "results": [
                {
                    "method": r.method,
                    "executed": r.executed,
                    "seconds": r.seconds,
                    "checksum": r.checksum,
                    "skip_reason": r.skip_reason,
                }
                for r in report.results
            ],
            "checksums_agree": report.checksums_agree(),
        }
        _emit(_json_text(payload))
    elif fmt == "csv":
        rows = []
        for r in report.results:
            seconds = "" if r.seconds is None else f"{r.seconds:.6f}"
            checksum = "" if r.checksum is None else str(r.checksum)
            reason = r.skip_reason or ""
            rows.append(
                f"{r.method},{str(r.executed).lower()},{seconds},{checksum},{reason}"
            )
        _emit("method,executed,seconds,checksum,skip_reason\n" + "\n".join(rows) + "\n")
    else:
        lines = []
        for r in report.results:
            if r.executed:
                lines.append(f"{r.method}: {r.seconds:.6f} s, checksum {r.checksum}")
            else:
                lines.append(f"{r.method}: skipped ({r.skip_reason})")
        lines.append(
            "checksums agree: " + ("yes" if report.checksums_agree() else "NO")
        )
        _emit("\n".join(lines) + "\n")

    if not report.checksums_agree():
        raise CrossCheckError(
            f"method checksums disagree at max_n={max_n}: "
            + ", ".join(
                f"{r.method}={r.checksum}" for r in report.results if r.executed
            )
        )


if __name__ == "__main__":
    main()
