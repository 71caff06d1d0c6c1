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
from .series import _coefficient_groups, _coefficient_rows
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


def _write_rows(layout: tuple[str, str, str, str], rows: Iterable[Iterable],
                **fields) -> int:
    """Write a layout (head, row template, separator, tail): the head, the
    rows rendered by row.format(*r) and joined by the separator, then the
    tail; return the number of rows written.  Head and tail are templates
    filled from fields.

    Rows are rendered and written ROWS_PER_CHUNK at a time, so memory stays
    flat however many there are.  A reader that closes the pipe early ends
    the command with exit code 0 and nothing on stderr, as it did when the
    whole output went out in one write.
    """
    head, row, sep, tail = layout
    rows = iter(rows)  # islice must resume where the last chunk ended
    written = 0
    try:
        _emit(head.format(**fields))
        while chunk := list(starmap(row.format, islice(rows, ROWS_PER_CHUNK))):
            _emit((sep if written else "") + sep.join(chunk))
            written += len(chunk)
        _emit(tail.format(**fields))
    except BrokenPipeError:
        # Later flushes, at exit included, go to /dev/null instead of failing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise click.exceptions.Exit(0) from None
    return written


#: Plain lines, one row each.
_LINES = ("", "{}", "\n", "\n")

#: One record of (name, value) rows: "name: value" lines, a csv header of
#: the names over one line of values, or the object json.dumps(indent=2)
#: writes.
_RECORD_LAYOUTS = {
    "plain": ("", "{}: {}", "\n", "\n"),
    "csv": ("{names}\n", "{1}", ",", "\n"),
    "json": ("{{\n", '  "{}": {}', ",\n", "\n}}\n"),
}


def _csv_value(value) -> str:
    """One csv field: empty when missing, true/false as json writes them,
    seconds to the microsecond."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return json.dumps(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


#: How each record layout writes a value; json indents a nested value to
#: its depth in the object.
_RECORD_VALUES = {
    "plain": str,
    "csv": _csv_value,
    "json": lambda value: json.dumps(value, indent=2).replace("\n", "\n  "),
}


def _write_record(fmt: str, fields: dict) -> None:
    """Write fields in the format's record layout; plain leaves out the
    missing ones."""
    if fmt == "plain":
        fields = {name: value for name, value in fields.items() if value is not None}
    value = _RECORD_VALUES[fmt]
    _write_rows(_RECORD_LAYOUTS[fmt], [(name, value(v)) for name, v in fields.items()],
                names=",".join(fields))


def _numbered(values) -> Iterator[tuple[int, int]]:
    """(n, values[n - 1]) for n = 1, 2, ..., converting ROWS_PER_CHUNK
    numpy values to ints at a time."""
    for start in range(0, len(values), ROWS_PER_CHUNK):
        block = values[start:start + ROWS_PER_CHUNK].tolist()
        yield from zip(range(start + 1, start + 1 + len(block)), block)


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
        _write_record(fmt, {"n": n, "phi": value})
    elif fmt == "json":
        fields = {"n": n, "convention": conv.value, "phi": value}
        if factorization is not None:
            fields["factorization"] = factorization.factors
            fields["distinct_primes"] = factorization.distinct_primes
        _write_record(fmt, fields)
    elif factorization is None:
        _write_rows(_LINES, [(value,)])
    else:
        primes = factorization.distinct_primes
        lines = [
            f"phi({n}) = {value}",
            f"factorization: {factorization}",
            f"distinct primes: {', '.join(map(str, primes)) if primes else '(none)'}",
        ]
        if primes:
            product = " * ".join(f"{p - 1}/{p}" for p in primes)
            lines.append(f"product: {n} * {product} = {value}")
        _write_rows(_LINES, [(line,) for line in lines])


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
    _write_rows(_TABLE_LAYOUTS[fmt], _numbered(table.values))


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
        if fmt == "plain":
            _write_rows(_LINES, [(count,)])
        else:
            _write_record(fmt, {"max_denominator": d, "method": method, "count": count})
        return

    report = count_by_exclusion(d)
    if method == "all" and d <= ENUMERATION_BOUND:
        report = dataclasses.replace(report, count_by_enumeration=count_by_enumeration(d))
    fields = dataclasses.asdict(report)
    if method == "all" and d > ENUMERATION_BOUND and fmt == "plain":
        fields["count_by_enumeration"] = f"skipped (D exceeds {ENUMERATION_BOUND})"
    _write_record(fmt, fields)

    broken = report.first_broken_identity()
    if broken is not None:
        raise CrossCheckError(f"counting routes disagree: {broken} at D={d}")


#: Per format: head, row template for (numerator, denominator), row
#: separator, tail.  plain and json print the count of fractions.
_FAREY_LAYOUTS = {
    "plain": ("", "{}/{}", "\n", "\ncount: {count}\n"),
    "csv": ("numerator,denominator\n", "{},{}", "\n", "\n"),
    "json": (
        '{{\n  "max_denominator": {d},\n  "count": {count},\n  "fractions": [\n',
        '    {{\n      "numerator": {},\n      "denominator": {}\n    }}',
        ",\n",
        "\n  ]\n}}\n",
    ),
}


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
    # plain and json take the count from the totient sum, then check it
    # against the walk; csv builds no sieve
    count = None if fmt == "csv" else count_by_totient_sum(d)
    written = _write_rows(_FAREY_LAYOUTS[fmt], pairs, d=d, count=count)
    if count is not None and written != count:
        raise CrossCheckError(
            f"farey walk wrote {written} fractions at D={d}, "
            f"count_by_totient_sum gives {count}"
        )


#: Per format: head, row template for (n, phi, num, den), row separator,
#: tail.  The json layout is that of json.dumps(list, indent=2).
_SERIES_LAYOUTS = {
    "plain": ("", "{} {} {}/{}", "\n", "\n"),
    "csv": ("n,phi,phi_over_n\n", "{},{},{}/{}", "\n", "\n"),
    "json": (
        "[\n",
        '  {{\n    "n": {},\n    "phi": {},\n'
        '    "coefficient": {{\n      "num": {},\n      "den": {}\n    }}\n  }}',
        ",\n",
        "\n]\n",
    ),
}

#: Per format: head, row template for (radical, num, den, members), row
#: separator, tail, and the template of (radical, num, den) that joins a
#: group's members.  csv writes one line per member.
_GROUPED_LAYOUTS = {
    "plain": ("", "radical {}: coefficient {}/{}, members {}", "\n", "\n", " "),
    "csv": ("radical,coefficient,member\n", "{},{}/{},{}", "\n", "\n", "\n{},{}/{},"),
    "json": (
        "[\n",
        '  {{\n    "radical": {},\n'
        '    "coefficient": {{\n      "num": {},\n      "den": {}\n    }},\n'
        '    "members": [\n      {}\n    ]\n  }}',
        ",\n",
        "\n]\n",
        ",\n      ",
    ),
}


@main.command("series")
@click.argument("max_n", type=DECIMAL)
@click.option("--grouped", is_flag=True,
              help="Group n = 2..MAX_N by equal coefficient totient(n)/n.")
@_format_option
@_lib_errors
def cmd_series(max_n: int, grouped: bool, fmt: str) -> None:
    """Series coefficients: totient(n) and the reduced rational totient(n)/n
    for n = 2..MAX_N."""
    if not grouped:
        _write_rows(_SERIES_LAYOUTS[fmt], _coefficient_rows(max_n))
        return
    *layout, joiner = _GROUPED_LAYOUTS[fmt]
    _write_rows(layout, (
        (r, num, den, joiner.format(r, num, den).join(map(str, members)))
        for r, num, den, members in _coefficient_groups(max_n)
    ))


#: bench's csv layout, for the fields of each MethodResult.
_BENCH_CSV = ("method,executed,seconds,checksum,skip_reason\n", "{},{},{},{},{}", "\n", "\n")


@main.command("bench")
@click.argument("max_n", type=DECIMAL)
@_format_option
@_lib_errors
def cmd_bench(max_n: int, fmt: str) -> None:
    """Time the totient routes over 1..MAX_N and cross-check their checksums."""
    report = bench_totient_methods(max_n)
    agree = report.checksums_agree()
    results = [dataclasses.asdict(r) for r in report.results]
    if fmt == "json":
        _write_record(fmt, {"max_n": report.max_n, "results": results, "checksums_agree": agree})
    elif fmt == "csv":
        _write_rows(_BENCH_CSV, [map(_csv_value, r.values()) for r in results])
    else:
        lines = [
            f"{r.method}: {r.seconds:.6f} s, checksum {r.checksum}" if r.executed
            else f"{r.method}: skipped ({r.skip_reason})"
            for r in report.results
        ]
        lines.append("checksums agree: " + ("yes" if agree else "NO"))
        _write_rows(_LINES, [(line,) for line in lines])

    if not agree:
        raise CrossCheckError(
            f"method checksums disagree at max_n={max_n}: "
            + ", ".join(
                f"{r.method}={r.checksum}" for r in report.results if r.executed
            )
        )


if __name__ == "__main__":
    main()
