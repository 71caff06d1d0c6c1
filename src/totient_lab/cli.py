"""Command-line front end: totient values, bulk tables, reduced-fraction
counts, the fraction sequence itself, series coefficients, and the method
benchmark.

Output discipline: plain is human-readable ASCII; csv and json are
byte-stable for identical inputs.  Exit codes: 0 success, 2 usage or
domain error, 3 internal cross-check failure.

Each command imports the library modules it runs, and numpy only where it
renders or checks arrays, so `totient`, `--help` and `--version` load no
numpy.  json is imported only to write a json record, and string only to
parse a row template.

The program enters through `run`, not the click group `main`.  A request
is one short process, and `run` spares it fixed costs its work never
needs: OpenBLAS's pool of one thread per CPU, which importing numpy
starts although no command calls BLAS (numpy's own integer loops do every
dot product and sum), and the cyclic collections' walks, during the run
and at shutdown, over every object numpy and click made.  The library
modules never touch the environment: only the program does.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import os
import re
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import click

from . import __version__
from .core import Convention, factorize, totient, totient_from_factorization

if TYPE_CHECKING:
    import numpy as np

_DECIMAL_RE = re.compile(r"[0-9]+")

#: Bytes of the byte matrix that _render lays out at a time, about.
RENDER_BYTES = 1 << 19


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
        try:
            return int(value)
        except ValueError:  # past Python's limit on integer string conversion
            self.fail(f"a {len(value)}-digit integer is too long to convert", param, ctx)


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


def _pieces(template: str) -> list[bytes | int]:
    """A template's literal text, as bytes, and its fields, bare {} or {i},
    as column indices, in order."""
    import string

    pieces: list[bytes | int] = []
    auto = 0
    for literal, field, _, _ in string.Formatter().parse(template):
        if literal:
            pieces.append(literal.encode())
        if field is not None:
            if field == "":
                field, auto = auto, auto + 1
            pieces.append(int(field))
    return pieces


def _render(row: str, sep: str, columns: tuple[np.ndarray, ...],
            joiner: str | None = None) -> Iterator[bytes]:
    """sep.join(starmap(row.format, zip(*columns))) as bytes, in pieces,
    for a row template whose fields are bare {} or {i} and columns of
    non-negative integers, one row per index.

    With a joiner, the rows are groups: columns ends with (edges, members),
    group g holding members[edges[g]:edges[g + 1]], and each column before
    them holds one value per group.  Row's fields are those values and,
    after them, the group's members joined by the joiner, a template of the
    values too.

    Each piece is a byte matrix of RENDER_BYTES // width lines, one row and
    its separator per line, or with a joiner one member per line: the
    literal text, and each field's digits, got by integer division in the
    narrowest unsigned dtype that holds the column's maximum, padded with
    leading zeros to that maximum's width.  A mask drops the leading zeros
    and the last separator.  With a joiner it also keeps the text before
    the members' field on a group's first member only, the joiner on every
    member but the last, and the text after the field and the separator on
    the last; a member reads its group's values through its group index.
    """
    import numpy as np

    pieces, separator = _pieces(row), [sep.encode()]
    if joiner is None:
        parts = [pieces + separator]
    else:
        *per_group, edges, members = columns
        columns = (*per_group, members)
        at = pieces.index(len(per_group))  # the members' field
        parts = [pieces[:at], pieces[at:at + 1], _pieces(joiner), pieces[at + 1:] + separator]
    pieces = [p for part in parts for p in part]
    tops = {p: int(columns[p].max()) for p in pieces if isinstance(p, int)}
    widths = {p: len(str(top)) for p, top in tops.items()}
    # the literal text, with a zero byte in place of every digit
    template = b"".join(bytes(widths[p]) if isinstance(p, int) else p for p in pieces)
    rows = len(columns[-1])

    def lay_out(a: int, b: int) -> bytes:
        """Lines a..b - 1, their arrays freed before the bytes are passed on."""
        if joiner is None:
            masks = [None]  # the rows that keep each part, None for all
            lines = tuple(c[a:b] for c in columns)
        else:
            member = np.arange(a, b)
            group = np.searchsorted(edges, member, side="right") - 1
            first, last = edges[group] == member, edges[group + 1] == member + 1
            masks = [first, None, ~last, last]
            lines = (*(c[group] for c in per_group), members[a:b])
        matrix = np.empty((b - a, len(template)), dtype=np.uint8)
        matrix[:] = np.frombuffer(template, dtype=np.uint8)
        keep = np.ones(matrix.shape, dtype=bool)
        end = 0  # of the piece in hand, in the matrix's columns
        for part, mask in zip(parts, masks):
            start = end
            for p in part:
                if isinstance(p, bytes):
                    end += len(p)
                    continue
                end += widths[p]
                values = lines[p].astype(np.min_scalar_type(tops[p]))
                rest = values
                for k in range(1, widths[p] + 1):  # k-th digit from the right
                    rest, digit = np.divmod(rest, 10)
                    digit += ord("0")
                    matrix[:, end - k] = digit
                    if k < widths[p]:  # the digit left of it is a leading zero below 10**k
                        keep[:, end - k - 1] = values >= 10**k
            if mask is not None:
                keep[:, start:end] &= mask[:, None]
        if b == rows:
            keep[-1, len(template) - len(sep):] = False
        return matrix[keep].tobytes()

    step = max(1, RENDER_BYTES // len(template))
    for a in range(0, rows, step):
        yield lay_out(a, min(a + step, rows))


def _write_rows(layout: tuple[str, ...], chunks: Iterable, **fields) -> None:
    """Write a layout (head, row template, separator, tail), or one of
    grouped rows (head, row template, separator, tail, joiner): the head,
    the rows joined by the separator, then the tail.  Head and tail are
    templates filled from fields.

    chunks yields the rows a chunk at a time, each a tuple of numpy integer
    columns rendered by _render (with the layout's joiner, if it has one),
    which bounds the memory a render takes.  Each chunk's pieces are
    written to the binary stdout before the next chunk is asked for.
    The head goes out with the first chunk and the tail after the last, so
    a producer that refuses its input when the first row is asked for
    leaves stdout empty, and one that raises after its last chunk leaves no
    tail.  A reader that closes the pipe early ends the command with exit
    code 0 and nothing on stderr.
    """
    head, row, sep, tail, *joiner = layout
    out = click.get_binary_stream("stdout")
    before = head.format(**fields).encode()  # what goes out ahead of the next chunk
    wrote = False
    try:
        for chunk in chunks:
            out.write(before)
            out.writelines(_render(row, sep, chunk, *joiner))
            before, wrote = sep.encode(), True
            del chunk  # not held while the next chunk is made
        out.write((b"" if wrote else before) + tail.format(**fields).encode())
        out.flush()
    except BrokenPipeError:
        # Later flushes, at exit included, go to /dev/null instead of failing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise click.exceptions.Exit(0) from None


def _write_lines(lines: Iterable) -> None:
    """Write each line, then a newline."""
    _write_rows(("", "", "", "{text}"), [], text="".join(f"{line}\n" for line in lines))


def _csv_value(value) -> str:
    """One csv field: empty when missing, true/false as json writes them,
    seconds to the microsecond."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_record(fmt: str, fields: dict) -> None:
    """Write fields as the object json.dumps(indent=2) writes, as a csv
    header of the names over one line of values, or as "name: value" lines
    that leave out the missing ones."""
    if fmt == "json":
        import json

        _write_lines([json.dumps(fields, indent=2)])
    elif fmt == "csv":
        _write_lines([",".join(fields), ",".join(map(_csv_value, fields.values()))])
    else:
        _write_lines(f"{name}: {value}" for name, value in fields.items() if value is not None)


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Totient values, reduced-fraction counts, and series coefficients."""


@main.command("totient")
@click.argument("n", type=DECIMAL)
@_convention_option
@_format_option
@click.option("--verbose", is_flag=True,
              help="Show the factorization and the product-formula derivation "
                   "(plain and json only).")
@_lib_errors
def cmd_totient(n: int, convention: str, fmt: str, verbose: bool) -> None:
    """Totient of N: how many positive integers below N are coprime to it."""
    if verbose and fmt == "csv":
        raise click.UsageError("--verbose applies to plain and json output only")
    conv = Convention(convention)
    factorization = factorize(n) if verbose else None
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
        _write_lines([value])
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
        _write_lines(lines)


#: Per format: head, row template for (n, phi), row separator, tail.  The
#: json layout is that of json.dumps(list, indent=2) plus a newline.
_TABLE_LAYOUTS = {
    "plain": ("", "{} {}", "\n", "\n"),
    "csv": ("n,phi\n", "{},{}", "\n", "\n"),
    "json": ("[\n", "  {1}", ",\n", "\n]\n"),
}


def _checked_sum(chunks: Iterable, column: int, name: str, identity: str,
                 expected: Callable[[], int], N: int) -> Iterator:
    """chunks, each passed on as it comes; after the last, raise
    CrossCheckError unless their column, summed a chunk at a time, adds up
    to expected(), the identity's value."""
    written = 0
    for chunk in chunks:
        written += int(chunk[column].sum(dtype="uint64"))
        yield chunk
        del chunk
    if written != (value := expected()):
        raise CrossCheckError(f"written {name} sum={written} != {identity}={value} at N={N}")


@main.command("table")
@click.argument("max_n", type=DECIMAL)
@_convention_option
@_format_option
@_lib_errors
def cmd_table(max_n: int, convention: str, fmt: str) -> None:
    """Totient values for every n in 1..MAX_N."""
    import numpy as np

    from .farey import _totient_sum
    from .sieve import _totient_blocks

    conv = Convention(convention)
    less = 1 - conv.value_at_one  # the written totients add up to Phi(N) - less
    chunks = ((np.arange(lo, lo + len(values)), values) for lo, values in _totient_blocks(max_n, conv))
    _write_rows(_TABLE_LAYOUTS[fmt], _checked_sum(chunks, 1, "phi", "Phi(N)" + "-1" * less,
                                                   lambda: _totient_sum(max_n) - less, max_n))


@main.command("count")
@click.argument("max_denominator", type=DECIMAL)
@click.option("--method", type=click.Choice(["sum", "exclusion", "enumerate", "all"]),
              default="all", show_default=True,
              help="Counting route; `all` runs every route and cross-checks.")
@_format_option
@_lib_errors
def cmd_count(max_denominator: int, method: str, fmt: str) -> None:
    """Count the reduced fractions in (0, 1) with denominator <= MAX_DENOMINATOR."""
    from .farey import (ENUMERATION_BOUND, count_by_enumeration, count_by_exclusion,
                        count_by_totient_sum)

    d = max_denominator
    if method in ("sum", "enumerate"):
        count = count_by_totient_sum(d) if method == "sum" else count_by_enumeration(d)
        if fmt == "plain":
            _write_lines([count])
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


def _check_neighbours(num: np.ndarray, den: np.ndarray, D: int) -> None:
    """Raise CrossCheckError at the first consecutive terms a/b, c/d that
    are not neighbours in the sequence of order D: bc - ad = 1, b + d > D
    and d <= D.  Checked from 0/1 to 1/1, that makes the terms the whole
    sequence; the determinant alone would pass one that lost a term whose
    denominator is the sum of its neighbours'."""
    det = den[:-1] * num[1:] - num[:-1] * den[1:]
    spans = den[:-1] + den[1:]
    bad = ((det != 1) | (spans <= D) | (den[1:] > D)).nonzero()[0]
    if bad.size:
        i = bad[0]
        raise CrossCheckError(
            f"farey terms {num[i]}/{den[i]} and {num[i + 1]}/{den[i + 1]} are not "
            f"neighbours at D={D}: bc - ad = {det[i]}, b + d = {spans[i]}"
        )


def _checked_farey_blocks(D: int, count: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """_farey_blocks(D), each block passed on once its terms are checked as
    neighbours of the term before them, from 0/1 before the first term to
    1/1 after the last; after the last block, raise CrossCheckError unless
    they hold count terms."""
    import numpy as np

    from .farey import _farey_blocks

    last, written = (np.array([0]), np.array([1])), 0
    for num, den in _farey_blocks(D):
        _check_neighbours(np.concatenate((last[0], num)), np.concatenate((last[1], den)), D)
        written += len(num)
        yield num, den
        # copies, not views, and no names held: the block is freed before
        # the next one is made
        last = num[-1:].copy(), den[-1:].copy()
        del num, den
    _check_neighbours(np.append(last[0], 1), np.append(last[1], 1), D)
    if written != count:
        raise CrossCheckError(f"farey blocks wrote {written} fractions at D={D}, "
                              f"count_by_totient_sum gives {count}")


@main.command("farey")
@click.argument("max_denominator", type=DECIMAL)
@_format_option
@_lib_errors
def cmd_farey(max_denominator: int, fmt: str) -> None:
    """The reduced fractions in (0, 1) with denominator <= MAX_DENOMINATOR,
    in increasing order."""
    from .farey import count_by_totient_sum

    d = max_denominator
    # the count comes from the totient sum, and is checked against the rows
    # written; the terms are checked as neighbours
    count = count_by_totient_sum(d)
    _write_rows(_FAREY_LAYOUTS[fmt], _checked_farey_blocks(d, count), d=d, count=count)


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
#: group's members: rows grouped as _render lays them out, one chunk of
#: _coefficient_groups at a time.  csv writes one line per member.
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
    from .series import _coefficient_blocks, _coefficient_groups

    if grouped:  # the members are 2..N, each once
        _write_rows(_GROUPED_LAYOUTS[fmt], _checked_sum(_coefficient_groups(max_n), -1, "member",
                    "N(N+1)/2-1", lambda: max_n * (max_n + 1) // 2 - 1, max_n))
    else:  # the rows start at n = 2, so their totients add up to Phi(N) - 1
        from .farey import _totient_sum

        _write_rows(_SERIES_LAYOUTS[fmt], _checked_sum(_coefficient_blocks(max_n), 1, "phi",
                    "Phi(N)-1", lambda: _totient_sum(max_n) - 1, max_n))


@main.command("bench")
@click.argument("max_n", type=DECIMAL)
@_format_option
@_lib_errors
def cmd_bench(max_n: int, fmt: str) -> None:
    """Time the totient routes over 1..MAX_N and cross-check their checksums."""
    from .sieve import bench_totient_methods

    report = bench_totient_methods(max_n)
    agree = report.checksums_agree()
    results = [dataclasses.asdict(r) for r in report.results]
    if fmt == "json":
        _write_record(fmt, {"max_n": report.max_n, "results": results, "checksums_agree": agree})
    elif fmt == "csv":
        _write_lines([",".join(results[0]),
                      *(",".join(map(_csv_value, r.values())) for r in results)])
    else:
        lines = [
            f"{r.method}: {r.seconds:.6f} s, checksum {r.checksum}" if r.executed
            else f"{r.method}: skipped ({r.skip_reason})"
            for r in report.results
        ]
        lines.append("checksums agree: " + ("yes" if agree else "NO"))
        _write_lines(lines)

    if not agree:
        raise CrossCheckError(
            f"method checksums disagree at max_n={max_n}: "
            + ", ".join(
                f"{r.method}={r.checksum}" for r in report.results if r.executed
            )
        )


def run() -> None:
    """The program: main, with OpenBLAS held to one thread, the cyclic
    collector off, and the objects left at exit frozen.

    Set before numpy is first imported, OPENBLAS_NUM_THREADS=1 keeps
    OpenBLAS from starting a worker thread per CPU that no command uses
    and that spins while the request runs; a value the user set is kept.
    gc.disable() spares the request the collections that importing numpy
    and click would set off: the commands' arrays and pieces are freed by
    their reference counts, and make no cycles that grow with the input.
    gc.freeze() moves every object alive at exit (numpy's and click's
    modules, mostly) into the permanent generation, which the collections
    at interpreter shutdown skip.  main exits through SystemExit, so the
    freeze sits in a finally.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
