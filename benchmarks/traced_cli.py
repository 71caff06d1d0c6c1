"""Run the totient-lab CLI in this process with spans around each layer.

Usage: python3 benchmarks/traced_cli.py <cli arguments...>

with ``src`` on ``PYTHONPATH``.  The CLI's stdout is passed through byte for
byte.  After the CLI returns, one line ``TRACE <json>`` with the aggregated
spans is written as the last line of stderr, and the process exits with the
code the standalone CLI would have used.

Spans are recorded only here, around calls into the public functions of the
library modules; nothing under ``src/`` is changed.  ``cli``, ``farey`` and
``series`` bind library functions with ``from .x import y``, so each wrapper
is re-bound in every module that holds the original, not only in the one
that defines it.  A generator function is timed per ``next()``: calling it
only creates the generator, and its work happens while the caller iterates.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import json
import os
import sys
import time
from collections import Counter

PACKAGE = "totient_lab"
#: Library modules whose public functions get a span; each is one layer.
LAYERS = ("core", "sieve", "farey", "series")
TRACE_PREFIX = "TRACE "

#: Counts taken from a traced function's return value, by span name.
RESULT_COUNTS = {
    "sieve.totient_sieve": ("sieve.entries", lambda table: len(table.values)),
    "series.group_by_coefficient": ("series.groups", len),
}


class Stat:
    """Totals of every span with one name."""

    __slots__ = ("name", "layer", "inclusive_s", "self_s", "calls")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.inclusive_s = 0.0
        self.self_s = 0.0
        self.calls = 0


class Span:
    """One timed call: its name (through ``stat``), start, end and parent."""

    __slots__ = ("stat", "parent", "start", "end", "child_s")

    def __init__(self, stat: Stat, parent: "Span | None"):
        self.stat = stat
        self.parent = parent
        self.child_s = 0.0
        self.end = 0.0
        self.start = time.perf_counter()


class Tracer:
    """Folds each span into the totals of its name when it ends.

    A span's self time is its duration minus the time its child spans
    cover.  Spans are not kept after they end: the farey walk alone makes
    millions of them.
    """

    def __init__(self):
        self.current: Span | None = None
        self.stats: dict[str, Stat] = {}
        self.counts: Counter[str] = Counter()

    def stat(self, name: str, layer: str) -> Stat:
        return self.stats.setdefault(name, Stat(name, layer))

    def start(self, stat: Stat) -> Span:
        span = self.current = Span(stat, self.current)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        duration = span.end - span.start
        self.current = parent = span.parent
        if parent is not None:
            parent.child_s += duration
        stat = span.stat
        stat.inclusive_s += duration
        stat.self_s += duration - span.child_s
        stat.calls += 1

    def report(self) -> dict:
        self_s: Counter[str] = Counter()
        for stat in self.stats.values():
            self_s[stat.layer] += stat.self_s
        return {
            "inclusive_s": {name: stat.inclusive_s for name, stat in self.stats.items()},
            "self_s": dict(self_s),
            "calls": {name: stat.calls for name, stat in self.stats.items()},
            "counts": dict(self.counts),
        }


def _traced(tracer: Tracer, layer: str, name: str, fn):
    stat = tracer.stat(name, layer)
    if inspect.isgeneratorfunction(fn):
        items_key = f"{name}.items"

        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            items = fn(*args, **kwargs)
            produced = 0
            try:
                while True:
                    span = tracer.start(stat)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        tracer.finish(span)
                    produced += 1
                    yield item
            finally:
                tracer.counts[items_key] += produced

        return traced_generator

    count = RESULT_COUNTS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.start(stat)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(span)
        if count is not None:
            tracer.counts[count[0]] += count[1](result)
        return result

    return traced


def instrument(tracer: Tracer) -> None:
    """Wrap every public function of each layer module, everywhere it is bound."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not attr.startswith("_")):
                wrappers[value] = _traced(tracer, layer, f"{layer}.{attr}", value)
    for module_name, module in list(sys.modules.items()):
        if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])


class TimedStdout(io.RawIOBase):
    """Raw writer on a file descriptor that times and counts every write."""

    def __init__(self, tracer: Tracer, fd: int):
        super().__init__()
        self.tracer = tracer
        self.stat = tracer.stat("cli.write", "write")
        self.fd = fd

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        span = self.tracer.start(self.stat)
        try:
            written = os.write(self.fd, data)
        finally:
            self.tracer.finish(span)
        self.tracer.counts["cli.output_bytes"] += written
        return written


def main(argv: list[str]) -> int:
    tracer = Tracer()
    span = tracer.start(tracer.stat("cli.import", "import"))
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer.finish(span)
    import click

    instrument(tracer)
    original = sys.stdout
    sys.stdout = io.TextIOWrapper(
        io.BufferedWriter(TimedStdout(tracer, original.fileno()), 1 << 16),
        encoding=original.encoding, errors=original.errors,
    )
    exit_code = 0
    span = tracer.start(tracer.stat("cli.main", "cli"))
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        exit_code = exc.exit_code
    except click.ClickException as exc:
        exc.show()
        exit_code = exc.exit_code
    except click.exceptions.Abort:
        click.echo("Aborted!", err=True)
        exit_code = 1
    finally:
        sys.stdout.flush()
        tracer.finish(span)
        sys.stdout = original
    print(TRACE_PREFIX + json.dumps(tracer.report()), file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
