"""The streamed output of `farey`, `table` and `series`, and the memory of
`count` and `bench`, checked in child processes: peak memory stays flat as
the output grows, grows by a fixed number of bytes per table entry, and a
reader that stops early is not an error.  In-process, tracemalloc bounds the
working set of the producers and of the readers that hold one block at a
time."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

import totient_lab
import totient_lab.cli as cli
from totient_lab import SIEVE_LIMIT, bench_totient_methods, cumulative_counts
from totient_lab.farey import _farey_blocks, _totient_sum
from totient_lab.series import _coefficient_blocks, _coefficient_groups

ENV = {**os.environ, "PYTHONPATH": str(Path(totient_lab.__file__).resolve().parents[1])}
CLI = [sys.executable, "-m", "totient_lab.cli"]

# Runs the CLI with stdout on /dev/null, reaps it with os.wait4 and prints its
# exit code and ru_maxrss (KiB).  At exec, Linux carries the peak RSS of the
# address space being left into the new program's ru_maxrss, so the CLI is
# started from this helper, which imports only the standard library, and not
# from pytest, whose peak would mask the CLI's own.
_PEAK_RSS_HELPER = """
import os, sys
argv = [sys.executable, "-m", "totient_lab.cli", *sys.argv[1:]]
to_null = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=to_null)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_bytes(*args: str) -> int:
    helper = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_HELPER, *args],
        env=ENV, capture_output=True, text=True, check=True, timeout=300,
    )
    exit_code, maxrss_kib = map(int, helper.stdout.split())
    assert exit_code == 0, args
    return maxrss_kib * 1024


def peak_rss_per_entry(command: str, *options: str) -> float:
    """Growth of peak RSS per entry of `command N options` from N = 5*10**5
    to 2*10**6."""
    small_n, large_n = 500_000, 2_000_000
    small = peak_rss_bytes(command, str(small_n), *options)
    large = peak_rss_bytes(command, str(large_n), *options)
    return (large - small) / (large_n - small_n)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB, Linux exec semantics")
class TestFlatMemory:
    def test_farey_csv_peak_rss_near_that_of_the_least_d(self):
        # farey 1497 holds a window of about 22 k terms (2.7 MiB above
        # farey 2 with windows of 62 k and an int64 digit table)
        small = peak_rss_bytes("farey", "2", "--format", "csv")
        large = peak_rss_bytes("farey", "1497", "--format", "csv")
        assert large - small <= 2 * 2**20, f"peak RSS {small} -> {large} bytes"

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_series_grouped_peak_rss_near_that_of_the_least_n(self, fmt):
        # series 99500 --grouped holds int32 pairs of 16,384 radicals and
        # renders 256 KiB pieces (4.3 MiB above series 2 --grouped with
        # int64 pairs and 512 KiB pieces)
        small = peak_rss_bytes("series", "2", "--grouped", "--format", fmt)
        large = peak_rss_bytes("series", "99500", "--grouped", "--format", fmt)
        assert large - small <= 3 * 2**20, f"peak RSS {small} -> {large} bytes"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_farey_peak_rss_flat_as_d_grows_4x(self, fmt):
        # the output grows from 0.08 M to 1.2 M rows
        small = peak_rss_bytes("farey", "500", "--format", fmt)
        large = peak_rss_bytes("farey", "2000", "--format", fmt)
        assert large - small < 8 * 2**20, f"peak RSS {small} -> {large} bytes"

    def test_table_csv_peak_rss_per_entry(self):
        # the sieve's blocks are written as they come; what grows is
        # mostly its buffer of the primes <= N/2, 4 bytes each
        per_entry = peak_rss_per_entry("table", "--format", "csv")
        assert per_entry <= 2, f"{per_entry:.1f} bytes per entry"

    def test_count_exclusion_peak_rss_per_entry(self):
        # the counts are reduced a block of the sieve at a time; what grows
        # is mostly its buffer of the primes <= D/2, 4 bytes each
        per_entry = peak_rss_per_entry("count", "--method", "exclusion")
        assert per_entry <= 2, f"{per_entry:.1f} bytes per entry"

    def test_count_sum_peak_rss_per_entry(self):
        # as for exclusion: one block of the sieve and the primes <= D/2
        per_entry = peak_rss_per_entry("count", "--method", "sum")
        assert per_entry <= 2, f"{per_entry:.1f} bytes per entry"

    def test_bench_sieve_route_holds_no_table(self):
        # only the sieve route runs at 2*10**7; a table of it and the
        # weights n would take 320 MB
        peak = peak_rss_bytes("bench", "20000000")
        assert peak < 96 * 2**20, f"peak RSS {peak / 2**20:.0f} MiB"

    def test_count_at_the_table_limit_in_bounded_memory(self):
        # a whole table would take 800 MB here
        peak = peak_rss_bytes("count", str(SIEVE_LIMIT), "--method", "sum")
        assert peak < 256 * 2**20, f"peak RSS {peak / 2**20:.0f} MiB"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_series_peak_rss_per_entry(self, fmt):
        # the coefficients are reduced and written a chunk of a block of the
        # sieve at a time; what grows is mostly the sieve's buffer of the
        # primes <= N/2, 4 bytes each
        per_entry = peak_rss_per_entry("series", "--format", fmt)
        assert per_entry <= 2, f"{per_entry:.1f} bytes per entry"

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_series_grouped_peak_rss_per_entry(self, fmt):
        # the groups are made from 16,384 radicals of a block of the sieve
        # at a time, and the renderer lays out about 256 KiB of lines at a
        # time; what grows is the sieve's buffer of the primes <= N/2, and
        # the pairs of the first radicals, which hold the most members
        # (70 k at N = 5*10**5, 112 k at 2*10**6)
        per_entry = peak_rss_per_entry("series", "--grouped", "--format", fmt)
        assert per_entry <= 4, f"{per_entry:.1f} bytes per entry"


def traced_peak(run) -> int:
    """The tracemalloc peak of run(), in bytes, after a first run that
    leaves imports and caches warm."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def drain(chunks) -> None:
    """Read chunks to the end, holding none of them."""
    for chunk in chunks:
        del chunk


def table_chunks(max_n: int) -> None:
    """Read the chunks `table max_n` writes, without rendering them."""
    def read(layout, chunks, **fields):
        drain(chunks)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_write_rows", read)
        assert CliRunner().invoke(cli.main, ["table", str(max_n)]).exit_code == 0


#: The sieve's readers over 2,499,750 entries, 20 blocks.  Each held its
#: last block, and _totient_blocks its own, while the next was made: their
#: peaks read 4.13-5.13 MiB; holding one block, 3.13-3.26; with the
#: cofactors' totients uint32 in the large-prime scatter, and no n of
#: _coefficient_blocks held past its block, 2.86 (numpy 2.4).
BLOCK_READERS = {
    "cumulative_counts": lambda: cumulative_counts([2_499_750]),
    "bench sieve route": lambda: bench_totient_methods(2_499_750),
    "_coefficient_blocks": lambda: drain(_coefficient_blocks(2_499_750)),
    "table": lambda: table_chunks(2_499_750),
}


class TestWorkingSet:
    def test_digit_words(self):
        # 160 KB of tables; built through int64 temporaries they took 1.45 MiB
        def build():
            cli._digit_words.cache_clear()
            cli._digit_words()

        assert traced_peak(build) <= 2**19

    def test_one_pass_of_farey_blocks_at_the_benchmark_size(self):
        # windows of about 22 k terms, 1.28 MiB (3.54 with windows of 62 k)
        assert traced_peak(lambda: drain(_farey_blocks(1497))) <= 2 * 2**20

    def test_farey_blocks_at_the_sequence_bound(self):
        # windows of at most 2**16 terms, 3.68 MiB (8.71 with 16 D terms
        # uncapped, about 160 k)
        assert traced_peak(lambda: drain(_farey_blocks(10**4))) <= 3.84 * 2**20

    @pytest.mark.parametrize("read", BLOCK_READERS.values(), ids=BLOCK_READERS.keys())
    def test_sieve_readers_hold_one_block(self, read):
        assert traced_peak(read) <= 3 * 2**20

    def test_one_pass_of_coefficient_groups_at_the_benchmark_size(self):
        # int32 pairs with uint16 offsets, 1.69 MiB (3.52 with int64 pairs)
        assert traced_peak(lambda: drain(_coefficient_groups(99_500))) <= 2.25 * 2**20

    def test_first_groups_at_the_table_limit(self):
        # the first sub-block's pairs hold the most members: 22.9 MiB
        # (41.2 with int64 pairs)
        assert traced_peak(lambda: next(_coefficient_groups(SIEVE_LIMIT))) <= 30 * 2**20

    def test_totient_sum_holds_one_block(self):
        # a prefix of 215,443 entries in two blocks, 3.98 MiB (4.36 with
        # the first block held while the second was made)
        assert traced_peak(lambda: _totient_sum(10**8)) <= 4.2 * 2**20


@pytest.mark.parametrize("args", [
    ["farey", "2000", "--format", "csv"],
    ["farey", "2000", "--format", "json"],
    ["table", "2000000"],
    ["series", "2000000"],
    ["series", "300000", "--grouped", "--format", "json"],
])
def test_reader_closing_early_exits_0_quietly(args):
    # the output is megabytes, far more than a pipe buffers, so the CLI is
    # still writing when the reader goes away
    proc = subprocess.Popen(CLI + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert first
    assert stderr == b""
