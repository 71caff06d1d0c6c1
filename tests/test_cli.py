import functools
import itertools
import json
from fractions import Fraction
from itertools import starmap
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import totient_lab.cli as cli
import totient_lab.farey as farey
import totient_lab.series as series
import totient_lab.sieve as sieve
from totient_lab import (
    ENUMERATION_BOUND,
    FAREY_MATERIALIZE_BOUND,
    INT_CEILING,
    SIEVE_LIMIT,
    BenchReport,
    Convention,
    MethodResult,
    bench_totient_methods,
    count_by_enumeration,
    count_by_exclusion,
    count_by_totient_sum,
    factorize,
    farey_sequence,
    group_by_coefficient,
    integrated_series_coefficients,
    phi_over_n,
    radical,
    totient,
    totient_sieve,
)
from totient_lab.farey import _farey_blocks, _farey_windows
from reference_values import CUMULATIVE_PRINTED, TOTIENT_1_TO_100

GOLDEN = Path(__file__).parent / "golden"
EULER = Convention.EULER
FORMATS = ["plain", "csv", "json"]
#: The least D whose terms _farey_blocks yields in two value windows.
FAREY_SEAM_D = next(d for d in itertools.count(2) if _farey_windows(d) > 1)


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 0, result.output + result.stderr
    return result.stdout


def refusals(name: str, low: int, high: int, bound: str, why: str = "") -> list:
    """(value, message) for the values just outside low..high and, where
    high is below it, for the first past the 64-bit ceiling: the messages
    the library's one range check gives, which the CLI writes on stderr."""
    cases = [pytest.param(low - 1, f"{name} must be >= {low}, got {low - 1}", id=str(low - 1)),
             pytest.param(high + 1, f"{name}={high + 1} exceeds the {bound} {high}{why}",
                          id=str(high + 1))]
    if high < INT_CEILING:
        cases.append(pytest.param(2**64, f"{name}={2**64} exceeds the 64-bit ceiling {INT_CEILING}",
                                  id="2**64"))
    return cases


def assert_refused(runner, args, message):
    """args exit 2 with nothing on stdout and message on stderr."""
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert message in result.stderr


def assert_same_text(got: str, expected: str) -> None:
    """got == expected, naming the first line that differs rather than
    diffing megabytes of output."""
    if got == expected:
        return
    got_lines, expected_lines = got.split("\n"), expected.split("\n")
    first = next((i for i, (a, b) in enumerate(zip(got_lines, expected_lines)) if a != b),
                 min(len(got_lines), len(expected_lines)))
    pytest.fail(f"line {first + 1}: {got_lines[first:first + 1]} != "
                f"{expected_lines[first:first + 1]} ({len(got_lines)} lines, "
                f"expected {len(expected_lines)})")


class TestGoldenFiles:
    def test_table_100_csv_matches_golden(self, runner):
        out = run_ok(runner, ["table", "100", "--convention", "euler", "--format", "csv"])
        assert out == (GOLDEN / "table100.csv").read_text()

    def test_table_golden_content_is_the_reference_table(self):
        lines = (GOLDEN / "table100.csv").read_text().splitlines()
        assert lines[0] == "n,phi"
        values = [int(line.split(",")[1]) for line in lines[1:]]
        assert values == TOTIENT_1_TO_100

    def test_farey_10_csv_matches_golden(self, runner):
        out = run_ok(runner, ["farey", "10", "--format", "csv"])
        assert out == (GOLDEN / "farey10.csv").read_text()

    def test_cumulative_golden_preserves_printed_rows(self):
        lines = (GOLDEN / "cumulative.csv").read_text().splitlines()
        assert lines[0] == "max_denominator,fraction_count"
        rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
        assert [d for d, _ in rows] == list(range(10, 101, 10))
        assert [c for _, c in rows] == CUMULATIVE_PRINTED


#: The row templates and separators of every layout whose rows _render
#: writes: bare and numbered fields, and escaped braces.
RENDERED_LAYOUTS = {
    f"{name}-{fmt}": layout[fmt][1:3]
    for name, layout in [("table", cli._TABLE_LAYOUTS), ("farey", cli._FAREY_LAYOUTS),
                         ("series", cli._SERIES_LAYOUTS)]
    for fmt in ("plain", "csv", "json")
}
EDGE_VALUES = [0, 9, 10, 99, 9999, 10**4, 10**4 + 1, 2**32 - 1, 2**32, 10**8, 99_999_999,
               10**12, 2**63 - 1]


def render(*args) -> bytes:
    """cli._render's pieces, joined."""
    return b"".join(cli._render(*args))


class TestRender:
    @pytest.mark.parametrize("layout", RENDERED_LAYOUTS.values(), ids=RENDERED_LAYOUTS.keys())
    @pytest.mark.parametrize("rows", [1, len(EDGE_VALUES), 100])
    @pytest.mark.parametrize("render_bytes", [1, 256, cli.RENDER_BYTES])
    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64, np.uint64])
    def test_matches_str_format(self, monkeypatch, layout, rows, render_bytes, dtype):
        # passes of one row, of a few rows, and of all of them
        monkeypatch.setattr(cli, "RENDER_BYTES", render_bytes)
        row, sep = layout
        edges = [v for v in EDGE_VALUES if v <= np.iinfo(dtype).max]
        values = np.resize(np.array(edges, dtype=dtype), rows)
        # four columns, each holding every edge value once the rows allow it
        columns = tuple(np.roll(values, shift) for shift in range(4))
        expected = sep.join(starmap(row.format, zip(*(c.tolist() for c in columns))))
        assert render(row, sep, columns) == expected.encode()

    @pytest.mark.parametrize("top", EDGE_VALUES)
    def test_column_of_one_width(self, top):
        # every digit of the widest value kept, every leading zero dropped
        columns = (np.arange(top - min(top, 12), top + 1, dtype=np.uint64),)
        expected = "\n".join(map(str, columns[0].tolist()))
        assert render("{}", "\n", columns) == expected.encode()

    @pytest.mark.parametrize("render_bytes", [1, 7, 40, 41, 43, 4000, 4001])
    def test_no_pass_exceeds_render_bytes_over_width(self, monkeypatch, render_bytes):
        # a line of "{},{}" and its separator at values below 1000 is 8
        # bytes wide, so each pass but the last takes render_bytes // 8
        # lines, and at least one
        monkeypatch.setattr(cli, "RENDER_BYTES", render_bytes)
        columns = (np.arange(1000), np.arange(1000)[::-1])
        step = max(1, render_bytes // 8)
        lines = [len(piece.splitlines()) for piece in cli._render("{},{}", "\n", columns)]
        assert lines == [step] * (1000 // step) + ([1000 % step] if 1000 % step else [])


def grouped_rows(layout: tuple[str, ...], groups) -> str:
    """The rows of (radical, num, den, members) groups as str.format writes
    them in a grouped layout: each group's members joined by the joiner,
    filled from the group's values."""
    _, row, sep, _, joiner = layout
    return sep.join(
        row.format(r, num, den, joiner.format(r, num, den).join(map(str, members)))
        for r, num, den, members in groups
    )


@functools.cache
def radical_dict_groups(max_n: int) -> list[tuple[int, int, int, list[int]]]:
    """(radical, num, den, members) for 2..max_n, grouped in a dict by
    trial-division radicals, num/den = phi_over_n(radical)."""
    by_radical: dict[int, list[int]] = {}
    for n in range(2, max_n + 1):
        by_radical.setdefault(radical(n), []).append(n)
    return [(r, phi_over_n(r).numerator, phi_over_n(r).denominator, members)
            for r, members in sorted(by_radical.items())]


class TestGroupedRender:
    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64, np.uint64])
    def test_matches_str_format_across_digit_widths(self, fmt, dtype):
        # group values and members on both sides of 9/10 and 99/100, in
        # groups of one to four members
        values = np.array([9, 10, 99, 100, 8, 11, 98, 101, 0, 1], dtype=dtype)
        sizes = [1, 2, 3, 4, 1, 3, 2, 1, 4, 1]
        edges = np.concatenate(([0], np.cumsum(sizes)))
        members = np.resize(np.roll(values, 3), edges[-1])
        columns = tuple(np.roll(values, shift) for shift in range(3))
        groups = [(*(int(c[g]) for c in columns), members[edges[g]:edges[g + 1]].tolist())
                  for g in range(len(sizes))]
        layout = cli._GROUPED_LAYOUTS[fmt]
        got = render(layout[1], layout[2], (*columns, edges, members), layout[4])
        assert got == grouped_rows(layout, groups).encode()

    #: groups of 1, 2, 3 and 4 members, the widest values of every column
    #: three digits long
    SIZES = [1, 2, 3, 4, 1, 3, 2, 1, 4, 1]
    VALUES = [100, 7, 42, 999, 5, 10, 99, 1, 500, 3]

    def grouped_columns(self):
        edges = np.concatenate(([0], np.cumsum(self.SIZES)))
        members = np.arange(edges[-1]) * 37 % 1000
        columns = tuple(np.roll(np.array(self.VALUES), shift) for shift in range(3))
        groups = [(*(int(c[g]) for c in columns), members[edges[g]:edges[g + 1]].tolist())
                  for g in range(len(self.SIZES))]
        return (*columns, edges, members), groups

    @staticmethod
    def width(layout) -> int:
        """The width of a member's line: the row and the joiner at
        three-digit values, and the separator."""
        return len(layout[1].format(*[999] * 4) + layout[4].format(*[999] * 3) + layout[2])

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("step", [1, 2, 3, 4, 5, 6, 7, 21, 22, 23])
    def test_passes_cut_anywhere_in_a_group(self, monkeypatch, fmt, step):
        # the 22 members, edges at 0, 1, 3, 6, 10, 11, 14, 16, 17, 21: passes
        # of one member, passes ending at a group's first member (step 2 at
        # member 1), at its last (step 3 at member 2), inside it (step 2 at
        # member 7), and one pass of all
        layout = cli._GROUPED_LAYOUTS[fmt]
        columns, groups = self.grouped_columns()
        monkeypatch.setattr(cli, "RENDER_BYTES", (step + 1) * self.width(layout) - 1)
        got = list(cli._render(layout[1], layout[2], columns, layout[4]))
        assert len(got) == -(-22 // step)
        assert b"".join(got) == grouped_rows(layout, groups).encode()

    def test_no_pass_exceeds_render_bytes_over_width(self, monkeypatch):
        # in csv each member but the last is followed by one newline, that
        # of the joiner or of the separator
        layout = cli._GROUPED_LAYOUTS["csv"]
        columns, _ = self.grouped_columns()
        monkeypatch.setattr(cli, "RENDER_BYTES", 6 * self.width(layout) - 1)
        members = [piece.count(b"\n") for piece in cli._render(layout[1], layout[2], columns, layout[4])]
        members[-1] += 1
        assert members == [5, 5, 5, 5, 2]

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("max_n", [2, 3, 64, 10**4])
    @pytest.mark.parametrize("chunk,render_bytes", [
        (1, cli.RENDER_BYTES), (3, 1), (7, 300), (series._CHUNK, 300), (series._CHUNK, cli.RENDER_BYTES),
    ])
    def test_series_matches_str_format(self, runner, monkeypatch, fmt, max_n, chunk, render_bytes):
        # sub-blocks of 1, 3 and 7 radicals, many of them with no squarefree
        # number, rendered a member at a time or a few members at a time, so
        # that passes end inside groups (radical 2 has 13 members at 10**4)
        monkeypatch.setattr(series, "_CHUNK", chunk)
        monkeypatch.setattr(cli, "RENDER_BYTES", render_bytes)
        layout = cli._GROUPED_LAYOUTS[fmt]
        expected = layout[0] + grouped_rows(layout, radical_dict_groups(max_n)) + layout[3]
        got = run_ok(runner, ["series", str(max_n), "--grouped", "--format", fmt])
        assert_same_text(got, expected)

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_series_65538_ends_in_a_sub_block_of_no_group(self, runner, fmt):
        # the last sub-block of radicals, [65538, 65539), holds no squarefree
        # number: 65538 = 2 * 3**2 * 3641
        layout = cli._GROUPED_LAYOUTS[fmt]
        expected = layout[0] + grouped_rows(layout, radical_dict_groups(65538)) + layout[3]
        got = run_ok(runner, ["series", "65538", "--grouped", "--format", fmt])
        assert_same_text(got, expected)


def digit_values(dtype) -> st.SearchStrategy[int]:
    """Values of dtype, non-negative, of 1 to 20 digits, or an edge value
    or the dtype's maximum."""
    top = int(np.iinfo(dtype).max)
    return st.one_of(st.sampled_from([*EDGE_VALUES, top]),
                     st.builds(lambda digits, x: x % 10**digits, st.integers(1, 20), st.integers(0, top)))


class TestRenderProperties:
    @pytest.mark.parametrize("layout", RENDERED_LAYOUTS.values(), ids=RENDERED_LAYOUTS.keys())
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from([np.int64, np.uint64]),
           render_bytes=st.integers(1, 600))
    def test_random_columns_match_str_format(self, layout, data, dtype, render_bytes):
        row, sep = layout
        rows = data.draw(st.integers(1, 30), label="rows")
        columns = tuple(np.array(data.draw(st.lists(digit_values(dtype), min_size=rows, max_size=rows)),
                                 dtype=dtype) for _ in range(4))
        expected = sep.join(starmap(row.format, zip(*(c.tolist() for c in columns))))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "RENDER_BYTES", render_bytes)
            assert render(row, sep, columns) == expected.encode()

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from([np.int64, np.uint64]),
           sizes=st.lists(st.integers(1, 6), min_size=1, max_size=12), render_bytes=st.integers(1, 600))
    def test_random_groups_match_str_format(self, fmt, data, dtype, sizes, render_bytes):
        layout = cli._GROUPED_LAYOUTS[fmt]
        edges = np.concatenate(([0], np.cumsum(sizes)))
        columns = tuple(np.array(data.draw(st.lists(digit_values(dtype), min_size=n, max_size=n)),
                                 dtype=dtype) for n in [len(sizes)] * 3 + [int(edges[-1])])
        *per_group, members = columns
        groups = [(*(int(c[g]) for c in per_group), members[edges[g]:edges[g + 1]].tolist())
                  for g in range(len(sizes))]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "RENDER_BYTES", render_bytes)
            got = render(layout[1], layout[2], (*per_group, edges, members), layout[4])
        assert got == grouped_rows(layout, groups).encode()

    @pytest.mark.parametrize("text", [
        ("{}\0{}", "\n"), ("{},{}", "\0"), ("{} {}", "\n", "\0"), ("{}: \0{}", "\n", " "),
    ])
    def test_nul_byte_in_the_text_refused(self, text):
        # a NUL byte marks the bytes that a pass deletes, so text holding one
        # cannot be rendered: two rows, or two groups of one and two members
        row, sep, *joiner = text
        columns = (np.arange(2), np.array([0, 1, 3]), np.arange(3)) if joiner else (np.arange(2),) * 2
        with pytest.raises(ValueError, match="NUL byte"):
            render(row, sep, columns, *joiner)


class TestNumericParsing:
    @pytest.mark.parametrize("raw", ["+5", " 5", "5 ", "0x10", "abc", "-3", "1_0", "1.5"])
    def test_non_decimal_rejected(self, runner, raw):
        result = runner.invoke(cli.main, ["totient", raw])
        assert result.exit_code == 2

    def test_plain_decimal_accepted(self, runner):
        assert run_ok(runner, ["totient", "0097"]) == "96\n"

    def test_past_the_int_conversion_limit_refused_before_output(self, runner):
        # 5,000 digits is past Python's default 4,300-digit limit on int(str)
        result = runner.invoke(cli.main, ["totient", "9" * 5000])
        assert result.exit_code == 2
        assert result.stdout == ""


class TestTotientCommand:
    def test_plain_value(self, runner):
        assert run_ok(runner, ["totient", "360"]) == "96\n"

    def test_euler_convention_at_one(self, runner):
        assert run_ok(runner, ["totient", "1", "--convention", "euler"]) == "0\n"
        assert run_ok(runner, ["totient", "1"]) == "1\n"

    def test_verbose_lists_distinct_primes(self, runner):
        out = run_ok(runner, ["totient", "9450", "--verbose", "--convention", "euler"])
        assert "phi(9450) = 2160" in out
        assert "distinct primes: 2, 3, 5, 7" in out
        assert "2 * 3^3 * 5^2 * 7" in out

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("n,message", refusals("n", 1, INT_CEILING, "64-bit ceiling"))
    def test_domain_error_exit_2(self, runner, n, message, fmt):
        assert_refused(runner, ["totient", str(n), "--format", fmt], message)

    def test_csv_roundtrip(self, runner):
        out = run_ok(runner, ["totient", "9450", "--format", "csv"])
        header, row = out.splitlines()
        assert header == "n,phi"
        assert row == "9450,2160"

    @pytest.mark.parametrize("n", ["9450", "0"])
    def test_verbose_csv_refused_before_output(self, runner, n):
        result = runner.invoke(cli.main, ["totient", n, "--verbose", "--format", "csv"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "plain and json" in result.stderr

    def test_json_verbose(self, runner):
        out = run_ok(runner, [
            "totient", "9450", "--format", "json", "--verbose", "--convention", "euler",
        ])
        payload = json.loads(out)
        assert payload["phi"] == 2160
        assert payload["distinct_primes"] == [2, 3, 5, 7]
        assert payload["factorization"] == [[2, 1], [3, 3], [5, 2], [7, 1]]


class TestTableCommand:
    def test_plain_second_column(self, runner):
        out = run_ok(runner, ["table", "12", "--convention", "euler"])
        values = [int(line.split()[1]) for line in out.splitlines()]
        assert values == [0, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]

    def test_single_row(self, runner):
        assert run_ok(runner, ["table", "1"]) == "1 1\n"

    def test_csv_roundtrip(self, runner):
        out = run_ok(runner, ["table", "50", "--format", "csv"])
        lines = out.splitlines()
        assert lines[0] == "n,phi"
        parsed = [int(line.split(",")[1]) for line in lines[1:]]
        assert parsed == totient_sieve(50, Convention.MODERN).values.tolist()

    def test_json_roundtrip(self, runner):
        out = run_ok(runner, ["table", "64", "--convention", "euler", "--format", "json"])
        assert json.loads(out) == totient_sieve(64, Convention.EULER).values.tolist()

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_matches_text_rebuilt_from_table_values(self, runner, fmt):
        # 70,000 rows span passes of the renderer in every format: its
        # lines are 12 bytes wide in plain and csv, 9 in json
        n_max = 70_000
        assert n_max > cli.RENDER_BYTES // 9
        values = totient_sieve(n_max, Convention.MODERN).values.tolist()
        expected = {
            "plain": "".join(f"{n} {v}\n" for n, v in enumerate(values, start=1)),
            "csv": "n,phi\n" + "".join(f"{n},{v}\n" for n, v in enumerate(values, start=1)),
            "json": json.dumps(values, indent=2) + "\n",
        }[fmt]
        assert_same_text(run_ok(runner, ["table", str(n_max), "--format", fmt]), expected)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("max_n,message", refusals("max_n", 1, SIEVE_LIMIT, "table limit"))
    def test_bad_max_n_refused_before_output(self, runner, max_n, message, fmt):
        assert_refused(runner, ["table", str(max_n), "--format", fmt], message)

    @pytest.mark.parametrize("convention,message", [
        ("modern", "written phi sum=47 != Phi(N)=46 at N=12"),
        ("euler", "written phi sum=46 != Phi(N)-1=45 at N=12"),
    ])
    def test_corrupted_block_fails_the_end_of_stream_sum(self, runner, monkeypatch,
                                                         convention, message):
        blocks = sieve._totient_blocks

        def corrupted_blocks(max_n, conv):
            for lo, values in blocks(max_n, conv):
                values[4] += 1  # totient(5) = 4 read as 5
                yield lo, values

        monkeypatch.setattr(sieve, "_totient_blocks", corrupted_blocks)
        result = runner.invoke(cli.main, ["table", "12", "--convention", convention])
        assert result.exit_code == 3
        assert message in result.stderr


class TestCountCommand:
    def test_all_methods_agree_at_20(self, runner):
        out = run_ok(runner, ["count", "20", "--method", "all"])
        assert "total_unreduced: 190" in out
        assert "excluded: 63" in out
        assert "count_by_exclusion: 127" in out
        assert "count_by_totient_sum: 127" in out
        assert "count_by_enumeration: 127" in out

    def test_sum_method_plain(self, runner):
        assert run_ok(runner, ["count", "100", "--method", "sum"]) == "3043\n"

    def test_exclusion_trivial(self, runner):
        out = run_ok(runner, ["count", "2", "--method", "exclusion"])
        assert "count_by_exclusion: 1" in out

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("d,message", refusals(
        "max_denominator", 2, ENUMERATION_BOUND, "enumeration bound",
        "; count_by_enumeration is O(D^2 log D)"))
    def test_enumerate_bound_refused(self, runner, d, message, fmt):
        assert_refused(runner, ["count", str(d), "--method", "enumerate", "--format", fmt], message)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("d,message", refusals("max_denominator", 2, SIEVE_LIMIT, "table limit"))
    @pytest.mark.parametrize("method", ["sum", "exclusion", "all"])
    def test_refused_before_output(self, runner, method, d, message, fmt):
        assert_refused(runner, ["count", str(d), "--method", method, "--format", fmt], message)

    def test_json_roundtrip(self, runner):
        out = run_ok(runner, ["count", "30", "--method", "all", "--format", "json"])
        payload = json.loads(out)
        report = count_by_exclusion(30)
        assert payload["max_denominator"] == 30
        assert payload["total_unreduced"] == report.total_unreduced
        assert payload["excluded"] == report.excluded
        assert payload["count_by_exclusion"] == report.count_by_exclusion
        assert payload["count_by_totient_sum"] == report.count_by_totient_sum
        assert payload["count_by_enumeration"] == report.count_by_exclusion

    def test_csv_roundtrip(self, runner):
        out = run_ok(runner, ["count", "30", "--method", "all", "--format", "csv"])
        header, row = out.splitlines()
        fields = row.split(",")
        assert header.split(",")[0] == "max_denominator"
        # 435 = 30*29/2; 277 matches the cumulative count at D = 30
        assert [int(x) for x in fields] == [30, 435, 158, 277, 277, 277]

    def test_sum_json(self, runner):
        out = run_ok(runner, ["count", "100", "--method", "sum", "--format", "json"])
        assert json.loads(out) == {"max_denominator": 100, "method": "sum", "count": 3043}

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    def test_enumeration_skipped_above_its_bound(self, runner, fmt):
        d = ENUMERATION_BOUND + 1
        report = count_by_exclusion(d)
        names = ["max_denominator", "total_unreduced", "excluded", "count_by_exclusion",
                 "count_by_totient_sum"]
        values = [d, report.total_unreduced, report.excluded, report.count_by_exclusion,
                  report.count_by_totient_sum]
        skipped = f"skipped (D exceeds {ENUMERATION_BOUND})"
        expected = {  # json's null is TestJsonBytes' case
            "plain": [f"{n}: {v}" for n, v in zip(names, values)]
                     + [f"count_by_enumeration: {skipped}"],
            "csv": [",".join(names + ["count_by_enumeration"]), ",".join(map(str, values)) + ","],
        }[fmt]
        out = run_ok(runner, ["count", str(d), "--method", "all", "--format", fmt])
        assert out.splitlines() == expected

    def test_cross_check_failure_exits_3(self, runner, monkeypatch):
        monkeypatch.setattr(farey, "count_by_enumeration", lambda d: 999)
        result = runner.invoke(cli.main, ["count", "20", "--method", "all"])
        assert result.exit_code == 3
        assert "disagree" in result.stderr
        assert "count_by_enumeration=999 != count_by_exclusion=127 at D=20" in result.stderr


class TestAllocationFailure:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("module,producer,args", [
        (sieve, "_totient_blocks", ["table", "1000"]),
        (farey, "_smooth_blocks", ["count", "1000"]),
    ], ids=["table", "count"])
    def test_memory_error_at_the_first_block_exits_2(self, runner, monkeypatch, module,
                                                      producer, args, fmt):
        def exhausted(*_):
            raise MemoryError
            yield

        monkeypatch.setattr(module, producer, exhausted)
        assert_refused(runner, args + ["--format", fmt], "allocation failed; request a smaller range")


class TestFareyCommand:
    def test_plain_with_count_footer(self, runner):
        out = run_ok(runner, ["farey", "5"])
        lines = out.splitlines()
        assert lines[:3] == ["1/5", "1/4", "1/3"]
        assert lines[-2] == "4/5"
        assert lines[-1] == "count: 9"

    def test_trivial(self, runner):
        assert run_ok(runner, ["farey", "2"]) == "1/2\ncount: 1\n"

    def test_csv_has_31_rows_at_10(self, runner):
        out = run_ok(runner, ["farey", "10", "--format", "csv"])
        lines = out.splitlines()
        assert lines[0] == "numerator,denominator"
        assert len(lines) == 32
        parsed = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
        assert parsed == [(f.numerator, f.denominator) for f in farey_sequence(10)]

    def test_json_roundtrip(self, runner):
        out = run_ok(runner, ["farey", "6", "--format", "json"])
        payload = json.loads(out)
        assert payload["count"] == len(payload["fractions"])
        assert [(f["numerator"], f["denominator"]) for f in payload["fractions"]] == [
            (f.numerator, f.denominator) for f in farey_sequence(6)
        ]

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("d,message", refusals(
        "max_denominator", 2, FAREY_MATERIALIZE_BOUND, "sequence bound",
        "; iter_farey_pairs and iter_farey_sequence stream beyond it"))
    def test_bound_refused(self, runner, d, message, fmt):
        # _farey_blocks refuses 10001 when the first block is asked for, so
        # before the head is written
        assert_refused(runner, ["farey", str(d), "--format", fmt], message)

    @pytest.mark.parametrize("args", [
        ["farey", "0"],
        ["farey", "1"],
        ["farey", "1", "--format", "csv"],
        ["farey", "1", "--format", "json"],
    ])
    def test_bad_denominator_refused_before_output(self, runner, args):
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 2
        assert result.stdout == ""

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("d", [2, 10, FAREY_SEAM_D, 470])
    def test_matches_text_rebuilt_from_sequence(self, runner, d, fmt):
        # D = 2 and 10 give one block, FAREY_SEAM_D two, and D = 470 four,
        # each of which json renders in pieces
        seq = farey_sequence(d)
        expected = {
            "plain": "".join(f"{f}\n" for f in seq) + f"count: {len(seq)}\n",
            "csv": "numerator,denominator\n"
                   + "".join(f"{f.numerator},{f.denominator}\n" for f in seq),
            "json": json.dumps({
                "max_denominator": d,
                "count": len(seq),
                "fractions": [
                    {"numerator": f.numerator, "denominator": f.denominator} for f in seq
                ],
            }, indent=2) + "\n",
        }[fmt]
        assert_same_text(run_ok(runner, ["farey", str(d), "--format", fmt]), expected)

    def test_470_windows_cross_render_pieces_in_json(self):
        # _render lays out RENDER_BYTES // width rows at a time, width being
        # a row and its separator at the chunk's maxima; the windows have
        # fewer rows than a piece of plain or csv, which `table` crosses
        row, sep = cli._FAREY_LAYOUTS["json"][1:3]
        for num, den in _farey_blocks(470):
            assert len(num) > cli.RENDER_BYTES // len(row.format(num.max(), den.max()) + sep)

    def test_seam_d_crosses_a_window_seam(self):
        assert len(list(_farey_blocks(FAREY_SEAM_D))) == 2

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("fault,message", [
        # 4/9 and 1/2 trade places, 1/2 opening the second block
        ("swap", "farey terms 3/7 and 1/2 are not neighbours at D=10: bc - ad = 1, b + d = 9"),
        # 1/10 is the mediant of 0/1 and 1/9, so the determinant still reads 1
        ("drop-first", "farey terms 0/1 and 1/9 are not neighbours at D=10: bc - ad = 1, b + d = 10"),
        ("drop-last", "farey terms 8/9 and 1/1 are not neighbours at D=10: bc - ad = 1, b + d = 10"),
    ])
    def test_terms_that_are_not_neighbours_exit_3(self, runner, monkeypatch, fmt, fault, message):
        (num, den), = _farey_blocks(10)
        i = list(zip(num.tolist(), den.tolist())).index((4, 9))
        if fault == "swap":
            num[[i, i + 1]], den[[i, i + 1]] = num[[i + 1, i]], den[[i + 1, i]]
        elif fault == "drop-first":
            num, den, i = num[1:], den[1:], i - 1
        else:
            num, den = num[:-1], den[:-1]

        def faulty_blocks(d):
            yield num[:i], den[:i]
            yield num[i:], den[i:]

        monkeypatch.setattr(farey, "_farey_blocks", faulty_blocks)
        result = runner.invoke(cli.main, ["farey", "10", "--format", fmt])
        assert result.exit_code == 3
        assert message in result.stderr

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_count_disagreeing_with_walk_exits_3(self, runner, monkeypatch, fmt):
        monkeypatch.setattr(farey, "count_by_totient_sum", lambda d: 30)
        result = runner.invoke(cli.main, ["farey", "10", "--format", fmt])
        assert result.exit_code == 3
        assert "wrote 31 fractions at D=10, count_by_totient_sum gives 30" in result.stderr
        # checked after the last row and before the tail
        assert "count:" not in result.stdout
        assert "]\n}" not in result.stdout


class TestSeriesCommand:
    def test_plain_rows(self, runner):
        out = run_ok(runner, ["series", "10"])
        thirds = [line.split()[2] for line in out.splitlines()]
        assert thirds == ["1/2", "2/3", "1/2", "4/5", "1/3", "6/7", "1/2", "2/3", "2/5"]

    def test_single_row(self, runner):
        assert run_ok(runner, ["series", "2"]) == "2 1 1/2\n"

    def test_csv_roundtrip(self, runner):
        out = run_ok(runner, ["series", "20", "--format", "csv"])
        lines = out.splitlines()
        assert lines[0] == "n,phi,phi_over_n"
        expected = integrated_series_coefficients(20)
        for line, coeff in zip(lines[1:], expected):
            n, phi, frac = line.split(",")
            assert frac == f"{coeff.numerator}/{coeff.denominator}"
            assert int(phi) * coeff.denominator == coeff.numerator * int(n)

    def test_grouped_members(self, runner):
        out = run_ok(runner, ["series", "64", "--grouped"])
        radical_2 = next(line for line in out.splitlines() if line.startswith("radical 2:"))
        assert "members 2 4 8 16 32 64" in radical_2
        assert "coefficient 1/2" in radical_2

    def test_grouped_json_roundtrip(self, runner):
        out = run_ok(runner, ["series", "36", "--grouped", "--format", "json"])
        payload = json.loads(out)
        expected = group_by_coefficient(36)
        assert len(payload) == len(expected)
        for got, g in zip(payload, expected):
            assert got["radical"] == g.radical
            assert (got["coefficient"]["num"], got["coefficient"]["den"]) == (
                g.coefficient.numerator, g.coefficient.denominator,
            )
            assert got["members"] == list(g.members)

    def test_grouped_csv_rows(self, runner):
        out = run_ok(runner, ["series", "16", "--grouped", "--format", "csv"])
        lines = out.splitlines()
        assert lines[0] == "radical,coefficient,member"
        assert "2,1/2,16" in lines

    def test_domain_error(self, runner):
        assert runner.invoke(cli.main, ["series", "1"]).exit_code == 2

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("max_n,message", [
        pytest.param(0, "max_n must be >= 2, got 0", id="0"),
        *refusals("max_n", 2, SIEVE_LIMIT, "table limit"),
    ])
    @pytest.mark.parametrize("grouped", [[], ["--grouped"]], ids=["rows", "grouped"])
    def test_bad_max_n_refused_before_output(self, runner, grouped, max_n, message, fmt):
        assert_refused(runner, ["series", str(max_n), *grouped, "--format", fmt], message)

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_corrupted_block_fails_the_end_of_stream_sum(self, runner, monkeypatch, fmt):
        blocks = series._coefficient_blocks

        def corrupted_blocks(max_n):
            for n, phi, num, den in blocks(max_n):
                phi[5] += 1  # totient(7) = 6 read as 7
                yield n, phi, num, den

        monkeypatch.setattr(series, "_coefficient_blocks", corrupted_blocks)
        result = runner.invoke(cli.main, ["series", "10", "--format", fmt])
        assert result.exit_code == 3
        assert "written phi sum=32 != Phi(N)-1=31 at N=10" in result.stderr

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("fault,message", [
        ("drop", "written member sum=46 != N(N+1)/2-1=54 at N=10"),
        ("double", "written member sum=58 != N(N+1)/2-1=54 at N=10"),
    ])
    def test_corrupted_groups_fail_the_end_of_stream_sum(self, runner, monkeypatch, fmt,
                                                         fault, message):
        groups = series._coefficient_groups

        def corrupted_groups(max_n):
            for radicals, nums, dens, edges, members in groups(max_n):
                # radical 2 holds 2, 4, 8: 8 is dropped, or 4 written twice
                assert members[:3].tolist() == [2, 4, 8]
                if fault == "drop":
                    members, edges = np.delete(members, 2), edges - (edges > 2)
                else:
                    members, edges = np.insert(members, 1, 4), edges + (edges > 0)
                yield radicals, nums, dens, edges, members

        monkeypatch.setattr(series, "_coefficient_groups", corrupted_groups)
        result = runner.invoke(cli.main, ["series", "10", "--grouped", "--format", fmt])
        assert result.exit_code == 3
        assert message in result.stderr

    @pytest.mark.parametrize("args", [["series", "100"], ["series", "100", "--grouped"]])
    def test_one_sieve_per_request(self, runner, monkeypatch, args):
        # one pass over the sieve's blocks, and no whole table
        calls = []

        def counted(route):
            def call(*a, **kw):
                calls.append(route.__name__)
                return route(*a, **kw)
            return call

        for route in (series._totient_blocks, series.totient_sieve):
            monkeypatch.setattr(series, route.__name__, counted(route))
        run_ok(runner, args)
        assert calls == ["_totient_blocks"]


@pytest.fixture(scope="module")
def scalar_series_70000():
    """(n, phi, coefficient) for n = 2..70000 by trial-division totients:
    69,999 rows cross chunk boundaries of the sieve's reduction and span
    passes of the renderer, whose plain and csv lines are 24 bytes wide."""
    rows = [(n, totient(n, EULER), Fraction(totient(n, EULER), n)) for n in range(2, 70_001)]
    assert len(rows) > max(series._CHUNK, cli.RENDER_BYTES // 24)
    return rows


@pytest.fixture(scope="module")
def radical_groups_110000():
    """(radical, coefficient, members) for 2..110000, grouped in a dict by
    trial-division radicals: 66,879 groups span sub-blocks of radicals."""
    by_radical: dict[int, list[int]] = {}
    for n in range(2, 110_001):
        by_radical.setdefault(radical(n), []).append(n)
    groups = [(r, phi_over_n(r), members) for r, members in sorted(by_radical.items())]
    assert len(groups) == 66_879 > series._CHUNK
    return groups


class TestSeriesBytes:
    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_matches_text_rebuilt_from_scalar_totients(self, runner, scalar_series_70000, fmt):
        rows = scalar_series_70000
        expected = {
            "plain": "".join(f"{n} {phi} {c}\n" for n, phi, c in rows),
            "csv": "n,phi,phi_over_n\n" + "".join(f"{n},{phi},{c}\n" for n, phi, c in rows),
            "json": json.dumps([
                {"n": n, "phi": phi, "coefficient": {"num": c.numerator, "den": c.denominator}}
                for n, phi, c in rows
            ], indent=2) + "\n",
        }[fmt]
        assert_same_text(run_ok(runner, ["series", "70000", "--format", fmt]), expected)

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_grouped_matches_text_rebuilt_from_radical_dict(self, runner, radical_groups_110000, fmt):
        groups = radical_groups_110000
        expected = {
            "plain": "".join(
                f"radical {r}: coefficient {c}, members {' '.join(map(str, ms))}\n"
                for r, c, ms in groups
            ),
            "csv": "radical,coefficient,member\n"
                   + "".join(f"{r},{c},{m}\n" for r, c, ms in groups for m in ms),
            "json": json.dumps([
                {"radical": r, "coefficient": {"num": c.numerator, "den": c.denominator},
                 "members": ms}
                for r, c, ms in groups
            ], indent=2) + "\n",
        }[fmt]
        assert_same_text(run_ok(runner, ["series", "110000", "--grouped", "--format", fmt]), expected)


class TestJsonBytes:
    """json output equals json.dumps(payload, indent=2) plus a newline, for a
    payload built here from the library's results."""

    @pytest.mark.parametrize("d,method", [
        (2, "exclusion"), (30, "all"), (10001, "all"), (100, "sum"), (20, "enumerate"),
    ])
    def test_count(self, runner, d, method):
        if method == "sum":
            payload = {"max_denominator": d, "method": method, "count": count_by_totient_sum(d)}
        elif method == "enumerate":
            payload = {"max_denominator": d, "method": method, "count": count_by_enumeration(d)}
        else:
            report = count_by_exclusion(d)
            enumerated = method == "all" and d <= ENUMERATION_BOUND
            payload = {
                "max_denominator": report.max_denominator,
                "total_unreduced": report.total_unreduced,
                "excluded": report.excluded,
                "count_by_exclusion": report.count_by_exclusion,
                "count_by_totient_sum": report.count_by_totient_sum,
                "count_by_enumeration": count_by_enumeration(d) if enumerated else None,
            }
        out = run_ok(runner, ["count", str(d), "--method", method, "--format", "json"])
        assert out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("n,convention,verbose", [
        (9450, "euler", True), (1, "modern", True), (1, "euler", False), (360, "modern", False),
    ])
    def test_totient(self, runner, n, convention, verbose):
        payload = {"n": n, "convention": convention, "phi": totient(n, Convention(convention))}
        if verbose:
            factors = factorize(n).factors
            payload["factorization"] = [[p, e] for p, e in factors]
            payload["distinct_primes"] = [p for p, _ in factors]
        args = ["totient", str(n), "--convention", convention, "--format", "json"]
        out = run_ok(runner, args + ["--verbose"] * verbose)
        assert out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("max_n", [100, 20_000])
    def test_bench(self, runner, monkeypatch, max_n):
        # one report, timings included, feeds both the CLI and the payload
        report = bench_totient_methods(max_n)
        monkeypatch.setattr(sieve, "bench_totient_methods", lambda n: report)
        payload = {
            "max_n": max_n,
            "results": [
                {"method": r.method, "executed": r.executed, "seconds": r.seconds,
                 "checksum": r.checksum, "skip_reason": r.skip_reason}
                for r in report.results
            ],
            "checksums_agree": True,
        }
        out = run_ok(runner, ["bench", str(max_n), "--format", "json"])
        assert out == json.dumps(payload, indent=2) + "\n"


class TestBenchCommand:
    def test_small_run_agrees(self, runner):
        out = run_ok(runner, ["bench", "500"])
        assert "checksums agree: yes" in out
        assert out.count("checksum") >= 3

    def test_json_checksums_match_library(self, runner):
        out = run_ok(runner, ["bench", "200", "--format", "json"])
        payload = json.loads(out)
        assert payload["checksums_agree"] is True
        checksums = {r["checksum"] for r in payload["results"] if r["executed"]}
        assert checksums == set(bench_totient_methods(200).executed_checksums())

    def test_csv_shape(self, runner):
        out = run_ok(runner, ["bench", "100", "--format", "csv"])
        lines = out.splitlines()
        assert lines[0] == "method,executed,seconds,checksum,skip_reason"
        assert len(lines) == 4

    #: one method skipped, two timed with the same checksum
    FIXED_REPORT = BenchReport(
        max_n=20_000,
        results=(
            MethodResult("bruteforce-oracle", False, skip_reason="max_n exceeds brute-force bound 10000"),
            MethodResult("per-n-factorization", True, 0.0123456789, 121_590_395),
            MethodResult("sieve", True, 1.5, 121_590_395),
        ),
    )

    def test_csv_bytes(self, runner, monkeypatch):
        monkeypatch.setattr(sieve, "bench_totient_methods", lambda n: self.FIXED_REPORT)

        def field(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            return f"{value:.6f}" if isinstance(value, float) else str(value)

        expected = "method,executed,seconds,checksum,skip_reason\n" + "".join(
            ",".join(map(field, (r.method, r.executed, r.seconds, r.checksum, r.skip_reason)))
            + "\n"
            for r in self.FIXED_REPORT.results
        )
        assert run_ok(runner, ["bench", "20000", "--format", "csv"]) == expected

    def test_plain_bytes(self, runner, monkeypatch):
        monkeypatch.setattr(sieve, "bench_totient_methods", lambda n: self.FIXED_REPORT)
        expected = "".join(
            f"{r.method}: {r.seconds:.6f} s, checksum {r.checksum}\n" if r.executed
            else f"{r.method}: skipped ({r.skip_reason})\n"
            for r in self.FIXED_REPORT.results
        ) + "checksums agree: yes\n"
        assert run_ok(runner, ["bench", "20000"]) == expected

    def test_skip_marked(self, runner):
        out = run_ok(runner, ["bench", "20000"])
        assert "bruteforce-oracle: skipped" in out

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("max_n,message", refusals(
        "max_n", 1, SIEVE_LIMIT, "largest method bound",
        "; above every method's bound, no method would run"))
    def test_refused_before_output(self, runner, max_n, message, fmt):
        assert_refused(runner, ["bench", str(max_n), "--format", fmt], message)

    def test_checksum_mismatch_exits_3(self, runner, monkeypatch):
        fake = BenchReport(
            max_n=10,
            results=(
                MethodResult("bruteforce-oracle", True, 0.1, 1),
                MethodResult("sieve", True, 0.1, 2),
            ),
        )
        monkeypatch.setattr(sieve, "bench_totient_methods", lambda n: fake)
        result = runner.invoke(cli.main, ["bench", "10"])
        assert result.exit_code == 3
        assert "disagree" in result.stderr


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["table", "200", "--convention", "euler", "--format", "csv"],
        ["table", "200", "--format", "json"],
        ["count", "150", "--method", "all", "--format", "json"],
        ["count", "150", "--method", "all", "--format", "csv"],
        ["farey", "30", "--format", "csv"],
        ["farey", "30", "--format", "json"],
        ["series", "100", "--format", "csv"],
        ["series", "100", "--grouped", "--format", "json"],
        ["totient", "9450", "--verbose", "--format", "json"],
    ])
    def test_identical_invocations_are_byte_identical(self, runner, args):
        assert run_ok(runner, args) == run_ok(runner, args)

    def test_bench_non_timing_fields_deterministic(self, runner):
        # bench output embeds wall-clock timings, so byte identity is only
        # required of everything except the seconds fields
        first = json.loads(run_ok(runner, ["bench", "100", "--format", "json"]))
        second = json.loads(run_ok(runner, ["bench", "100", "--format", "json"]))
        for payload in (first, second):
            for row in payload["results"]:
                row.pop("seconds")
        assert first == second
