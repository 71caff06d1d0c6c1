"""The package's lazy public names, the modules and threads a CLI command
starts, and the program's entry: each checked in a fresh interpreter,
where nothing else has imported the package."""

import json
import os
import subprocess
import sys
from importlib import import_module

import pytest
from click.testing import CliRunner

import totient_lab
import totient_lab.cli as cli
import totient_lab.farey as farey
from test_streaming import CLI, ENV

# Runs the CLI as `python -m totient_lab.cli` does, with the arguments after
# the first, then writes on the last line of stderr whether the module the
# first names was imported by the time the CLI exited.
_MODULE_PROBE = """
import runpy, sys
module = sys.argv.pop(1)
try:
    runpy.run_module("totient_lab.cli", run_name="__main__", alter_sys=True)
finally:
    print(module in sys.modules, file=sys.stderr)
"""

# Runs the CLI as `python -m totient_lab.cli` does, then writes on the last
# line of stderr, as json, how many threads the process held when the CLI
# exited and the OPENBLAS_NUM_THREADS it held then.
_THREAD_PROBE = """
import json, os, runpy, sys
try:
    runpy.run_module("totient_lab.cli", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps([len(os.listdir("/proc/self/task")),
                      os.environ.get("OPENBLAS_NUM_THREADS")]), file=sys.stderr)
"""

# Runs the CLI as `python -m totient_lab.cli` does, then writes on the last
# line of stderr whether the cyclic collector was on when the CLI exited.
_COLLECTOR_PROBE = """
import gc, runpy, sys
try:
    runpy.run_module("totient_lab.cli", run_name="__main__", alter_sys=True)
finally:
    print(gc.isenabled(), file=sys.stderr)
"""

# Runs the CLI as `python -m totient_lab.cli` does, with the enumeration
# route made to disagree with the other counting routes.
_BROKEN_ENUMERATION = """
import runpy, totient_lab.farey
totient_lab.farey.count_by_enumeration = lambda d: 999
runpy.run_module("totient_lab.cli", run_name="__main__", alter_sys=True)
"""


def run_probed(*args: str, module: str = "numpy") -> tuple[str, bool]:
    """The CLI's stdout for args, and whether it imported module."""
    child = subprocess.run([sys.executable, "-c", _MODULE_PROBE, module, *args], env=ENV,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return child.stdout, {"True": True, "False": False}[child.stderr.splitlines()[-1]]


class TestLazyNames:
    def test_all_is_the_table(self):
        names = [name for names in totient_lab._NAMES.values() for name in names]
        assert len(set(names)) == len(names)
        assert totient_lab.__all__ == sorted(names)

    @pytest.mark.parametrize("module", sorted(totient_lab._NAMES))
    def test_each_name_is_its_modules(self, module):
        defining = import_module(f"totient_lab.{module}")
        for name in totient_lab._NAMES[module]:
            assert getattr(totient_lab, name) is getattr(defining, name), name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from totient_lab import *", namespace)
        assert set(totient_lab.__all__) <= set(namespace)
        for name in totient_lab.__all__:
            assert namespace[name] is getattr(totient_lab, name), name

    def test_dir_lists_every_name(self):
        assert set(totient_lab.__all__) | {"__version__"} <= set(dir(totient_lab))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            totient_lab.no_such_name
        assert not hasattr(totient_lab, "_totient_blocks")

    def test_import_loads_no_module(self):
        probe = ("import sys, totient_lab; "
                 "print(sorted(m for m in sys.modules if m.startswith(('totient_lab.', 'numpy'))))")
        child = subprocess.run([sys.executable, "-c", probe], env=ENV,
                               capture_output=True, text=True, timeout=60, check=True)
        assert child.stdout == "[]\n"


class TestStartWithoutNumpy:
    def test_totient(self):
        assert run_probed("totient", "1000003") == ("1000002\n", False)

    def test_totient_verbose_json(self):
        out, numpy_loaded = run_probed("totient", "97", "--verbose", "--format", "json")
        assert json.loads(out) == {"n": 97, "convention": "modern", "phi": 96,
                                   "factorization": [[97, 1]], "distinct_primes": [97]}
        assert not numpy_loaded

    @pytest.mark.parametrize("args,text", [
        (["--help"], "Totient values, reduced-fraction counts, and series coefficients."),
        (["table", "--help"], "Totient values for every n in 1..MAX_N."),
        (["--version"], "version 0.1.0"),
    ])
    def test_help_and_version(self, args, text):
        out, numpy_loaded = run_probed(*args)
        assert text in out
        assert not numpy_loaded

    def test_probe_sees_numpy_when_a_command_uses_it(self):
        assert run_probed("table", "3") == ("1 1\n2 1\n3 2\n", True)


class TestImportsOnlyWhatRuns:
    def test_grouped_series_loads_no_farey(self):
        out, farey_loaded = run_probed("series", "100", "--grouped", module="totient_lab.farey")
        assert out.startswith("radical 2: coefficient 1/2, members 2 4 8 16 32 64\n")
        assert not farey_loaded

    def test_probe_sees_farey_when_the_sum_check_uses_it(self):
        out, farey_loaded = run_probed("series", "100", module="totient_lab.farey")
        assert out.startswith("2 1 1/2\n3 2 2/3\n")
        assert farey_loaded

    @pytest.mark.parametrize("module", ["json", "string", "fractions"])
    def test_plain_count_loads_no_json_string_or_fractions(self, module):
        out, loaded = run_probed("count", "20", "--method", "exclusion", module=module)
        assert out.startswith("max_denominator: 20\n")
        assert not loaded

    @pytest.mark.parametrize("args,head", [
        (["farey", "10", "--format", "csv"], "numerator,denominator\n1,10\n"),
        (["series", "64", "--grouped"], "radical 2: coefficient 1/2, members 2 4 8 16 32 64\n"),
    ])
    @pytest.mark.parametrize("module", ["json", "fractions"])
    def test_streamed_rows_load_no_json_or_fractions(self, args, head, module):
        out, loaded = run_probed(*args, module=module)
        assert out.startswith(head)
        assert not loaded

    def test_probe_sees_json_when_a_record_is_json(self):
        out, json_loaded = run_probed("count", "20", "--format", "json", module="json")
        assert json.loads(out)["count_by_exclusion"] == 127
        assert json_loaded


class TestCollectorOff:
    def test_run_leaves_the_collector_off(self):
        child = subprocess.run([sys.executable, "-c", _COLLECTOR_PROBE, "count", "20"], env=ENV,
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stderr.splitlines()[-1] == "False"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc")
class TestOneBlasThread:
    @staticmethod
    def run_thread_probe(**blas_env: str) -> tuple[int, str | None]:
        """Threads held at exit by `table 3` run with blas_env in place of
        the BLAS thread settings, and the OPENBLAS_NUM_THREADS it held."""
        unset = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        env = {name: value for name, value in ENV.items() if name not in unset}
        child = subprocess.run([sys.executable, "-c", _THREAD_PROBE, "table", "3"],
                               env={**env, **blas_env}, capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stdout == "1 1\n2 1\n3 2\n"
        threads, setting = json.loads(child.stderr.splitlines()[-1])
        return threads, setting

    def test_cli_holds_one_thread(self):
        threads, setting = self.run_thread_probe()
        assert setting == "1"
        if os.cpu_count() > 1:  # with one CPU, OpenBLAS starts no worker thread either way
            assert threads == 1

    def test_users_setting_is_kept(self):
        _, setting = self.run_thread_probe(OPENBLAS_NUM_THREADS="2")
        assert setting == "2"


class TestEntry:
    """`python -m totient_lab.cli`, which runs cli.run, writes the bytes and
    exits with the code that the click group main gives under CliRunner."""

    @pytest.mark.parametrize("args,exit_code,broken", [
        (["count", "20", "--format", "json"], 0, False),  # all of it out before the exit
        (["count", "1"], 2, False),
        (["count", "20", "--method", "all"], 3, True),
    ])
    def test_same_bytes_and_exit_code_as_main(self, args, exit_code, broken, monkeypatch):
        entry = [sys.executable, "-c", _BROKEN_ENUMERATION] if broken else CLI
        child = subprocess.run([*entry, *args], env=ENV, capture_output=True, timeout=60)
        if broken:
            monkeypatch.setattr(farey, "count_by_enumeration", lambda d: 999)
        result = CliRunner().invoke(cli.main, args)
        assert result.exit_code == exit_code
        assert child.stdout == result.stdout_bytes
        assert child.stderr == result.stderr_bytes
        assert child.returncode == exit_code
