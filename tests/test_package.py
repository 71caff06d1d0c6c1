"""The package's lazy public names, and the CLI commands that start
without numpy: each checked in a fresh interpreter, where nothing else
has imported it."""

import json
import subprocess
import sys
from importlib import import_module

import pytest

import totient_lab
from test_streaming import ENV

# Runs the CLI as `python -m totient_lab.cli` does, then writes on the last
# line of stderr whether numpy was imported by the time the CLI exited.
_NUMPY_PROBE = """
import runpy, sys
try:
    runpy.run_module("totient_lab.cli", run_name="__main__", alter_sys=True)
finally:
    print("numpy" in sys.modules, file=sys.stderr)
"""


def run_probed(*args: str) -> tuple[str, bool]:
    """The CLI's stdout for args, and whether it imported numpy."""
    child = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *args], env=ENV,
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
