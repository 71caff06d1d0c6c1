"""Tests of the benchmark itself: per-child RSS, the traced run, and the
independent output checks.

Run from the repository root with ``python3 -m pytest benchmarks -q``.  The
traced-run tests run the real workloads once each; the file takes about 35 s.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from children import Launcher
from workloads import CheckFailed, coprime_pair_count, make_workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def launcher():
    with Launcher(run.child_env(ROOT), str(ROOT)) as launcher:
        yield launcher


def cli(launcher: Launcher, *args: str) -> bytes:
    result = launcher.run([sys.executable, "-m", "totient_lab.cli", *args])
    assert result.exit_code == 0, result.stderr
    return result.stdout


def test_small_child_after_large_one_reports_its_own_peak_rss(launcher):
    ballast = b"x" * (100 << 20)  # this process's own peak must not leak into children
    large = launcher.run([sys.executable, "-c", "block = b'x' * (200 << 20)"])
    small = launcher.run([sys.executable, "-c", "pass"])
    assert large.exit_code == small.exit_code == 0
    assert large.peak_rss_mb > 200
    assert small.peak_rss_mb < 50 < len(ballast) >> 20


def test_moebius_count_matches_the_definition():
    for D in range(2, 60):
        pairs = sum(1 for b in range(2, D + 1) for a in range(1, b) if math.gcd(a, b) == 1)
        assert coprime_pair_count(D) == pairs, D


def _corrupt_lines(text: bytes, index: int, replace) -> bytes:
    lines = text.split(b"\n")
    lines[index] = replace(lines[index])
    return b"\n".join(lines)


CORRUPTIONS = {
    "count-exclusion": (("count", "2000", "--method", "exclusion"),
                        lambda out: out.replace(b"count_by_totient_sum: ", b"count_by_totient_sum: 1")),
    "farey-csv": (("farey", "60", "--format", "csv"),
                  lambda out: _corrupt_lines(out, 5, lambda line: line.replace(b",", b",1"))),
    "series-grouped": (("series", "500", "--grouped"),
                       lambda out: out.replace(b"members 2 4 8 ", b"members 2 4 6 8 ", 1)),
    "factor-64": (("totient", str(97 * 1000000007), "--verbose", "--format", "json"),
                  lambda out: out.replace(b'"phi": ', b'"phi": 1', 1)),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_checks_accept_the_cli_output_and_reject_a_corrupted_one(launcher, name):
    workload = make_workloads()[name]
    request, corrupt = CORRUPTIONS[name]
    out = cli(launcher, *request)
    workload.check(request, out)
    bad = corrupt(out)
    assert bad != out
    with pytest.raises((CheckFailed, ValueError)):
        workload.check(request, bad)


def test_factor_requests_are_bounded_and_repeat_for_a_seed():
    workload = make_workloads()["factor-64"]
    requests = workload.requests(random.Random(5))
    assert requests == workload.requests(random.Random(5))
    assert len(requests) == 12
    assert all(int(r[1]) < 2**64 for r in requests)


def _traced_run(name: str, seed: int):
    workload = make_workloads()[name]
    runner, metrics, _ = run.run_workload(workload, seed, 0, traced=True)
    assert runner.failures == []
    requests = workload.requests(random.Random(seed))
    # One plain and one traced pass; the traced bytes are judged against
    # the verified plain bytes of the same request.
    assert runner.attempted == 2 * len(requests)
    return requests, {name: value for name, (value, _) in metrics.items()}


def test_traced_count_exclusion_counts_repeat_and_cover_both_sieves():
    requests, first = _traced_run("count-exclusion", 11)
    _, second = _traced_run("count-exclusion", 11)
    counts = [name for name, value in first.items() if isinstance(value, int)]
    assert "sieve.entries" in counts and "cli.output_bytes" in counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    D = int(requests[0][1])
    assert first["sieve.entries"] == D + D // 2  # sieves of D and D/2
    assert first["sieve.totient_sieve_calls"] == 2
    assert first["farey.fractions"] == 0


def test_traced_farey_csv_walks_per_next_and_makes_no_sieve_call(launcher):
    requests, metrics = _traced_run("farey-csv", 11)
    D = int(requests[0][1])
    assert metrics["sieve.entries"] == 0
    assert metrics["farey.fractions"] == coprime_pair_count(D)
    assert metrics["farey.self_s"] > 0
    assert metrics["cli.output_bytes"] == len(cli(launcher, *requests[0]))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "factor-64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


@pytest.mark.parametrize("kind", sorted(run.REFERENCE_DIGESTS))
def test_reference_jobs_run_without_the_program(tmp_path, kind):
    result = subprocess.run([sys.executable, str(run.REFERENCE), kind], cwd=tmp_path,
                            capture_output=True, timeout=60,
                            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == run.REFERENCE_DIGESTS[kind]
    assert 0 < float(result.stderr) < 60


def test_every_workload_has_a_reference_job():
    assert {w.reference for w in make_workloads().values()} == set(run.REFERENCE_DIGESTS)


def test_measure_scales_every_timing_by_the_reference_job(launcher):
    runner = run.Runner(launcher, make_workloads()["count-exclusion"])
    metrics, detail = run.measure(runner, [("count", "2000", "--method", "exclusion")], 0)
    assert runner.failures == [] and runner.attempted == 1
    # one short workload run, then cold starts and reference jobs up to the minimum
    assert detail["raw_setup_s"]["samples"] == run.SETUP_SAMPLES
    assert detail["reference_s"]["samples"] == run.SETUP_SAMPLES + 1
    wall, ref = detail["raw_wall_s"]["median"], detail["reference_s"]["median"]
    assert metrics["wall_s"][0] == wall / ref * run.REFERENCE_S
    setup, start = detail["raw_setup_s"]["median"], detail["reference_start_s"]["median"]
    assert metrics["setup_s"][0] == setup / start * run.REFERENCE_START_S
    assert 0 < start < ref
