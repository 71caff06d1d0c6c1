"""Benchmark of the totient-lab command-line program.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it runs the package under ``src/``.  NAME
is one of the workloads in ``workloads.py``, or ``all`` to run each in turn
and print one table.  One single-threaded process sends the workload's CLI
requests as child processes in a closed loop: the next request starts only
after the previous one has exited.  Workload runs repeat while another one
still fits in S seconds, and every output is checked by an independent
route.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median over
workload runs), ``peak_rss_mb`` (median over runs of the largest child peak
RSS in the run) and ``setup_s`` (median cold start of a child that only
imports the package).  The timings are calibrated by the workload's fixed
job in ``reference.py``, run between its requests, because the shared
host's speed drifts by up to 2x over minutes; see ``measure``.  ``--trace 1`` alternates plain runs with runs of
``traced_cli.py`` and reports the per-layer metrics.  Earlier stdout lines
hold the run metadata and details (quartiles, sample counts, fail ratio);
the last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import sys
import time
from collections import Counter
from importlib.metadata import version
from pathlib import Path

from children import ChildResult, Launcher
from traced_cli import TRACE_PREFIX
from workloads import CheckFailed, make_workloads

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
#: SHA-256 of each reference job's stdout, which is the same on every run.
REFERENCE_DIGESTS = {
    "sieve": "ed4391d64a40171dc348aedce83f4309bdda6b833e8f266e7b9830fe851ef253",
    "farey": "4c53f6dda523fa2092a62947a116ef928d3bec488657b40a279e3470843a01f8",
    "series": "e89c05c473be11d0aa658f7b94bd8845e048bf495ef578109b3029d21ccc18b3",
    "factor": "c1903d81369c9b989df16136a966fd534daa2f6789656146889ceb384f57467f",
}
#: Nominal wall time of a reference job, and of its start-up part.  A
#: calibrated time is its ratio to the reference job's time, times these.
REFERENCE_S = 1.0
REFERENCE_START_S = 0.25
#: A reference job runs once the requests since the last one took this long.
CALIBRATE_EVERY_S = 2.0
#: Minimum number of cold-start samples behind one setup_s median.  One
#: sample is short and noisy; one is taken per reference job, and more at
#: the end if the run held fewer.
SETUP_SAMPLES = 11
_IMPORT_ONLY = "import totient_lab.cli"


class Runner:
    """Sends CLI requests one at a time and judges every output.

    The first output of each request is checked by the workload's
    independent route; a repeat of the same request must then match it
    byte for byte, which also holds the traced run to the untraced bytes.
    """

    def __init__(self, launcher: Launcher, workload):
        self.launcher = launcher
        self.workload = workload
        self.verified: dict[tuple[str, ...], bytes] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def package_file(self) -> Path:
        """Where the children import totient_lab from; also warms the caches."""
        result = self.launcher.run([sys.executable, "-c", _IMPORT_ONLY + "; print(totient_lab.cli.__file__)"])
        if result.exit_code != 0:
            raise RuntimeError(f"importing totient_lab failed: {result.stderr.decode(errors='replace')}")
        return Path(result.stdout.decode().strip()).resolve()

    def cold_start(self) -> float:
        result = self.launcher.run([sys.executable, "-c", _IMPORT_ONLY])
        if result.exit_code != 0:
            raise RuntimeError(f"importing totient_lab failed: {result.stderr.decode(errors='replace')}")
        return result.wall_s

    def reference(self) -> tuple[float, float]:
        """Wall time of one run of the workload's reference job, and the
        part of it that is start-up."""
        kind = self.workload.reference
        result = self.launcher.run([sys.executable, str(REFERENCE), kind])
        if result.exit_code != 0 or hashlib.sha256(result.stdout).hexdigest() != REFERENCE_DIGESTS[kind]:
            raise RuntimeError(f"the {kind} reference job failed: {result.stderr[-500:]!r}")
        return result.wall_s, result.wall_s - float(result.stderr)

    def run(self, requests: list[tuple[str, ...]], traced: bool = False) -> list[ChildResult]:
        """One workload run: every request back to back, then the checks."""
        prefix = [sys.executable, str(TRACED_CLI)] if traced else [sys.executable, "-m", "totient_lab.cli"]
        results = [self.launcher.run(prefix + list(request)) for request in requests]
        for request, result in zip(requests, results):
            self.attempted += 1
            error = self._error(request, result)
            if error is not None:
                self.failures.append(f"{' '.join(request)}: {error}")
        return results

    def _error(self, request: tuple[str, ...], result: ChildResult) -> str | None:
        if result.timed_out:
            return "timed out"
        if result.exit_code != 0:
            return f"exit code {result.exit_code}: {result.stderr.decode(errors='replace')[-500:]}"
        digest = hashlib.sha256(result.stdout).digest()
        known = self.verified.get(request)
        if known is not None:
            return None if digest == known else "stdout differs from a verified output of the same request"
        try:
            self.workload.check(request, result.stdout)
        except (CheckFailed, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"check failed: {exc}"
        self.verified[request] = digest
        return None


def _quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"min": min(samples), "q1": q1, "median": median, "q3": q3, "samples": len(samples)}


def _repeat(seconds: float):
    """Yields once per pass: always once, then again while a pass as long
    as the last one would still end within ``seconds`` of the start."""
    end = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        yield
        now = time.perf_counter()
        if now + (now - began) > end:
            return


def measure(runner: Runner, requests, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, with tracing off, in reference seconds.

    Workload runs follow each other back to back.  The workload's reference
    job runs before the first request and again each time the requests
    since its last run took CALIBRATE_EVERY_S, so its samples spread evenly
    over the same half-minute as the requests'; a cold start runs just before
    each reference job.  ``wall_s`` is the median workload run over the
    median reference job, and ``setup_s`` the median cold start over the
    median start-up part of the reference job.
    """
    walls, peaks, setups, refs = [], [], [], [runner.reference()]
    since_reference = 0.0
    for _ in _repeat(seconds):
        results = []
        for request in requests:
            results += runner.run([request])
            since_reference += results[-1].wall_s
            if since_reference >= CALIBRATE_EVERY_S:
                setups.append(runner.cold_start())
                refs.append(runner.reference())
                since_reference = 0.0
        walls.append(sum(r.wall_s for r in results))
        peaks.append(max(r.peak_rss_mb for r in results))
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.cold_start())
        refs.append(runner.reference())
    reference_s = statistics.median(ref for ref, _ in refs)
    reference_start_s = statistics.median(start for _, start in refs)
    metrics = {
        "wall_s": (statistics.median(walls) / reference_s * REFERENCE_S, "s"),
        "peak_rss_mb": (statistics.median(peaks), "MiB"),
        "setup_s": (statistics.median(setups) / reference_start_s * REFERENCE_START_S, "s"),
    }
    detail = {"raw_wall_s": _quartiles(walls), "raw_setup_s": _quartiles(setups),
              "reference_s": _quartiles([ref for ref, _ in refs]),
              "reference_start_s": _quartiles([start for _, start in refs]),
              "peak_rss_mb": _quartiles(peaks)}
    return metrics, detail


def _trace_report(result: ChildResult) -> dict | None:
    for line in reversed(result.stderr.decode(errors="replace").splitlines()):
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX):])
    return None


def layer_metrics(reports: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced workload run, from its requests' spans."""
    total = {key: Counter() for key in ("inclusive_s", "self_s", "calls", "counts")}
    for report in reports:
        for key, values in total.items():
            values.update(report[key])
    inclusive, self_s, calls, counts = (total[k] for k in ("inclusive_s", "self_s", "calls", "counts"))
    sieve_s = float(inclusive["sieve.totient_sieve"])
    walk_s = inclusive["farey.iter_farey_sequence"]
    entries = counts["sieve.entries"]
    fractions = counts["farey.iter_farey_sequence.items"]
    return {
        "sieve.totient_sieve_s": sieve_s,
        "sieve.totient_sieve_calls": calls["sieve.totient_sieve"],
        "sieve.entries": entries,
        "sieve.entries_per_s": entries / sieve_s if sieve_s else 0.0,
        "sieve.primes_up_to_s": float(inclusive["sieve.primes_up_to"]),
        "farey.self_s": float(self_s["farey"]),
        "farey.fractions": fractions,
        "farey.fractions_per_s": fractions / walk_s if walk_s else 0.0,
        "cli.self_s": float(self_s["cli"]),
        "cli.write_s": float(inclusive["cli.write"]),
        "cli.output_bytes": counts["cli.output_bytes"],
        "series.self_s": float(self_s["series"]),
        "series.phi_over_n_calls": calls["series.phi_over_n"],
        "series.groups": counts["series.groups"],
        "core.totient_s": float(inclusive["core.totient"]),
        "core.totient_calls": calls["core.totient"],
        "core.factorize_s": float(inclusive["core.factorize"]),
        "core.factorize_calls": calls["core.factorize"],
        "cli.import_s": float(inclusive["cli.import"]),
    }


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def trace(runner: Runner, requests, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: plain and traced workload runs, alternating."""
    plain_walls, cpu, traced_walls, samples = [], [], [], []
    for _ in _repeat(seconds):
        plain = runner.run(requests)
        plain_walls.append(sum(r.wall_s for r in plain))
        cpu.append(sum(r.cpu_s for r in plain))
        traced = runner.run(requests, traced=True)
        traced_walls.append(sum(r.wall_s for r in traced))
        reports = [_trace_report(r) for r in traced]
        if None not in reports:  # else a traced request failed, and counts so
            samples.append(layer_metrics(reports))
    metrics = {name: (statistics.median(s[name] for s in samples), _unit(name)) for name in samples[0]} if samples else {}
    metrics["cli.cpu_s"] = (statistics.median(cpu), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    detail = {"plain_wall_s": _quartiles(plain_walls), "traced_wall_s": _quartiles(traced_walls)}
    return metrics, detail


def run_metadata(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "sympy": version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def child_env(root: Path) -> dict[str, str]:
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def run_workload(workload, seed: int, seconds: float, traced: bool) -> tuple[Runner, dict, dict]:
    """Runs one workload; the program sees only the requests made from the seed."""
    requests = workload.requests(random.Random(seed))
    with Launcher(child_env(ROOT), str(ROOT)) as launcher:
        runner = Runner(launcher, workload)
        package = runner.package_file()
        if not package.is_relative_to(ROOT / "src"):
            raise RuntimeError(f"children import totient_lab from {package}, not from {ROOT / 'src'}")
        metrics, detail = (trace if traced else measure)(runner, requests, seconds)
    return runner, metrics, detail


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    workloads = make_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "totient_lab" / "cli.py").is_file():
        print(f"no totient_lab package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    print(json.dumps({"metadata": run_metadata(args.seed)}), flush=True)

    names = list(workloads) if args.workload == "all" else [args.workload]
    all_metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            runner, metrics, detail = run_workload(workloads[name], args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        attempted += runner.attempted
        failed += len(runner.failures)
        detail["fail_ratio"] = {"value": len(runner.failures) / runner.attempted,
                                "failed": len(runner.failures), "attempted": runner.attempted}
        detail["failures"] = runner.failures[:5]
        for failure in runner.failures[:5]:
            print(f"{name}: {failure}", file=sys.stderr)
        print(json.dumps({"workload": name, "detail": detail}), flush=True)
        if args.workload == "all":
            for metric, (value, unit) in metrics.items():
                shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
                print(f"{name:16} {metric:26} {shown} {unit}")
            print(f"{name:16} {'fail_ratio':26} {detail['fail_ratio']['value']:16.6f} "
                  f"failed/attempted ({len(runner.failures)}/{runner.attempted})", flush=True)
            metrics = {f"{name}.{metric}": value for metric, value in metrics.items()}
        all_metrics.update(metrics)
    print(_result_line(failed == 0, attempted, failed, all_metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
