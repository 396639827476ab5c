"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-figures --seed 1 --seconds 30 --trace 0

Every process it launches runs with OpenBLAS/OpenMP/MKL pinned to one
thread, so the census-tall pool (2 workers x 1 thread) matches a 2-CPU
host and CPU time equals wall time.  ``setup_s`` is the median over
:data:`SETUP_LAUNCHES` fresh launches of the time from starting the
process until the first job would be dispatched.  The last line of
standard output is the result; the line before it holds diagnostics
(host facts, calibration timings, sample counts).  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-figures", "census-tall", "cache-rerun")
SETUP_LAUNCHES = 7
#: Every run, set-up launches included, ends within this many seconds.
BUDGET_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """A launch failed; the run prints no result."""


def child_env() -> dict[str, str]:
    """The environment of every launched process: pinned BLAS, repro on the path."""
    env = dict(os.environ, **PINNED)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _launch(argv: list[str], deadline: float) -> subprocess.Popen[str]:
    if time.perf_counter() >= deadline:
        raise BenchError("time budget exhausted")
    return subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )


def _finish(process: subprocess.Popen[str], deadline: float) -> str:
    """Wait for a launch (killing its whole session at the deadline); its stdout."""
    try:
        out, _ = process.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchError(f"{process.args!r} exceeded the time budget") from None
    if process.returncode != 0:
        raise BenchError(f"{process.args!r} exited with {process.returncode}")
    return out


def setup_seconds(base: list[str], deadline: float) -> tuple[float, float]:
    """Launch-to-ready wall time of one fresh set-up process, and its scale.

    After ``ready`` the process times the calibration loop and prints the
    factor that converts its wall time to reference-host seconds.
    """
    start = time.perf_counter()
    process = _launch(base + ["--setup-only"], deadline)
    line = process.stdout.readline()
    elapsed = time.perf_counter() - start
    out = _finish(process, deadline)
    if line.strip() != "ready":
        raise BenchError(f"set-up launch printed {line!r} instead of 'ready'")
    return elapsed, float(out)


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Measure one workload; returns ``(result, diagnostics)``."""
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no repro sources under {ROOT / 'src'}")
    deadline = time.perf_counter() + BUDGET_S
    base = [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed)]
    setups = [] if trace else [setup_seconds(base, deadline) for _ in range(SETUP_LAUNCHES)]
    scratch = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        out = _finish(
            _launch(
                base + ["--seconds", str(seconds), "--trace", str(trace), "--scratch", str(scratch)],
                deadline,
            ),
            deadline,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("workload printed nothing")
    report = json.loads(lines[-1])
    metrics = report["metrics"]
    diagnostics = dict(report["diagnostics"], workload=workload, seed=seed, trace=trace)
    if not trace:
        metrics["setup_s"] = {
            "value": statistics.median(wall * scale for wall, scale in setups),
            "unit": "s",
        }
        diagnostics["setup_wall_s"] = [wall for wall, _ in setups]
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    return result, diagnostics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark: one workload, one result line")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result, diagnostics = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
