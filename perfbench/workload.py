"""One benchmark workload, run in its own process through repro's public API.

``run.py`` launches this script with the BLAS thread pools pinned to one
thread.  With ``--setup-only`` it builds the workload, prints ``ready``
at the moment the first job would be dispatched, and exits: the parent
times that launch as ``setup_s``.  Otherwise it measures rounds for
``--seconds`` and prints one JSON line with its metrics.

A round is a cold sweep (every job executed) followed by a block of warm
passes that re-run the workload's specs from a :class:`ResultCache`
holding the cold results, as a user re-running the same command does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import gate
import layers
from repro import api
from repro.data.census import CensusLikeGenerator
from repro.engine import (
    DataPlane,
    Engine,
    ProgressReporter,
    ResultCache,
    SerialExecutor,
    create_backend,
)
from repro.engine.dataplane import activate
from repro.exceptions import ReproError

FIGURE_RECORDS = 300
CENSUS_ROWS = 2_000_000
CENSUS_SHARDS = 40
CACHE_RECORDS = 50
CACHE_STDS = (1.0, 2.0, 3.0, 4.0)
CACHE_TRIALS = 250
POOL_WORKERS = 2
#: Cache hits per warm block: enough that a block lasts about half a
#: second on every workload, so ``rerun_s`` is never a millisecond phase.
WARM_HITS = 6000
#: Timings are reported in seconds of a reference host on which
#: :func:`calibrate` takes this long (see README.md, "Host speed").
REFERENCE_CALIBRATION_S = 0.12

_NOISE = {"kind": "additive", "std": 2.0}


@dataclass
class Workload:
    """Specs compiled at set-up, plus what executing them needs."""

    name: str
    specs: list[Any]
    jobs: list[list[Any]]
    pool: bool = False
    cold_cache: bool = False
    plane: DataPlane | None = None

    @property
    def n_jobs(self) -> int:
        """Jobs in one sweep."""
        return sum(len(jobs) for jobs in self.jobs)

    @property
    def warm_passes(self) -> int:
        """Warm re-runs of the whole sweep in one block."""
        return math.ceil(WARM_HITS / self.n_jobs)

    def context(self) -> Any:
        """Makes the published table resolvable while jobs run."""
        return activate(self.plane) if self.plane is not None else nullcontext()

    def executor(self, traced: bool) -> Any:
        """The cold-sweep executor; traced runs stay in-process."""
        if self.pool and not traced:
            return create_backend("shared-memory", workers=POOL_WORKERS, chunk_size=1)
        return SerialExecutor()

    def close(self) -> None:
        """Release the data plane."""
        if self.plane is not None:
            self.plane.close()


def _compiled(name: str, specs: list[Any], **kwargs: Any) -> Workload:
    return Workload(name, specs, [spec.compile_jobs() for spec in specs], **kwargs)


def paper_figures(seed: int) -> Workload:
    """Figures 1-4 and Theorem 5.2 over their full grids at 300 records."""
    config = api.SweepConfig(n_records=FIGURE_RECORDS, seed=seed)
    specs = [
        api.builtin_spec(name, config)
        for name in ("figure1", "figure2", "figure3", "figure4")
    ]
    specs.append(api.builtin_spec("theorem52", n_records=FIGURE_RECORDS, seed=seed))
    return _compiled("paper-figures", specs)


def census_tall(seed: int) -> Workload:
    """A 2e6 x 10 census table published once, attacked shard by shard."""
    plane = DataPlane()
    table = CensusLikeGenerator().sample(CENSUS_ROWS, rng=seed).values
    ref = plane.publish(table)
    del table
    bounds = np.linspace(0, CENSUS_ROWS, CENSUS_SHARDS + 1, dtype=int)
    spec = api.ExperimentSpec(
        name="census-tall",
        task="repro.api.tasks:attack_shard",
        params={
            "scheme": _NOISE,
            "attacks": {
                "UDR": {"kind": "udr"},
                "SF": {"kind": "sf"},
                "PCA-DR": {"kind": "pca-dr"},
                "BE-DR": {"kind": "be-dr"},
            },
        },
        points=tuple(
            {"data": ref.shard(int(start), int(stop)).to_param()}
            for start, stop in zip(bounds[:-1], bounds[1:])
        ),
        seed=seed,
    )
    return _compiled("census-tall", [spec], pool=True, plane=plane)


def cache_rerun(seed: int) -> Workload:
    """1000 tiny component-mode jobs whose cold sweep fills a fresh cache."""
    spec = api.ExperimentSpec(
        name="cache-rerun",
        dataset={"kind": "synthetic", "spectrum": [40.0, 20.0, 10.0, 5.0, 2.0, 1.0, 1.0, 1.0]},
        scheme=_NOISE,
        attacks={
            "UDR": {"kind": "udr"},
            "PCA-DR": {"kind": "pca-dr"},
            "BE-DR": {"kind": "be-dr"},
        },
        params={"n_records": CACHE_RECORDS},
        grid={"scheme.std": list(CACHE_STDS)},
        trials=CACHE_TRIALS,
        seed=seed,
    )
    return _compiled("cache-rerun", [spec], cold_cache=True)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "paper-figures": paper_figures,
    "census-tall": census_tall,
    "cache-rerun": cache_rerun,
}


class JobClock(ProgressReporter):
    """Per-job times seen through the progress callback.

    Serial sweeps record the gap between consecutive callbacks.  A pool
    finishes jobs in pairs, so its gaps alternate near 0 and a full job;
    there the worker-measured ``JobResult.duration`` is recorded instead.
    """

    def __init__(self, worker_durations: bool) -> None:
        self.worker_durations = worker_durations
        self.samples: list[float] = []
        self._last = 0.0

    def on_start(self, total: int) -> None:
        self._last = time.perf_counter()

    def on_result(self, result: Any, completed: int, total: int) -> None:
        now = time.perf_counter()
        self.samples.append(result.duration if self.worker_durations else now - self._last)
        self._last = now


@dataclass
class Round:
    """Timings and gate counts of one cold sweep plus one warm block.

    The scales convert each phase's wall time to reference-host seconds.
    """

    cold_s: float
    warm_s: float
    job_s: list[float]
    attempted: int
    failed: int
    hits: int
    lookups: int
    cold_scale: float = 1.0
    warm_scale: float = 1.0


@dataclass
class Run:
    """Everything a measuring process keeps between rounds."""

    workload: Workload
    scratch: pathlib.Path
    reference: list[Any] | None
    tracer: layers.Tracer | None = None

    def phase(self, name: str | None) -> None:
        """Direct the tracer's recording (``None`` stops it)."""
        if self.tracer is not None:
            self.tracer.phase = name


def sweep(engine: Engine, workload: Workload, jobs: list[list[Any]]) -> tuple[list[Any], int]:
    """Run and aggregate every spec; returns flat results and aggregation failures."""
    flat: list[Any] = []
    failures = 0
    for spec, spec_jobs in zip(workload.specs, jobs):
        results = engine.run(spec_jobs)
        try:
            api.ExperimentResult.from_job_results(spec, results)
        except ReproError:
            failures += 1
        flat.extend(results)
    return flat, failures


def run_round(
    run: Run, index: int, *, traced: bool, calibrations: list[float] | None = None
) -> Round:
    """One cold sweep and one warm block; the gate runs after the timers stop.

    With ``calibrations`` (whose last entry was timed just before this
    round), the calibration loop also runs between the two phases and
    after the second, and each phase is scaled by the two around it.
    """
    workload = run.workload
    cache_dir = run.scratch / f"cache-{index}"
    cache = ResultCache(cache_dir)
    clock = JobClock(worker_durations=workload.pool and not traced)
    cold_engine = Engine(
        executor=workload.executor(traced),
        cache=cache if workload.cold_cache else None,
        progress=clock,
        fail_fast=False,
    )
    try:
        run.phase("cold")
        start = time.perf_counter()
        cold, cold_broken = sweep(cold_engine, workload, workload.jobs)
        cold_s = time.perf_counter() - start
        run.phase(None)
        if calibrations is not None:
            calibrations.append(calibrate())
        if not workload.cold_cache:
            for job, result in zip((job for jobs in workload.jobs for job in jobs), cold):
                if not result.failed:
                    cache.put(job, result)

        warm_engine = Engine(cache=cache, fail_fast=False)
        warm: list[list[Any]] = []
        warm_broken = 0
        run.phase("warm")
        start = time.perf_counter()
        for _ in range(workload.warm_passes):
            jobs = [spec.compile_jobs() for spec in workload.specs]
            results, broken = sweep(warm_engine, workload, jobs)
            warm.append(results)
            warm_broken += broken
        warm_s = time.perf_counter() - start
        run.phase(None)
        if calibrations is not None:
            calibrations.append(calibrate())
    finally:
        run.phase(None)
        shutil.rmtree(cache_dir, ignore_errors=True)

    failed = (
        gate.cold_failures(cold, run.reference)
        + cold_broken
        + sum(gate.warm_failures(cold, results) for results in warm)
        + warm_broken
    )
    scales = {}
    if calibrations is not None:
        before, between, after = calibrations[-3:]
        scales = {
            "cold_scale": 2.0 * REFERENCE_CALIBRATION_S / (before + between),
            "warm_scale": 2.0 * REFERENCE_CALIBRATION_S / (between + after),
        }
    return Round(
        **scales,
        cold_s=cold_s,
        warm_s=warm_s,
        job_s=clock.samples,
        attempted=len(cold) * (1 + len(warm)),
        failed=failed,
        hits=sum(result.cached for results in warm for result in results),
        lookups=sum(len(results) for results in warm),
    )


def calibrate() -> float:
    """Seconds for a fixed loop that uses no repro code.

    Half interpreter work (dict and str operations), half the dense
    linear algebra the attacks do (covariance, ``eigh`` and QR of a
    300 x 100 table), so it slows down with the host the way the
    workloads do.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(250_000):
        key = i % 1000
        counts[key] = counts.get(key, 0) + len(str(i))
    table = np.linspace(-1.0, 1.0, 300 * 100).reshape(300, 100)
    table = np.sin(7.0 * table) + np.cos(3.0 * table.T.reshape(300, 100))
    for _ in range(45):
        _, vectors = np.linalg.eigh(table.T @ table / 300.0)
        np.linalg.qr(vectors[:, :50])
        table = table + 1e-9 * (table @ vectors)
    return time.perf_counter() - start


def host_facts() -> dict[str, Any]:
    """Hardware and library versions that a reader needs to compare runs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(rounds: list[Round]) -> dict[str, dict[str, Any]]:
    """The untraced metrics in reference-host time (``setup_s`` is added by run.py)."""
    jobs = [sample * r.cold_scale for r in rounds for sample in r.job_s]
    return {
        "sweep_s": {"value": statistics.median(r.cold_s * r.cold_scale for r in rounds), "unit": "s"},
        "rerun_s": {"value": statistics.median(r.warm_s * r.warm_scale for r in rounds), "unit": "s"},
        "job_p50_ms": {"value": 1000.0 * float(np.percentile(jobs, 50)), "unit": "ms"},
        "job_p90_ms": {"value": 1000.0 * float(np.percentile(jobs, 90)), "unit": "ms"},
        "peak_rss_mb": {"value": _rss_mb(resource.RUSAGE_SELF), "unit": "MB"},
    }


def per_layer(
    tracer: layers.Tracer,
    setup_s: float,
    traced: list[Round],
    untraced: list[Round],
    extra: dict[str, float],
) -> tuple[dict[str, dict[str, Any]], float]:
    """Calls and self time per layer for one launch: set-up plus a mean round.

    ``trace.unattributed_frac`` is the share of that traced window no
    wrapper claims; ``trace.overhead_s`` is the median traced round minus
    the median untraced round.  Also returns the traced window in seconds.
    """
    n = len(traced)
    setup = tracer.ledger.totals("setup")
    rounds = [tracer.ledger.totals("cold"), tracer.ledger.totals("warm")]
    metrics: dict[str, dict[str, Any]] = {}
    claimed = 0.0
    for layer in tracer.layers:
        calls = setup.get(layer, [0, 0.0])[0] + sum(p.get(layer, [0, 0.0])[0] for p in rounds) / n
        self_s = setup.get(layer, [0, 0.0])[1] + sum(p.get(layer, [0, 0.0])[1] for p in rounds) / n
        claimed += self_s
        metrics[f"{layer}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{layer}.self_ms"] = {"value": 1000.0 * self_s, "unit": "ms"}
    window = setup_s + sum(r.cold_s + r.warm_s for r in traced) / n
    metrics["trace.unattributed_frac"] = {"value": (window - claimed) / window, "unit": "frac"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(r.cold_s + r.warm_s for r in traced)
        - statistics.median(r.cold_s + r.warm_s for r in untraced),
        "unit": "s",
    }
    for name, (value, unit) in extra.items():
        metrics[name] = {"value": value, "unit": unit}
    return metrics, window


def phase_ledgers(tracer: layers.Tracer, n_rounds: int, hits: int) -> dict[str, Any]:
    """Self milliseconds of each layer per phase (warm per 500 hits), largest first."""
    scale = {"setup": 1.0, "cold": 1.0 / n_rounds, "warm": 500.0 / max(hits, 1)}
    return {
        phase: {
            layer: round(1000.0 * seconds * scale[phase], 3)
            for layer, (_, seconds) in sorted(
                tracer.ledger.totals(phase).items(), key=lambda item: -item[1][1]
            )
        }
        for phase in scale
    }


def measure(args: argparse.Namespace, workload: Workload, run: Run, setup_s: float) -> dict[str, Any]:
    """Rounds until ``--seconds`` would be exceeded; returns the child's report.

    The calibration loop brackets both phases of every untraced round.
    """
    untraced: list[Round] = []
    traced: list[Round] = []
    calibrations = [calibrate()]
    with workload.context():
        # The first round pays for lazy imports and cold page caches; it
        # is gated but not timed.
        warmup = run_round(run, 0, traced=bool(args.trace))
        calibrations.append(calibrate())
        deadline = time.perf_counter() + args.seconds
        while True:
            started = time.perf_counter()
            index = 1 + len(untraced) + len(traced)
            untraced.append(
                run_round(run, index, traced=bool(args.trace), calibrations=calibrations)
            )
            if args.trace:
                run.tracer.install()
                try:
                    traced.append(run_round(run, index + 1, traced=True))
                finally:
                    run.tracer.uninstall()
            took = time.perf_counter() - started
            if time.perf_counter() + took > deadline:
                break
        gated = [warmup] + untraced + traced
        if args.trace and workload.pool:
            # The ledger comes from in-process rounds; one pool round
            # measures what the workers hold.
            gated.append(run_round(run, len(gated), traced=False))
    attempted = sum(r.attempted for r in gated)
    failed = sum(r.failed for r in gated)
    diagnostics: dict[str, Any] = {
        "host": host_facts(),
        "calibration_s": calibrations,
        "cold_s": [r.cold_s for r in untraced + traced],
        "warm_s": [r.warm_s for r in untraced + traced],
        "fail_frac": failed / attempted,
        "in_process_setup_s": setup_s,
    }
    if args.trace:
        hits = sum(r.hits for r in traced)
        lookups = sum(r.lookups for r in traced)
        plane = workload.plane
        metrics, diagnostics["traced_window_s"] = per_layer(
            run.tracer,
            setup_s,
            traced,
            untraced,
            {
                "engine.dataplane_bytes": (
                    float(sum(plane.array_for_hash(h).nbytes for h in plane.hashes()))
                    if plane is not None
                    else 0.0,
                    "bytes",
                ),
                "engine.cache_hit_ratio": (hits / lookups, "ratio"),
                "engine.worker_rss_mb": (
                    _rss_mb(resource.RUSAGE_CHILDREN) if workload.pool else 0.0,
                    "MB",
                ),
                "fail_frac": (failed / attempted, "frac"),
            },
        )
        diagnostics["phase_self_ms"] = phase_ledgers(run.tracer, len(traced), hits)
    else:
        metrics = end_to_end(untraced)
        diagnostics["job_samples"] = sum(len(r.job_s) for r in untraced)
        diagnostics["wall_sweep_s"] = statistics.median(r.cold_s for r in untraced)
        diagnostics["wall_rerun_s"] = statistics.median(r.warm_s for r in untraced)
        diagnostics["worker_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN) if workload.pool else None
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "diagnostics": diagnostics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=pathlib.Path, default=pathlib.Path(".perfbench_tmp"))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace and not args.setup_only:
        layers.import_package("repro")
        tracer = layers.Tracer()
        tracer.install()
        tracer.phase = "setup"
    started = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - started
    if tracer is not None:
        tracer.phase = None
        tracer.uninstall()
    if args.setup_only:
        print("ready", flush=True)
        workload.close()
        # Second line: the factor that converts this launch to reference-host time.
        print(REFERENCE_CALIBRATION_S / calibrate(), flush=True)
        return 0
    try:
        reference = gate.load_reference(args.workload) if args.seed == gate.DEFAULT_SEED else None
        run = Run(workload, args.scratch, reference, tracer)
        report = measure(args, workload, run, setup_s)
    finally:
        workload.close()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
