"""The correctness gate: every corrupted result is counted, none is dropped."""

from __future__ import annotations

import copy
import json
import math

import gate
import workload as workload_module
from repro.engine import Engine, ResultCache


def test_invariants_reject_errors_nonfinite_and_nonpositive_rmse():
    assert gate.invariant_problems({"rmse": {"UDR": 1.5}, "rows": 10}) == []
    assert gate.invariant_problems({"rmse": {"UDR": 1.5}, "errors": {"UDR": "boom"}})
    assert gate.invariant_problems({"rmse": {"UDR": "__nan__"}})
    assert gate.invariant_problems({"rmse": {"UDR": math.inf}})
    assert gate.invariant_problems({"rmse": {"UDR": 0.0}})
    assert gate.invariant_problems({"empirical": [1.0, math.nan]})
    assert gate.invariant_problems({})


def test_reference_comparison_uses_a_relative_tolerance():
    reference = {"rmse": {"UDR": 4.0}, "empirical": [1.0, 2.0]}
    close = {"rmse": {"UDR": 4.0 * (1 + 1e-12)}, "empirical": [1.0, 2.0]}
    assert gate.reference_problems(close, reference) == []
    moved = {"rmse": {"UDR": 4.0 * (1 + 1e-4)}, "empirical": [1.0, 2.0]}
    assert gate.reference_problems(moved, reference)
    assert gate.reference_problems({"rmse": {"SF": 4.0}, "empirical": [1.0, 2.0]}, reference)
    assert gate.reference_problems({"rmse": {"UDR": 4.0}, "empirical": [1.0]}, reference)


def test_recorded_reference_covers_every_workload():
    for name, built_jobs in (
        ("paper-figures", 44),
        ("census-tall", workload_module.CENSUS_SHARDS),
        ("cache-rerun", len(workload_module.CACHE_STDS) * workload_module.CACHE_TRIALS),
    ):
        reference = gate.load_reference(name)
        assert len(reference) == built_jobs
        assert all(gate.invariant_problems(payload) == [] for payload in reference)


def _reference(small, name, seed):
    built = small.WORKLOADS[name](seed)
    try:
        with built.context():
            results, _ = small.sweep(Engine(), built, built.jobs)
    finally:
        built.close()
    return [result.values for result in results]


def _round(small, tmp_path, name, seed, reference):
    built = small.WORKLOADS[name](seed)
    try:
        run = small.Run(built, tmp_path, reference)
        with built.context():
            return small.run_round(run, 0, traced=True)
    finally:
        built.close()


def test_matching_reference_passes(small, tmp_path):
    reference = _reference(small, "cache-rerun", 11)
    outcome = _round(small, tmp_path, "cache-rerun", 11, reference)
    assert outcome.failed == 0 and outcome.attempted > 0


def test_corrupted_reference_is_counted(small, tmp_path):
    reference = _reference(small, "paper-figures", 11)
    corrupted = copy.deepcopy(reference)
    corrupted[3]["rmse"]["BE-DR"] *= 1.001
    outcome = _round(small, tmp_path, "paper-figures", 11, corrupted)
    assert outcome.failed == 1
    assert outcome.failed / outcome.attempted > 0


class CorruptingCache(ResultCache):
    """Rewrites the first stored payload on disk, as a damaged cache would hold it."""

    def put(self, spec, result):
        super().put(spec, result)
        if getattr(self, "damaged", False):
            return
        self.damaged = True
        path = self.path_for(result.key)
        entry = json.loads(path.read_text())
        label = next(iter(entry["values"]["rmse"]))
        entry["values"]["rmse"][label] *= 1.5
        path.write_text(json.dumps(entry))


class TruncatingCache(ResultCache):
    """Truncates the first stored file; the engine then re-runs that job on the warm pass."""

    def put(self, spec, result):
        super().put(spec, result)
        if not getattr(self, "damaged", False):
            self.damaged = True
            self.path_for(result.key).write_text("{")


def test_corrupted_cached_payload_is_counted(small, tmp_path, monkeypatch):
    for cache_class in (CorruptingCache, TruncatingCache):
        monkeypatch.setattr(small, "ResultCache", cache_class)
        for name in ("cache-rerun", "census-tall"):
            outcome = _round(small, tmp_path / cache_class.__name__, name, 5, None)
            assert outcome.failed >= 1, (cache_class.__name__, name)
            assert outcome.hits < outcome.lookups or cache_class is CorruptingCache
