"""Make the benchmark modules and the repro sources importable, and shrink the workloads."""

from __future__ import annotations

import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture
def small(monkeypatch):
    """The workload module with every workload cut to a few seconds of work."""
    import workload

    monkeypatch.setattr(workload, "FIGURE_RECORDS", 120)
    monkeypatch.setattr(workload, "CENSUS_ROWS", 8_000)
    monkeypatch.setattr(workload, "CENSUS_SHARDS", 4)
    monkeypatch.setattr(workload, "CACHE_TRIALS", 3)
    monkeypatch.setattr(workload, "WARM_HITS", 30)
    return workload
