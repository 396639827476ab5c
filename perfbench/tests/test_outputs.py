"""What the benchmark prints: the declared metric names, and no result on failure."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from conftest import BENCH, ROOT

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _report(small, capsys, tmp_path, name, trace):
    assert small.main(
        ["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace),
         "--scratch", str(tmp_path)]
    ) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_every_workload_reports_exactly_the_declared_metrics(small, capsys, tmp_path):
    end_to_end = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert [w["name"] for w in DECLARED["workloads"]] == list(small.WORKLOADS)
    for name in small.WORKLOADS:
        untraced = _report(small, capsys, tmp_path, name, 0)["metrics"]
        # setup_s is timed by run.py over fresh launches.
        assert {k: v["unit"] for k, v in untraced.items()} == {
            k: u for k, u in end_to_end.items() if k != "setup_s"
        }
        assert all(v["value"] > 0 for v in untraced.values())
        traced = _report(small, capsys, tmp_path, name, 1)
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == per_layer
        assert traced["failed"] == 0


def test_self_times_and_unattributed_time_sum_to_the_traced_window(small, capsys, tmp_path):
    report = _report(small, capsys, tmp_path, "paper-figures", 1)
    metrics = {k: v["value"] for k, v in report["metrics"].items()}
    window = report["diagnostics"]["traced_window_s"]
    claimed = sum(v for k, v in metrics.items() if k.endswith(".self_ms")) / 1000.0
    unattributed = metrics["trace.unattributed_frac"]
    assert abs(claimed + unattributed * window - window) < 1e-9 * window
    assert 0.0 <= unattributed < 0.25
    assert metrics["linalg.random_orthogonal.calls"] == 44
    assert metrics["engine.cache_hit_ratio"] == 1.0


def test_no_result_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "paper-figures",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
