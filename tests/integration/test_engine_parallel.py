"""Integration tests: experiments through the engine, serial vs parallel.

The acceptance bar for the engine: ``ParallelExecutor(workers=N)``
produces *bit-identical* ``ExperimentSeries`` to the serial baseline for
the same seed, and a cached rerun reproduces the same series without
executing any job.
"""

import numpy as np

from repro.api import builtin_spec, run_spec
from repro.api.config import SweepConfig
from repro.engine import Engine, ParallelExecutor, ResultCache, SerialExecutor

TINY = SweepConfig(n_records=300, n_trials=2, seed=7)
FIGURE1 = builtin_spec("figure1", TINY, attribute_counts=[5, 20])


def _assert_series_equal(a, b):
    assert a.methods == b.methods
    np.testing.assert_array_equal(a.x_values, b.x_values)
    for method in a.methods:
        np.testing.assert_array_equal(a.curve(method), b.curve(method))


class TestParallelEqualsSerial:
    def test_figure1_bit_identical_across_worker_counts(self):
        serial = run_spec(
            FIGURE1, engine=Engine(SerialExecutor())
        ).to_series()
        for workers in (2, 3):
            parallel = run_spec(
                FIGURE1, engine=Engine(ParallelExecutor(workers=workers))
            ).to_series()
            _assert_series_equal(serial, parallel)

    def test_figure4_bit_identical(self):
        spec = builtin_spec(
            "figure4",
            TINY,
            profiles=[0.0, 1.0],
            n_attributes=20,
            n_principal=10,
        )
        serial = run_spec(spec).to_series()
        parallel = run_spec(
            spec, engine=Engine(ParallelExecutor(workers=2))
        ).to_series()
        _assert_series_equal(serial, parallel)

    def test_ablation_bit_identical(self):
        spec = builtin_spec(
            "ablation-samplesize",
            sample_sizes=(150, 400),
            n_attributes=10,
            seed=3,
        )
        serial = run_spec(spec).to_series()
        parallel = run_spec(
            spec, engine=Engine(ParallelExecutor(workers=2))
        ).to_series()
        _assert_series_equal(serial, parallel)

    def test_theorem52_through_engine(self):
        spec = builtin_spec(
            "theorem52",
            n_attributes=20,
            component_counts=(2, 10),
            n_records=500,
        )
        serial = run_spec(spec).to_series()
        parallel = run_spec(
            spec, engine=Engine(ParallelExecutor(workers=2))
        ).to_series()
        _assert_series_equal(serial, parallel)


class TestCachedRerun:
    def test_cached_rerun_is_identical_and_skips_execution(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        first = run_spec(FIGURE1, engine=Engine(cache=cache)).to_series()
        assert len(cache) == 4  # 2 points x 2 trials

        # Any attempt to execute a job on the rerun is a test failure.
        class ExplodingExecutor(SerialExecutor):
            def run(self, specs, callback=None):
                raise AssertionError(
                    f"{len(list(specs))} jobs executed despite warm cache"
                )

        second = run_spec(
            FIGURE1, engine=Engine(ExplodingExecutor(), cache=cache)
        ).to_series()
        _assert_series_equal(first, second)

    def test_cache_distinguishes_configs(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_spec(FIGURE1, engine=Engine(cache=cache))
        other = SweepConfig(n_records=300, n_trials=2, seed=8)
        run_spec(
            builtin_spec("figure1", other, attribute_counts=[5, 20]),
            engine=Engine(cache=cache),
        )
        assert len(cache) == 8, "different seeds must occupy different keys"
