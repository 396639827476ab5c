"""The outside-in tracer: binding coverage, call counts and self time."""

from __future__ import annotations

import cProfile
import pstats
import sys
import types

import pytest

import layers
from repro.engine import Engine, ResultCache


class FakeClock:
    """A clock the toy functions advance explicitly, so self times are exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def toy(monkeypatch):
    """``toypkg.core`` defines ``inner``/``outer``; ``toypkg.user`` imports ``inner`` by name."""
    clock = FakeClock()
    core = types.ModuleType("toypkg.core")
    user = types.ModuleType("toypkg.user")

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        core.inner()
        user.inner()
        clock.now += 1.0

    core.inner, core.outer = inner, outer
    user.inner = inner
    monkeypatch.setitem(sys.modules, "toypkg", types.ModuleType("toypkg"))
    monkeypatch.setitem(sys.modules, "toypkg.core", core)
    monkeypatch.setitem(sys.modules, "toypkg.user", user)
    tracer = layers.Tracer(
        {"toy.inner": (("toypkg.core", "inner"),), "toy.outer": (("toypkg.core", "outer"),)},
        package="toypkg",
        clock=clock,
    )
    return tracer, core, user, inner


def test_nested_self_time_excludes_wrapped_children(toy):
    tracer, core, _, _ = toy
    tracer.install()
    tracer.phase = "p"
    try:
        core.outer()
    finally:
        tracer.uninstall()
    ledger = tracer.ledger.totals("p")
    assert ledger["toy.outer"] == [1, 2.0]
    assert ledger["toy.inner"] == [2, 4.0]


def test_every_binding_is_wrapped_and_restored(toy):
    tracer, core, user, inner = toy
    tracer.install()
    assert core.inner is not inner and user.inner is core.inner
    tracer.uninstall()
    assert core.inner is inner and user.inner is inner


def test_calls_outside_a_phase_are_not_recorded(toy):
    tracer, core, _, _ = toy
    tracer.install()
    try:
        core.outer()
    finally:
        tracer.uninstall()
    assert tracer.ledger.phases == {}


def _function(original):
    return original.__func__ if isinstance(original, (classmethod, staticmethod)) else original


def _sweeps(workload, built, cache_dir):
    """A cold sweep into a cache and one warm pass: every layer of the program runs."""
    with built.context():
        cache = ResultCache(cache_dir)
        workload.sweep(Engine(cache=cache), built, built.jobs)
        workload.sweep(Engine(cache=cache), built, [s.compile_jobs() for s in built.specs])


@pytest.mark.parametrize("name", ["paper-figures", "census-tall", "cache-rerun"])
def test_wrapped_call_counts_equal_cprofile_counts(small, tmp_path, name):
    layers.import_package("repro")
    built = small.WORKLOADS[name](7)
    try:
        profile = cProfile.Profile()
        profile.runcall(_sweeps, small, built, tmp_path / "profiled")
        stats = pstats.Stats(profile).stats
        tracer = layers.Tracer()
        tracer.install()
        tracer.phase = "sweep"
        try:
            _sweeps(small, built, tmp_path / "traced")
        finally:
            tracer.uninstall()
    finally:
        built.close()

    calls = {layer: entry[0] for layer, entry in tracer.ledger.totals("sweep").items()}
    for layer, targets in layers.LAYERS.items():
        expected = 0
        for module_name, qualname in targets:
            code = _function(layers._resolve(module_name, qualname)[2]).__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            expected += stats[key][1] if key in stats else 0
        assert calls.get(layer, 0) == expected, layer
    for layer in ("linalg.sorted_eigh", "utils.check_finite", "engine.cache_get", "engine.cache_put"):
        assert calls[layer] > 0, layer
