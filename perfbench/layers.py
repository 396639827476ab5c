"""Outside-in per-layer tracing: wrap public functions, ledger calls and self time.

The benchmark does not rely on spans inside the program.  It replaces
each layer's public function with a timing wrapper at *every* binding a
loaded module holds (modules import these functions by name, so
patching only the defining module would miss most calls), and restores
the originals afterwards.

A layer's self time is its wrapped calls' wall time minus the time spent
in wrapped calls nested inside them, so the self times of all layers
plus the time no wrapper claims add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from typing import Any, Callable

#: Layer name -> the public functions that make it up, as
#: ``(module, qualified name)``.  Methods are wrapped on their class.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "linalg.random_orthogonal": (("repro.linalg.gram_schmidt", "random_orthogonal"),),
    "linalg.sorted_eigh": (("repro.linalg.eigen", "sorted_eigh"),),
    "linalg.nearest_psd": (("repro.linalg.psd", "nearest_psd"),),
    "linalg.psd_inverse": (("repro.linalg.psd", "psd_inverse"),),
    "linalg.sample_covariance": (("repro.linalg.covariance", "sample_covariance"),),
    "data.generate": (
        ("repro.data.synthetic", "generate_dataset"),
        ("repro.data.synthetic", "SpectrumDatasetGenerator.sample"),
        ("repro.data.census", "CensusLikeGenerator.sample"),
    ),
    "core.noise_design": (("repro.core.defense", "NoiseDesigner.design"),),
    "core.pipeline_run": (("repro.core.pipeline", "AttackPipeline.run"),),
    "utils.check_finite": (("repro.utils.validation", "check_finite"),),
    "randomization.disguise": (("repro.randomization.base", "RandomizationScheme.disguise"),),
    "reconstruction.udr": (("repro.reconstruction.udr", "UnivariateReconstructor._reconstruct"),),
    "reconstruction.sf": (
        ("repro.reconstruction.spectral_filtering", "SpectralFilteringReconstructor._reconstruct"),
    ),
    "reconstruction.pca_dr": (("repro.reconstruction.pca_dr", "PCAReconstructor._reconstruct"),),
    "reconstruction.be_dr": (
        ("repro.reconstruction.bedr", "BayesEstimateReconstructor._reconstruct"),
    ),
    "metrics.rmse": (
        ("repro.metrics.error", "root_mean_square_error"),
        ("repro.metrics.error", "per_attribute_rmse"),
    ),
    "engine.dataplane_publish": (("repro.engine.dataplane", "DataPlane.publish"),),
    "engine.job_key": (("repro.engine.jobs", "JobSpec.key"),),
    "engine.cache_get": (("repro.engine.cache", "ResultCache.get"),),
    "engine.cache_put": (("repro.engine.cache", "ResultCache.put"),),
    "engine.execute_job": (("repro.engine.jobs", "execute_job"),),
    "api.aggregate": (("repro.api.result", "ExperimentResult.from_job_results"),),
    "api.compile_jobs": (("repro.api.spec", "ExperimentSpec.compile_jobs"),),
}


def import_package(package: str) -> None:
    """Import every module of ``package`` so that each binding can be found."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=f"{package}."):
        importlib.import_module(info.name)


def _resolve(module_name: str, qualname: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for a module function or a method."""
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, attribute, owner.__dict__[attribute]
    return owner, attribute, getattr(owner, attribute)


class Ledger:
    """Per-phase, per-layer ``[calls, self seconds]`` accumulated by a Tracer."""

    def __init__(self) -> None:
        self.phases: dict[str, dict[str, list[float]]] = {}

    def add(self, phase: str, layer: str, self_seconds: float) -> None:
        """Record one finished call."""
        entry = self.phases.setdefault(phase, {}).setdefault(layer, [0, 0.0])
        entry[0] += 1
        entry[1] += self_seconds

    def totals(self, phase: str) -> dict[str, list[float]]:
        """The ledger of one phase (empty when nothing was recorded)."""
        return self.phases.get(phase, {})


class Tracer:
    """Wraps every binding of the configured layer functions while installed.

    Parameters
    ----------
    layers:
        Layer name to ``(module, qualname)`` targets; defaults to
        :data:`LAYERS`.
    package:
        Prefix of the modules whose global bindings are rewritten.
    clock:
        Monotonic clock in seconds.

    Calls made while :attr:`phase` is ``None`` pass straight through and
    are not recorded.
    """

    def __init__(
        self,
        layers: dict[str, tuple[tuple[str, str], ...]] | None = None,
        *,
        package: str = "repro",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.layers = LAYERS if layers is None else layers
        self.package = package
        self.clock = clock
        self.ledger = Ledger()
        self.phase: str | None = None
        self._stack: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, layer: str, function: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        clock = self.clock

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            phase = self.phase
            if phase is None:
                return function(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.ledger.add(phase, layer, elapsed - children)

        return wrapper

    def install(self) -> None:
        """Patch every binding of every layer function in loaded modules."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == self.package or name.startswith(self.package + "."))
        ]
        for layer, targets in self.layers.items():
            for module_name, qualname in targets:
                owner, attribute, original = _resolve(module_name, qualname)
                if isinstance(original, (classmethod, staticmethod)):
                    wrapper: Any = type(original)(
                        self._wrap(layer, original.__func__)
                    )
                else:
                    wrapper = self._wrap(layer, original)
                self._patch(owner, attribute, wrapper)
                if isinstance(owner, type):
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Restore every original binding (in reverse patch order)."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
