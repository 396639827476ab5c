"""The shipped rule catalog.

Importing this package registers every built-in rule with
:data:`repro.analysis.base.RULES`; the registry also imports the
submodules lazily on first lookup, so either entry point sees the full
catalog.  Current rules (key → module):

======================  =========================================
``global-rng``          :mod:`repro.analysis.rules.determinism`
``wall-clock``          :mod:`repro.analysis.rules.determinism`
``ndarray-eq``          :mod:`repro.analysis.rules.dataclass_eq`
``task-pickle``         :mod:`repro.analysis.rules.pickle_safety`
``float-eq``            :mod:`repro.analysis.rules.api_surface`
``bare-lock``           :mod:`repro.analysis.rules.concurrency`
``spec-signature``      :mod:`repro.analysis.rules.registry_contract`
``iter-hotpath``        :mod:`repro.analysis.rules.iter_hotpath`
======================  =========================================
"""

from repro.analysis.rules import (  # noqa: F401  (registration imports)
    api_surface,
    concurrency,
    dataclass_eq,
    determinism,
    iter_hotpath,
    pickle_safety,
    registry_contract,
)

__all__ = [
    "api_surface",
    "concurrency",
    "dataclass_eq",
    "determinism",
    "iter_hotpath",
    "pickle_safety",
    "registry_contract",
]
