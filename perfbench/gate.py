"""Correctness gate: every job the benchmark runs is checked, none is dropped.

* At :data:`DEFAULT_SEED` each payload must match the reference recorded
  in ``reference.json`` within :data:`RTOL` (relative).  Bit-identity is
  not required: a re-orthogonalization change moves Q by ~1e-15, which a
  tolerance absorbs and a changed result does not.
* At every seed each payload must satisfy the invariants: no ``errors``,
  every number finite, every RMSE positive.  A per-job ordering such as
  BE-DR <= UDR is *not* an invariant: at 300 records it fails on 18 of
  172 figure jobs across seeds 1, 2, 3 and 2005.
* A warm (cache-served) result must be a hit whose payload equals the
  cold payload exactly.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any

#: Seed whose payloads are pinned by ``reference.json``.
DEFAULT_SEED = 2005
#: Relative tolerance of the reference comparison.
RTOL = 1e-6

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")


def load_reference(workload: str, path: pathlib.Path = REFERENCE_PATH) -> list[Any]:
    """The recorded default-seed payloads of a workload, in job order."""
    with path.open() as stream:
        return json.load(stream)[workload]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def invariant_problems(payload: Any) -> list[str]:
    """Why a payload breaks the seed-independent invariants (empty if it doesn't)."""
    if not isinstance(payload, dict) or not payload:
        return ["payload is not a non-empty dict"]
    problems = []
    if "errors" in payload:
        problems.append(f"attack errors: {payload['errors']}")

    def walk(value: Any, where: str) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{where}.{key}")
        elif isinstance(value, list):
            for index, item in enumerate(value):
                walk(item, f"{where}[{index}]")
        elif not _is_number(value) or not math.isfinite(value):
            problems.append(f"{where} = {value!r} is not a finite number")

    walk({k: v for k, v in payload.items() if k != "errors"}, "payload")
    for label, value in payload.get("rmse", {}).items():
        if _is_number(value) and not value > 0:
            problems.append(f"rmse[{label}] = {value!r} is not positive")
    return problems


def reference_problems(payload: Any, expected: Any, rtol: float = RTOL) -> list[str]:
    """Where a payload departs from its reference beyond ``rtol``."""
    problems: list[str] = []

    def walk(value: Any, want: Any, where: str) -> None:
        if isinstance(want, dict):
            if not isinstance(value, dict) or set(value) != set(want):
                problems.append(f"{where}: keys differ from the reference")
                return
            for key in want:
                walk(value[key], want[key], f"{where}.{key}")
        elif isinstance(want, list):
            if not isinstance(value, list) or len(value) != len(want):
                problems.append(f"{where}: length differs from the reference")
                return
            for index, (item, wanted) in enumerate(zip(value, want)):
                walk(item, wanted, f"{where}[{index}]")
        elif _is_number(want) and _is_number(value):
            if abs(value - want) > rtol * max(abs(value), abs(want)):
                problems.append(f"{where} = {value!r}, reference {want!r}")
        elif value != want:
            problems.append(f"{where} = {value!r}, reference {want!r}")

    walk(payload, expected, "payload")
    return problems


def cold_failures(results: list[Any], reference: list[Any] | None) -> int:
    """Count cold results that failed, broke an invariant or missed the reference."""
    if reference is not None and len(reference) != len(results):
        return len(results)
    failures = 0
    for index, result in enumerate(results):
        if (
            result.failed
            or invariant_problems(result.values)
            or (reference is not None and reference_problems(result.values, reference[index]))
        ):
            failures += 1
    return failures


def warm_failures(cold: list[Any], warm: list[Any]) -> int:
    """Count warm results that were not cache hits equal to their cold payload."""
    if len(cold) != len(warm):
        return max(len(cold), len(warm))
    return sum(
        1
        for before, after in zip(cold, warm)
        if not after.cached or after.values != before.values
    )
