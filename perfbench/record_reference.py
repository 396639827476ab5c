"""Re-record ``reference.json``: every workload's default-seed payloads.

Run only when a change to the program's numbers is intended, and say
so in the change::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json

import gate
import workload
from repro.engine import Engine


def record() -> dict[str, list[dict]]:
    """Cold-sweep payloads of each workload at the default seed, in job order."""
    reference = {}
    for name, build in workload.WORKLOADS.items():
        built = build(gate.DEFAULT_SEED)
        try:
            with built.context():
                results, _ = workload.sweep(Engine(), built, built.jobs)
        finally:
            built.close()
        reference[name] = [result.values for result in results]
    return reference


if __name__ == "__main__":
    with gate.REFERENCE_PATH.open("w") as stream:
        json.dump(record(), stream, separators=(",", ":"))
        stream.write("\n")
