"""Helpers shared by the micro-benchmark scripts.

Importing this module puts the checkout's ``src/`` on ``sys.path``, so
``python benchmarks/<script>.py`` runs without installing the package.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs import host_metadata  # noqa: E402


def timed(run) -> float:
    """Wall time of one call of ``run``."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def best_of(repeat: int, run) -> float:
    """Smallest wall time of ``repeat`` runs (robust against scheduler noise)."""
    return min(timed(run) for _ in range(repeat))


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def write_report(path: Path, schema: str, body: dict) -> None:
    """Write ``body`` as indented JSON under ``schema``, stamped with the host."""
    report = {"schema": schema, "host": host_metadata(), **body}
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
