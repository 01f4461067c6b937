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


def paired_best_of(repeat: int, first, second, min_seconds: float) -> tuple[float, float]:
    """Per-call best-of-``repeat`` times of ``first`` and ``second``, interleaved.

    Each measurement runs its call back to back until the measured stretch
    lasts at least ``min_seconds``, so a scheduler hiccup is a small share of
    it, and the two calls take turns, so a slow spell of the host hits both.
    """
    single = max(timed(first), timed(second), 1e-9)
    calls = max(1, math.ceil(min_seconds / single))

    def stretch(run) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            run()
        return (time.perf_counter() - start) / calls

    best_first = best_second = math.inf
    for _ in range(repeat):
        best_first = min(best_first, stretch(first))
        best_second = min(best_second, stretch(second))
    return best_first, best_second


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def write_report(path: Path, schema: str, body: dict) -> None:
    """Write ``body`` as indented JSON under ``schema``, stamped with the host."""
    report = {"schema": schema, "host": host_metadata(), **body}
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
