"""The Direct / Indirect classifier of Table I.

A bug is ``Direct`` when a signal assigned on the buggy line appears
directly in a failing assertion's expression, ``Indirect`` otherwise.
Stage 2 assigns this label after verification; the full set of Table-I
labels of an entry is :attr:`repro.dataaug.datasets.SvaBugEntry.bug_type_labels`.
"""

from __future__ import annotations

from repro.bugs.instance import BugInstance
from repro.hdl.elaborate import AssertionSpec


def classify_direct(bug: BugInstance, failing_assertions: list[AssertionSpec]) -> bool:
    """True when a signal assigned on the buggy line appears in a failing assertion."""
    if not failing_assertions:
        return False
    assigned = set(bug.assigned_signals)
    if not assigned:
        return False
    for spec in failing_assertions:
        if assigned & spec.identifiers():
            return True
    return False
