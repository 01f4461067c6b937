"""The attempt-tensor walk as it was before it ran on packed bits.

:func:`repro.sva.vector.walk_attempts_packed` resolves attempts with
Python-int bitmask operations; this module keeps the earlier numpy walk --
one boolean (row x start-cycle) mask per outcome bucket -- as the oracle
it must match, outcome for outcome (``tests/test_walk_packed.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sva.checker import AssertionFailure, AssertionOutcome


def _shift_lane(lane: np.ndarray, offset: int) -> np.ndarray:
    """``lane`` advanced by ``offset`` cycles along the cycle axis.

    ``out[..., start] == lane[..., start + offset]`` where in range, False
    beyond the array -- out-of-range reads are masked by the caller's
    per-row length check before they are ever consulted, so the False fill
    is never observable.
    """
    if offset == 0:
        return lane
    n = lane.shape[-1]
    out = np.zeros(lane.shape, dtype=bool)
    if offset < n:
        out[..., : n - offset] = lane[..., offset:]
    return out


def walk_attempts_tensor(
    name: str,
    message: str,
    antecedent: Optional[list[tuple[int, int]]],
    consequent: list[tuple[int, int]],
    overlapping: bool,
    disable_index: Optional[int],
    values: list[np.ndarray],
    xmasks: list[np.ndarray],
    lengths: np.ndarray,
) -> list[AssertionOutcome]:
    """Resolve every attempt of every row in whole-array numpy operations.

    Where the tree-walking oracle loops over start cycles in Python, this
    computes one boolean (row x start-cycle) mask per outcome bucket, with
    antecedent/consequent delays as shifted views, ``disable iff`` as a
    per-row prefix-count lookup, and pass/fail/vacuous resolution for all
    attempt starts of all rows in one expression.  Rows are independent traces (one per
    verification seed); a single trace is the degenerate ``(1, cycles)``
    case.

    ``values[i]`` / ``xmasks[i]`` are element ``i``'s lanes over a common
    padded ``(rows, max_cycles)`` grid; ``lengths[r]`` is row ``r``'s true
    cycle count.  Padded cells carry ``(0, 0)`` and are provably never
    consulted: every truth test is preceded by an in-range mask on the
    *shifted* cycle, and the disable prefix is clipped to real cells before
    accumulation.

    Bucket semantics replicate the oracle exactly, in its order: disabled at
    the start cycle first; antecedent elements left to right (out of range
    -> pending, non-True -> vacuous); ``disable iff`` anywhere in
    ``[start, consequent start]``; consequent elements left to right (out
    of range -> pending, known-False -> fail at the first such element);
    a fail whose ``[start, fail cycle]`` span saw the disable counts as
    disabled instead.  Each start lands in exactly one bucket because every
    test removes its matches from the live mask.  Failures are emitted in
    ascending start order, matching the oracle's iteration.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    rows = lengths.shape[0]
    n = int(lengths.max()) if rows else 0
    starts = np.arange(n, dtype=np.int64)[None, :]
    len_col = lengths[:, None]
    in_trace = starts < len_col

    def true_lane(index: int) -> np.ndarray:
        return np.asarray(values[index]) != 0

    def false_lane(index: int) -> np.ndarray:
        return (np.asarray(values[index]) == 0) & (np.asarray(xmasks[index]) == 0)

    active = in_trace.copy()
    disabled = np.zeros_like(in_trace)
    pending = np.zeros_like(in_trace)
    vacuous = np.zeros_like(in_trace)
    prefix = None
    if disable_index is not None:
        dis = true_lane(disable_index) & in_trace
        prefix = np.zeros((rows, n + 1), dtype=np.int64)
        prefix[:, 1:] = np.cumsum(dis, axis=1)
        disabled = active & dis
        active = active & ~dis

    if antecedent:
        for offset, index in antecedent:
            in_range = (starts + offset) < len_col
            pending = pending | (active & ~in_range)
            active = active & in_range
            t = _shift_lane(true_lane(index), offset)
            vacuous = vacuous | (active & ~t)
            active = active & t
    matched = active
    if antecedent is None:
        consequent_base = 0
    else:
        last_offset = antecedent[-1][0] if antecedent else 0
        consequent_base = last_offset + (0 if overlapping else 1)

    def disable_span(end: np.ndarray) -> np.ndarray:
        """``prefix[end + 1] - prefix[start]`` per (row, start), end clamped."""
        clamped = np.clip(end, -1, len_col - 1)
        gathered = np.take_along_axis(prefix, np.maximum(clamped + 1, 0), axis=1)
        return gathered - prefix[:, :n]

    if prefix is not None:
        mid = active & (disable_span(starts + consequent_base) > 0)
        disabled = disabled | mid
        active = active & ~mid

    failed = np.zeros_like(in_trace)
    fail_cycle = np.full((rows, n), -1, dtype=np.int64)
    for offset, index in consequent:
        total = consequent_base + offset
        in_range = (starts + total) < len_col
        pending = pending | (active & ~in_range)
        active = active & in_range
        f = _shift_lane(false_lane(index), total)
        newly = active & f
        fail_cycle = np.where(newly, starts + total, fail_cycle)
        failed = failed | newly
        active = active & ~f
    passes = active
    if prefix is not None:
        late = failed & (disable_span(fail_cycle) > 0)
        disabled = disabled | late
        failed = failed & ~late

    outcomes: list[AssertionOutcome] = []
    for row in range(rows):
        outcome = AssertionOutcome(name=name)
        outcome.attempts = int(lengths[row])
        outcome.antecedent_matches = int(matched[row].sum())
        outcome.passes = int(passes[row].sum())
        outcome.vacuous = int(vacuous[row].sum())
        outcome.pending = int(pending[row].sum())
        outcome.disabled = int(disabled[row].sum())
        for start in np.nonzero(failed[row])[0].tolist():
            outcome.failures.append(
                AssertionFailure(
                    assertion=name,
                    start_cycle=start,
                    fail_cycle=int(fail_cycle[row, start]),
                    message=message,
                )
            )
        outcomes.append(outcome)
    return outcomes
