"""The packed-bit attempt walk against the numpy walk it replaced.

:func:`repro.sva.vector.walk_attempts_packed` resolves attempts on
Python-int bitmasks; ``tests/walk_oracle.py`` keeps the earlier numpy
``walk_attempts_tensor``.  A seeded fuzz compares the two, row for row, by
``AssertionOutcome.comparison_key()`` over random truth and known-false
lanes: ragged rows (empty, one cycle, longer than 128 cycles), one to three
elements per sequence with delays 0-3, ``|->``, ``|=>`` and no antecedent,
with and without a disable lane.  Cells past a row's length hold random
bits on the packed side, which the walk must never read.
"""

import random

import numpy as np

from repro.sva.vector import PackedRows, consequent_base, walk_attempts_packed
from walk_oracle import walk_attempts_tensor

CASES = 2400
SEED = 20261020


def random_sequence(rng, elements):
    """[(cumulative offset, element index)] with delays 0-3 per element."""
    items, offset = [], 0
    for _ in range(rng.randint(1, 3)):
        offset += rng.randint(0, 3)
        items.append((offset, len(elements)))
        elements.append(None)
    return items


def random_length(rng):
    return rng.choice((0, 1, rng.randint(2, 24), rng.randint(129, 150)))


def random_case(rng):
    elements = []
    kind = rng.choice(("none", "|->", "|=>"))
    antecedent = None if kind == "none" else random_sequence(rng, elements)
    consequent = random_sequence(rng, elements)
    disable_index = None
    if rng.random() < 0.5:
        disable_index = len(elements)
        elements.append(None)
    lengths = [random_length(rng) for _ in range(rng.randint(1, 4))]
    return antecedent, consequent, kind == "|->", disable_index, len(elements), lengths


def run_case(rng, case):
    antecedent, consequent, overlapping, disable_index, count, lengths = case
    rows = len(lengths)
    longest = max(lengths)
    lookahead = consequent_base(antecedent, overlapping) + consequent[-1][0]
    stride = longest if rows == 1 else -(-(longest + lookahead) // 8) * 8
    geometry = PackedRows(lengths, stride)
    in_trace = np.arange(stride)[None, :] < np.array(lengths)[:, None]
    consequent_indices = {index for _offset, index in consequent}
    values, xmasks, lanes = [], [], []
    for index in range(count):
        # Per-element densities, so every bucket is reachable: a lane that
        # is almost always true lets long sequences match.
        p_true, p_x = rng.choice((0.1, 0.5, 0.9, 0.97)), rng.choice((0.0, 0.2, 0.5))
        bits = np.array([[rng.random() < p_true for _ in range(stride)] for _ in range(rows)])
        unknown = np.array([[rng.random() < p_x for _ in range(stride)] for _ in range(rows)])
        value = bits.astype(np.int64)
        xmask = unknown.astype(np.int64)
        # The oracle's contract: cells past a row's length carry (0, 0).
        values.append(np.where(in_trace, value, 0)[:, :longest])
        xmasks.append(np.where(in_trace, xmask, 0)[:, :longest])
        # The packed walk gets the unmasked lanes, garbage past the end.
        if index in consequent_indices:
            lanes.append(geometry.pack((value | xmask) == 0))
        else:
            lanes.append(geometry.pack(value != 0))
    oracle = walk_attempts_tensor(
        "a", "msg", antecedent, consequent, overlapping, disable_index,
        values, xmasks, np.array(lengths, dtype=np.int64),
    )
    packed = walk_attempts_packed(
        "a", "msg", antecedent, consequent, overlapping, disable_index, lanes, geometry
    )
    return oracle, packed


def test_packed_walk_matches_numpy_oracle():
    rng = random.Random(SEED)
    buckets = dict.fromkeys(("pass", "fail", "vacuous", "pending", "disabled"), 0)
    shapes = {"no antecedent": 0, "|->": 0, "|=>": 0, "disable": 0, "no disable": 0}
    lengths_seen = {"0": 0, "1": 0, ">128": 0, "ragged": 0}
    for number in range(CASES):
        case = random_case(rng)
        antecedent, consequent, overlapping, disable_index, _count, lengths = case
        oracle, packed = run_case(rng, case)
        assert len(oracle) == len(packed) == len(lengths)
        for row, (want, got) in enumerate(zip(oracle, packed)):
            assert got.comparison_key() == want.comparison_key(), (number, row, case)
            buckets["pass"] += want.passes
            buckets["fail"] += len(want.failures)
            buckets["vacuous"] += want.vacuous
            buckets["pending"] += want.pending
            buckets["disabled"] += want.disabled
        shapes["no antecedent" if antecedent is None else "|->" if overlapping else "|=>"] += 1
        shapes["no disable" if disable_index is None else "disable"] += 1
        lengths_seen["0"] += 0 in lengths
        lengths_seen["1"] += 1 in lengths
        lengths_seen[">128"] += any(length > 128 for length in lengths)
        lengths_seen["ragged"] += len(set(lengths)) > 1
    assert all(buckets.values()), buckets
    assert all(shapes.values()), shapes
    assert all(lengths_seen.values()), lengths_seen


def test_constant_lane_packs_to_every_cell():
    geometry = PackedRows([3, 5], 8)
    assert geometry.pack(np.True_) == (1 << 16) - 1
    assert geometry.pack(False) == 0
    assert geometry.in_range(0) == 0b111 | (0b11111 << 8)
    assert geometry.in_range(4) == 0b1 << 8
    assert geometry.counts(geometry.in_range(0)) == [3, 5]
