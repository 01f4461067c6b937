"""Simulation traces: sampled signal values per clock cycle.

A :class:`Trace` stores, for every simulated cycle, the values of every
signal sampled in the *preponed region* (just before the active clock edge).
This is exactly the sampling semantics concurrent SVAs use, so the assertion
checker in :mod:`repro.sva` consumes these traces directly.  A second,
post-edge snapshot is kept for waveform dumping and debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.sim.values import LogicValue

#: Widest signal stored in a fast (int64) column.  Values and xmasks are kept
#: masked to the signal width, so anything up to 63 bits fits a non-negative
#: int64; wider signals fall back to object-dtype columns of Python ints.
INT64_COLUMN_MAX_WIDTH = 63


def _column_dtype(width: int):
    return np.int64 if width <= INT64_COLUMN_MAX_WIDTH else object


@dataclass
class TraceColumns:
    """Per-signal preponed ``(value, xmask)`` column arrays over all cycles.

    The columnar twin of the row-oriented :class:`Trace`: one pair of
    length-``cycles`` ndarrays per signal, holding exactly the values
    :meth:`Trace.sampled_values` would return, as flat integers.  Signals up
    to :data:`INT64_COLUMN_MAX_WIDTH` bits use ``int64`` columns (what the
    vectorised checker consumes); wider signals degrade to object-dtype
    columns of Python ints so the representation stays total.
    """

    cycles: int
    values: dict[str, np.ndarray]
    xmasks: dict[str, np.ndarray]
    widths: dict[str, int]

    def signal(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The ``(value, xmask)`` column pair of one signal."""
        try:
            return self.values[name], self.xmasks[name]
        except KeyError as exc:
            raise KeyError(f"signal '{name}' has no column in this trace") from exc


def _fill_columns_from_events(
    names: list[str],
    events: dict[str, list[tuple[int, int, int]]],
    widths: dict[str, int],
    cycles: int,
) -> TraceColumns:
    """Build :class:`TraceColumns` from per-signal change events.

    ``events[name]`` is ``[(start_cycle, value, xmask), ...]`` in application
    order: each event holds from its start cycle until the next event (later
    events at the same start cycle override earlier ones).  The fill is one
    slice assignment per *change*, so quiet signals cost O(1) regardless of
    trace length.
    """
    values: dict[str, np.ndarray] = {}
    xmasks: dict[str, np.ndarray] = {}
    for name in names:
        dtype = _column_dtype(widths[name])
        signal_events = events[name]
        count = len(signal_events)
        if count == 0:  # pragma: no cover - callers always seed a cycle-0 event
            values[name] = np.zeros(cycles, dtype=dtype)
            xmasks[name] = np.zeros(cycles, dtype=dtype)
            continue
        # Each event holds until the next one's (clipped) start: one
        # np.repeat builds the whole column, so the fill is O(events) numpy
        # work whether the signal changed once or every cycle.
        starts = np.fromiter((e[0] for e in signal_events), np.int64, count)
        np.clip(starts, 0, cycles, out=starts)
        stops = np.empty(count, dtype=np.int64)
        stops[:-1] = starts[1:]
        stops[-1] = cycles
        lengths = np.maximum(stops - starts, 0)
        values[name] = np.repeat(
            np.fromiter((e[1] for e in signal_events), dtype, count), lengths
        )
        xmasks[name] = np.repeat(
            np.fromiter((e[2] for e in signal_events), dtype, count), lengths
        )
    return TraceColumns(cycles=cycles, values=values, xmasks=xmasks, widths=dict(widths))


@dataclass
class TraceSample:
    """Signal values for one clock cycle."""

    cycle: int
    pre_edge: dict[str, LogicValue]
    post_edge: dict[str, LogicValue]

    def sampled(self, name: str) -> LogicValue:
        """The preponed (SVA-visible) value of ``name`` at this cycle."""
        try:
            return self.pre_edge[name]
        except KeyError as exc:
            raise KeyError(f"signal '{name}' not in trace sample") from exc

    def settled(self, name: str) -> LogicValue:
        """The post-edge (waveform-visible) value of ``name`` at this cycle."""
        try:
            return self.post_edge[name]
        except KeyError as exc:
            raise KeyError(f"signal '{name}' not in trace sample") from exc


@dataclass
class Trace:
    """A sequence of per-cycle samples for one simulation run."""

    signals: list[str] = field(default_factory=list)
    samples: list[TraceSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[TraceSample]:
        return iter(self.samples)

    def __getitem__(self, index: int) -> TraceSample:
        return self.samples[index]

    def append(self, sample: TraceSample) -> None:
        self.samples.append(sample)
        self._invalidate_columns()

    # -- columnar-view memoisation ---------------------------------------- #

    def _invalidate_columns(self) -> None:
        """Drop memoised columns (called by every mutation entry point)."""
        self.__dict__.pop("_columns_memo", None)

    def columns_cached(self, names: Optional[list[str]] = None) -> Optional[TraceColumns]:
        """The memoised columns for exactly these names, or None.

        A cheap existence probe: consumers (the compiled checker's per-trace
        preparation) use a hit to skip the per-sample signal-membership scan
        entirely -- a memoised build already proved the signals exist.
        """
        memo = self.__dict__.get("_columns_memo")
        if memo is None:
            return None
        key = tuple(names) if names is not None else None
        return memo.get(key)

    def __getstate__(self) -> dict:
        # Memoised columns are derived data: rebuilding them costs less than
        # shipping redundant ndarrays across process boundaries.
        state = dict(self.__dict__)
        state.pop("_columns_memo", None)
        return state

    def sampled_values(self, name: str) -> list[LogicValue]:
        """All preponed values of one signal across the run."""
        return [sample.sampled(name) for sample in self.samples]

    def sampled_ints(self, name: str) -> list[Optional[int]]:
        """All preponed values as ints (``None`` where the value has x bits)."""
        values = []
        for sample in self.samples:
            value = sample.sampled(name)
            values.append(None if value.has_unknown else value.to_int())
        return values

    def value_at(self, name: str, cycle: int) -> LogicValue:
        """Preponed value of ``name`` at ``cycle`` (0-based)."""
        return self.samples[cycle].sampled(name)

    def last(self) -> TraceSample:
        if not self.samples:
            raise IndexError("trace is empty")
        return self.samples[-1]

    def slice(self, start: int, stop: Optional[int] = None) -> "Trace":
        """Return a sub-trace covering ``samples[start:stop]`` (cycles renumbered)."""
        selected = self.samples[start:stop]
        renumbered = [
            TraceSample(cycle=i, pre_edge=s.pre_edge, post_edge=s.post_edge)
            for i, s in enumerate(selected)
        ]
        return Trace(signals=list(self.signals), samples=renumbered)

    def materialized(self) -> "Trace":
        """This trace with every sample realised as plain dicts (identity here)."""
        return self

    def has_signals(self, names: list[str]) -> bool:
        """True when every name is present in every sample's preponed dict.

        The cheap membership probe consumers use to decide up front whether
        :meth:`columns` / per-cycle reads can succeed; shared sample dicts
        (quiet stretches) are probed once, and no values are touched.
        """
        prev_pre: Optional[dict] = None
        for sample in self.samples:
            pre = sample.pre_edge
            if pre is prev_pre:
                continue
            for name in names:
                if name not in pre:
                    return False
            prev_pre = pre
        return True

    def columns(self, names: Optional[list[str]] = None) -> TraceColumns:
        """Columnar view: per-signal preponed ``(value, xmask)`` ndarrays.

        Column ``values[name][c]`` equals ``value_at(name, c).value`` for
        every cycle (and likewise for the xmask), so the vectorised checker
        can evaluate whole-trace expressions without touching per-cycle
        dicts.  Raises :class:`KeyError` (with the offending names) when a
        requested signal is absent from the trace samples.

        Built columns are memoised per exact name tuple (and invalidated by
        any append), so the verifier, ``check_batch`` and the benches stop
        rebuilding identical arrays for the same trace.  Callers must not
        mutate the returned arrays.
        """
        key = tuple(names) if names is not None else None
        memo = self.__dict__.get("_columns_memo")
        if memo is None:
            memo = self.__dict__["_columns_memo"] = {}
        cached = memo.get(key)
        if cached is None:
            cached = memo[key] = self._build_columns(names)
        return cached

    def _build_columns(self, names: Optional[list[str]] = None) -> TraceColumns:
        names = list(names) if names is not None else list(self.signals)
        cycles = len(self.samples)
        if cycles == 0:
            empty = np.zeros(0, dtype=np.int64)
            return TraceColumns(
                cycles=0,
                values={name: empty for name in names},
                xmasks={name: empty for name in names},
                widths={name: 1 for name in names},
            )
        samples = self.samples
        first = samples[0].pre_edge
        missing = sorted(name for name in names if name not in first)
        if missing:
            raise KeyError(f"signals not in trace: {', '.join(missing)}")
        values: dict[str, np.ndarray] = {}
        xmasks: dict[str, np.ndarray] = {}
        widths: dict[str, int] = {}
        for name in names:
            width = first[name].width
            dtype = _column_dtype(width)
            try:
                sampled = [sample.pre_edge[name] for sample in samples]
            except KeyError as exc:
                raise KeyError(f"signals not in trace: {name}") from exc
            widths[name] = width
            values[name] = np.fromiter((v.value for v in sampled), dtype, cycles)
            xmasks[name] = np.fromiter((v.xmask for v in sampled), dtype, cycles)
        return TraceColumns(cycles=cycles, values=values, xmasks=xmasks, widths=widths)

    def render(self, names: Optional[list[str]] = None, max_cycles: int = 32) -> str:
        """Render a compact text waveform table (one row per signal).

        The name column is sized to the longest rendered name (no silent
        truncation), and unknown names raise :class:`ValueError` up front
        instead of a bare ``KeyError`` mid-render.
        """
        names = names or self.signals
        available = self.samples[0].pre_edge if self.samples else self.signals
        missing = sorted(name for name in names if name not in available)
        if missing:
            raise ValueError(
                f"cannot render signals not in trace: {', '.join(missing)}"
            )
        cycles = min(len(self.samples), max_cycles)
        name_width = max([len("cycle")] + [len(name) for name in names]) + 1
        header = f"{'cycle':<{name_width}}" + " ".join(f"{i:>4d}" for i in range(cycles))
        rows = [header]
        for name in names:
            cells = []
            for i in range(cycles):
                value = self.samples[i].sampled(name)
                cells.append("   x" if value.has_unknown else f"{value.to_int():>4d}")
            rows.append(f"{name:<{name_width}}" + " ".join(cells))
        return "\n".join(rows)


class DiffTrace(Trace):
    """A trace stored as per-cycle diffs instead of full snapshots.

    The compiled simulation backend records, for every cycle, only the
    signals whose value changed since the previous sampling point (two
    sampling points per cycle: preponed and post-edge).  Samples are
    materialised into ordinary :class:`TraceSample` objects lazily, on first
    access, and cached; unchanged sampling points share the predecessor's
    dict so a quiet design costs almost nothing to store or to read.

    The class satisfies the full :class:`Trace` API: any access that needs
    the plain ``samples`` list (e.g. :meth:`Trace.slice`) transparently
    materialises the whole trace first.
    """

    def __init__(self, signals: list[str], base: dict[str, LogicValue]):
        # Deliberately does not call the dataclass __init__: `samples` is
        # replaced by a lazily-materialised property.
        self.signals = list(signals)
        self._base = dict(base)
        self._pre_diffs: list[dict[str, LogicValue]] = []
        self._post_diffs: list[dict[str, LogicValue]] = []
        self._cache: list[TraceSample] = []
        #: Per-signal change events ``(sample_cycle, value, xmask)`` as plain
        #: ints, appended by the recording simulator straight from its flat
        #: arrays -- deliberately no per-event method call on a loop that
        #: runs for every changed signal of every cycle.  :meth:`columns`
        #: reads them instead of unpacking LogicValue diffs.
        self._column_events: dict[str, list[tuple[int, int, int]]] = {}

    # -- recording (used by the compiled backend) ----------------------- #

    def append_diffs(
        self, pre_diff: dict[str, LogicValue], post_diff: dict[str, LogicValue]
    ) -> None:
        """Record one cycle as (changes up to the preponed sample, changes up
        to the post-edge sample).

        The recorder must already have appended the same changes to
        ``_column_events``: a pre-edge change at its own cycle, a post-edge
        change at the next one.
        """
        self._pre_diffs.append(pre_diff)
        self._post_diffs.append(post_diff)
        self._invalidate_columns()

    def append(self, sample: TraceSample) -> None:  # pragma: no cover - guard
        raise TypeError("DiffTrace records cycles via append_diffs(), not append()")

    # -- lazy materialisation ------------------------------------------- #

    def _materialize_to(self, index: int) -> None:
        while len(self._cache) <= index:
            cycle = len(self._cache)
            previous = self._cache[-1].post_edge if self._cache else self._base
            pre_diff = self._pre_diffs[cycle]
            if pre_diff:
                pre = dict(previous)
                pre.update(pre_diff)
            else:
                pre = previous  # shared: consumers never mutate samples
            post_diff = self._post_diffs[cycle]
            if post_diff:
                post = dict(pre)
                post.update(post_diff)
            else:
                post = pre
            self._cache.append(TraceSample(cycle=cycle, pre_edge=pre, post_edge=post))

    @property
    def samples(self) -> list[TraceSample]:  # type: ignore[override]
        if self._pre_diffs:
            self._materialize_to(len(self._pre_diffs) - 1)
        return self._cache

    @samples.setter
    def samples(self, value: list[TraceSample]) -> None:  # pragma: no cover - guard
        raise TypeError("DiffTrace samples are derived from recorded diffs")

    def materialized(self) -> Trace:
        """An eager :class:`Trace` copy (useful before pickling across processes)."""
        return Trace(signals=list(self.signals), samples=list(self.samples))

    def has_signals(self, names: list[str]) -> bool:
        # Diff keys are always a subset of the base keys (both come from the
        # recording simulator's fixed signal list), so base membership is
        # the whole answer -- no materialisation.
        base = self._base
        return all(name in base for name in names)

    def _build_columns(self, names: Optional[list[str]] = None) -> TraceColumns:
        """Columnar view built from the simulator-recorded column events.

        Unlike the base implementation this never materialises per-cycle
        sample dicts: each recorded change is one event and quiet stretches
        become one slice fill, so a quiet design's columns cost
        O(changes), not O(cycles x signals).  The sample-built base
        implementation is the oracle it is tested against.
        """
        names = list(names) if names is not None else list(self.signals)
        base = self._base
        missing = sorted(name for name in names if name not in base)
        if missing:
            raise KeyError(f"signals not in trace: {', '.join(missing)}")
        widths = {name: base[name].width for name in names}
        events: dict[str, list[tuple[int, int, int]]] = {
            name: [(0, base[name].value, base[name].xmask)] for name in names
        }
        for name in names:
            recorded = self._column_events.get(name)
            if recorded:
                events[name].extend(recorded)
        return _fill_columns_from_events(names, events, widths, len(self._pre_diffs))

    # -- cheap accessors that avoid materialising the whole run ---------- #

    def __len__(self) -> int:
        return len(self._pre_diffs)

    def __iter__(self) -> Iterator[TraceSample]:
        for index in range(len(self)):
            yield self[index]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.samples[index]
        if index < 0:
            index += len(self)
        if index < 0 or index >= len(self):
            raise IndexError("trace index out of range")
        self._materialize_to(index)
        return self._cache[index]

    def value_at(self, name: str, cycle: int) -> LogicValue:
        return self[cycle].sampled(name)

    def last(self) -> TraceSample:
        if not self._pre_diffs:
            raise IndexError("trace is empty")
        return self[len(self) - 1]
