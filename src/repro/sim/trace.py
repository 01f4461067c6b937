"""Simulation traces: sampled signal values per clock cycle.

A :class:`Trace` stores, for every simulated cycle, the values of every
signal sampled in the *preponed region* (just before the active clock edge),
and nothing else.  This is exactly the sampling semantics concurrent SVAs
use, so the assertion checker in :mod:`repro.sva` and the trace miner
consume these traces directly.  A simulator's live, post-edge state is read
through its ``value()`` / ``peek()``, not through the trace.

The compiled simulator records a :class:`DiffTrace` instead: per-signal
change events, at most one per signal per cycle, from which the per-signal
columns the checker and the miner read are built directly.  Its
:class:`TraceSample` objects are realised from the same events only when
something asks for samples (``step``, the tree-walking checker oracle).
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain
from dataclasses import dataclass, field
from typing import Any, overload

import numpy as np
import numpy.typing as npt

from repro.sim.values import LogicValue

#: Widest signal stored in a fast (int64) column.  Values and xmasks are kept
#: masked to the signal width, so anything up to 63 bits fits a non-negative
#: int64; wider signals fall back to object-dtype columns of Python ints.
INT64_COLUMN_MAX_WIDTH = 63

#: One recorded change: ``(point, value, xmask)``, point a cycle (see DiffTrace).
Event = tuple[int, int, int]


def _column_dtype(width: int) -> npt.DTypeLike:
    return np.int64 if width <= INT64_COLUMN_MAX_WIDTH else object


@dataclass
class TraceColumns:
    """Per-signal preponed ``(value, xmask)`` column arrays over all cycles.

    The columnar twin of the row-oriented :class:`Trace`: one pair of
    length-``cycles`` ndarrays per signal, holding exactly the
    ``value``/``xmask`` fields of every sample's :meth:`TraceSample.sampled`
    value.  Signals up to :data:`INT64_COLUMN_MAX_WIDTH` bits use ``int64``
    columns (what the vectorised checker consumes); wider signals degrade to
    object-dtype columns of Python ints so the representation stays total.
    """

    cycles: int
    values: dict[str, npt.NDArray[Any]]
    xmasks: dict[str, npt.NDArray[Any]]
    widths: dict[str, int]

    def signal(self, name: str) -> tuple[npt.NDArray[Any], npt.NDArray[Any]]:
        """The ``(value, xmask)`` column pair of one signal."""
        try:
            return self.values[name], self.xmasks[name]
        except KeyError as exc:
            raise KeyError(f"signal '{name}' has no column in this trace") from exc


@dataclass
class TraceSample:
    """Signal values sampled for one clock cycle, just before its edge."""

    cycle: int
    pre_edge: dict[str, LogicValue]

    def sampled(self, name: str) -> LogicValue:
        """The preponed (SVA-visible) value of ``name`` at this cycle."""
        try:
            return self.pre_edge[name]
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

    @overload
    def __getitem__(self, index: int) -> TraceSample: ...

    @overload
    def __getitem__(self, index: slice) -> list[TraceSample]: ...

    def __getitem__(self, index: int | slice) -> TraceSample | list[TraceSample]:
        return self.samples[index]

    def append(self, sample: TraceSample) -> None:
        self.samples.append(sample)
        self._invalidate_columns()

    # -- columnar-view memoisation ---------------------------------------- #

    def _invalidate_columns(self) -> None:
        """Drop memoised columns (called by every mutation entry point)."""
        self.__dict__.pop("_columns_memo", None)

    def __getstate__(self) -> dict[str, Any]:
        # Memoised columns are derived data: rebuilding them costs less than
        # shipping redundant ndarrays across process boundaries.
        state = dict(self.__dict__)
        state.pop("_columns_memo", None)
        return state

    def materialized(self) -> Trace:
        """This trace with every sample realised as plain dicts (identity here)."""
        return self

    def columns(self, names: list[str] | None = None) -> TraceColumns:
        """Columnar view: per-signal preponed ``(value, xmask)`` ndarrays.

        Column ``values[name][c]`` equals ``self[c].sampled(name).value`` for
        every cycle (and likewise for the xmask), so the vectorised checker
        and the trace miners evaluate whole-trace expressions without
        touching per-cycle dicts.  Raises :class:`KeyError` (with the
        offending names) when a requested signal is absent from the trace.

        Built columns are memoised per exact name tuple (and invalidated by
        any recorded cycle), so the verifier, ``check_batch`` and the
        benches stop rebuilding identical arrays for the same trace.
        Callers must not mutate the returned arrays.
        """
        key = tuple(names) if names is not None else None
        memo: dict[tuple[str, ...] | None, TraceColumns] = self.__dict__.setdefault(
            "_columns_memo", {}
        )
        cached = memo.get(key)
        if cached is None:
            cached = memo[key] = self._build_columns(names)
        return cached

    def _build_columns(self, names: list[str] | None = None) -> TraceColumns:
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
        values: dict[str, npt.NDArray[Any]] = {}
        xmasks: dict[str, npt.NDArray[Any]] = {}
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


def _updated(
    previous: dict[str, LogicValue], changes: dict[str, LogicValue] | None
) -> dict[str, LogicValue]:
    if not changes:
        return previous  # shared: consumers never mutate samples
    updated = dict(previous)
    updated.update(changes)
    return updated


class DiffTrace(Trace):
    """A trace stored as the per-signal change events of its recording.

    The compiled simulation backend samples every signal once per cycle,
    in the preponed region, and records only changes: ``events[name]`` is
    ``[(point, value, xmask), ...]`` in recording order, as plain ints.  A
    point is the cycle whose sample first shows the value (``-1`` is the
    settled initial state), so a signal has at most one event per cycle,
    and an event holds in the column from cycle ``max(point, 0)`` until the
    next event.  :meth:`columns` is built from the events directly;
    :class:`TraceSample` objects are realised from the same events only
    when read, incrementally, and cached, with unchanged cycles sharing the
    predecessor's dict.
    """

    def __init__(self, signals: list[str], initial: dict[str, tuple[int, int, int]]) -> None:
        """``initial`` maps every recorded name to ``(width, value, xmask)``."""
        # Deliberately does not call the dataclass __init__: `samples` is
        # replaced by a lazily-materialised property.
        self.signals = list(signals)
        self.widths = {name: width for name, (width, _, _) in initial.items()}
        #: Appended to by the recording simulator straight from its flat
        #: arrays; :meth:`end_cycle` closes each recorded cycle.
        self.events: dict[str, list[Event]] = {
            name: [(-1, value, xmask)] for name, (_, value, xmask) in initial.items()
        }
        self._cycles = 0
        self._cache: list[TraceSample] = []
        #: Per-signal index of the first event not yet folded into _cache.
        self._cursors = dict.fromkeys(self.events, 0)

    def end_cycle(self) -> None:
        """Close one recorded cycle (its events must already be appended)."""
        self._cycles += 1
        self._invalidate_columns()

    def append(self, sample: TraceSample) -> None:  # pragma: no cover - guard
        raise TypeError("DiffTrace records cycles as events, not samples")

    # -- lazy materialisation ------------------------------------------- #

    def _materialize_to(self, index: int) -> None:
        cache = self._cache
        first = len(cache)
        if index < first:
            return
        # Fold every not-yet-consumed event up to cycle `index` into
        # per-cycle change dicts, in recording order.
        stop = index + 1
        changes: dict[int, dict[str, LogicValue]] = {}
        cursors = self._cursors
        for name, events in self.events.items():
            width = self.widths[name]
            cursor = cursors[name]
            while cursor < len(events) and events[cursor][0] < stop:
                point, value, xmask = events[cursor]
                changes.setdefault(point, {})[name] = LogicValue(value, xmask, width)
                cursor += 1
            cursors[name] = cursor
        previous = cache[-1].pre_edge if cache else changes[-1]
        for cycle in range(first, index + 1):
            previous = _updated(previous, changes.get(cycle))
            cache.append(TraceSample(cycle=cycle, pre_edge=previous))

    @property
    def samples(self) -> list[TraceSample]:
        self._materialize_to(self._cycles - 1)
        return self._cache

    @samples.setter
    def samples(self, value: list[TraceSample]) -> None:  # pragma: no cover - guard
        raise TypeError("DiffTrace samples are derived from recorded events")

    def materialized(self) -> Trace:
        """An eager :class:`Trace` copy (useful before pickling across processes)."""
        return Trace(signals=list(self.signals), samples=list(self.samples))

    def _build_columns(self, names: list[str] | None = None) -> TraceColumns:
        """Columnar view built from the recorded events.

        Unlike the base implementation this never materialises per-cycle
        sample dicts: each event holds until the next one's (clipped)
        start.  Every requested signal of at most
        :data:`INT64_COLUMN_MAX_WIDTH` bits is built in one pass: its
        events are concatenated into one ``(events, 3)`` int64 array, one
        ``np.repeat`` per field expands them, and the result is reshaped to
        a ``(signals, cycles)`` grid whose rows are the columns.  A quiet
        design's columns thus cost O(changes), not O(cycles x signals), in
        a fixed number of numpy calls.  Wider signals take the same steps
        per signal on object arrays.  The sample-built base implementation
        is the oracle it is tested against.
        """
        names = list(names) if names is not None else list(self.signals)
        missing = sorted(name for name in names if name not in self.widths)
        if missing:
            raise KeyError(f"signals not in trace: {', '.join(missing)}")
        cycles = self._cycles
        values: dict[str, npt.NDArray[Any]] = {}
        xmasks: dict[str, npt.NDArray[Any]] = {}
        narrow = [name for name in names if self.widths[name] <= INT64_COLUMN_MAX_WIDTH]
        if narrow:
            streams = [self.events[name] for name in narrow]
            counts = [len(events) for events in streams]
            flat = np.fromiter(
                chain.from_iterable(chain.from_iterable(streams)), np.int64, 3 * sum(counts)
            ).reshape(-1, 3)
            lengths = self._hold_lengths(flat[:, 0], counts, cycles)
            grid_v = np.repeat(flat[:, 1], lengths).reshape(len(narrow), cycles)
            grid_x = np.repeat(flat[:, 2], lengths).reshape(len(narrow), cycles)
            for row, name in enumerate(narrow):
                values[name] = grid_v[row]
                xmasks[name] = grid_x[row]
        for name in names:
            if name in values:
                continue
            events = self.events[name]
            count = len(events)
            points = np.fromiter((e[0] for e in events), np.int64, count)
            lengths = self._hold_lengths(points, [count], cycles)
            values[name] = np.repeat(np.fromiter((e[1] for e in events), object, count), lengths)
            xmasks[name] = np.repeat(np.fromiter((e[2] for e in events), object, count), lengths)
        widths = {name: self.widths[name] for name in names}
        return TraceColumns(
            cycles=cycles,
            values={name: values[name] for name in names},
            xmasks={name: xmasks[name] for name in names},
            widths=widths,
        )

    @staticmethod
    def _hold_lengths(
        points: npt.NDArray[np.int64], counts: list[int], cycles: int
    ) -> npt.NDArray[np.int64]:
        """How many samples each event holds for.

        ``points`` are the cycles of several signals' event streams,
        concatenated; ``counts`` the length of each stream.  An event holds
        from its cycle until the next event of its stream, the last one of
        a stream until the end of the trace.
        """
        starts = np.clip(points, 0, cycles)
        stops = np.empty_like(starts)
        stops[:-1] = starts[1:]
        stops[np.cumsum(counts) - 1] = cycles
        lengths: npt.NDArray[np.int64] = np.maximum(stops - starts, 0)
        return lengths

    # -- cheap accessors that avoid materialising the whole run ---------- #

    def __len__(self) -> int:
        return self._cycles

    def __iter__(self) -> Iterator[TraceSample]:
        for index in range(self._cycles):
            yield self[index]

    @overload
    def __getitem__(self, index: int) -> TraceSample: ...

    @overload
    def __getitem__(self, index: slice) -> list[TraceSample]: ...

    def __getitem__(self, index: int | slice) -> TraceSample | list[TraceSample]:
        if isinstance(index, slice):
            return self.samples[index]
        if index < 0:
            index += self._cycles
        if index < 0 or index >= self._cycles:
            raise IndexError("trace index out of range")
        self._materialize_to(index)
        return self._cache[index]
