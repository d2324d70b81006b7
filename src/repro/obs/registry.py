"""The metrics registry: labeled counters, gauges, histograms, phases.

Design constraints, in order of priority:

1. **Determinism.** Snapshots must be byte-identical across runs with
   the same seed: keys are sorted, every histogram buckets by the fixed
   ``DEFAULT_BUCKET_EDGES``, and phase timers read the *virtual* clock
   (the engine's ``now``), never the host's. Nothing here touches
   wall-clock time.
2. **A count is kept once; zero cost when disabled.** A snapshot reads
   the counts a component already keeps (``metrics.collect``, DESIGN.md
   §8). The rest is pushed to a *cell* bound once, when the component is
   wired (``metrics.counter(name, **labels)`` — the only place labels
   are sorted and stringified): ``if metrics.enabled: cell.value += v``.
   ``inc``/``observe``/``gauge_*`` by name are for cold callers.
3. **No engine interaction.** Emitting a metric never creates events,
   timeouts, or processes; virtual timings are bitwise identical with
   metrics on or off.

A series is reported iff it was emitted to (``0.0`` counts; binding does
not) or its collected guard is nonzero; a per-level component rebinds the
same cells or is released into them. Snapshots render ``name{k=v,...}``.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from typing import Callable, Optional

__all__ = ["DEFAULT_BUCKET_EDGES", "MetricsRegistry", "NULL_METRICS"]

#: Fixed decade edges covering everything this system observes —
#: sub-microsecond overheads up to multi-gigabyte transfer volumes.
#: Every histogram uses them, so histograms from different runs align.
DEFAULT_BUCKET_EDGES: tuple[float, ...] = tuple(
    10.0 ** e for e in range(-9, 13)
)


def _key(name: str, labels: dict) -> tuple:
    if not labels:
        return (name,)
    return (name,) + tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render(key: tuple) -> str:
    if len(key) == 1:
        return key[0]
    inner = ",".join(f"{k}={v}" for k, v in key[1:])
    return f"{key[0]}{{{inner}}}"


class _Unset(float):
    """Start value of a cell nobody has emitted to. ``+=`` on it gives a
    plain float and a gauge's compare-and-set stores the emitted value,
    so ``type(cell.value) is _Unset`` means "never emitted" (``+= 0.0``
    is an emit) with no first-use branch at any emit site."""

    __slots__ = ()


_ZERO, _LOWEST = _Unset(0.0), _Unset("-inf")  # a counter's / a gauge's start


class _Cell:
    """One counter or gauge series, updated in place by the site holding
    it: ``cell.value += v``, or ``if v > cell.value: cell.value = v``."""

    __slots__ = ("value",)

    def __init__(self, start: float) -> None:
        self.value = start


def _emitted(cells: dict) -> list[tuple]:
    """``(key, value)`` of the cells emitted to at least once, by key."""
    items = sorted(cells.items())  # keys are unique: cells are never compared
    return [(k, c.value) for k, c in items if type(c.value) is not _Unset]


def _readings(owner, series: dict) -> list[tuple]:
    """``(key, value)`` of ``owner``'s collected series whose guard is nonzero."""
    read = lambda r: getattr(owner, r) if type(r) is str else r(owner)
    readings = []
    for name, reader in series.items():
        value, guard = reader if type(reader) is tuple else (reader, reader)
        if read(guard):
            readings.append(((name,), float(read(value))))
    return readings


class _CellFamily(dict):
    """Cells of one name whose label values are known only at run time.
    The owner indexes it by the raw value (a tuple for several labels): a
    hit is one dict lookup, a miss binds — the only time values are stringified."""

    def __init__(self, bind, name: str, *labels: str) -> None:
        self._bind = lambda values: bind(name, **dict(zip(labels, values)))

    def __missing__(self, value) -> _Cell:
        cell = self[value] = self._bind(value if type(value) is tuple else (value,))
        return cell


class _Histogram:
    """Histogram over ``DEFAULT_BUCKET_EDGES``: per-bucket counts plus
    count/sum/min/max."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(DEFAULT_BUCKET_EDGES) + 1)  # last bucket: +inf
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(DEFAULT_BUCKET_EDGES, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def to_dict(self) -> dict:
        # only non-empty buckets, keyed by their upper edge — compact
        # and still deterministic (the edges are fixed)
        edges = DEFAULT_BUCKET_EDGES
        buckets = {}
        for i, n in enumerate(self.counts):
            if n:
                le = edges[i] if i < len(edges) else "inf"
                buckets[str(le)] = n
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }


class _Phase:
    """Accumulated virtual time of one named run phase."""

    __slots__ = ("virtual_s", "count", "_open_at")

    def __init__(self) -> None:
        self.virtual_s = 0.0
        self.count = 0
        self._open_at: Optional[float] = None


class MetricsRegistry:
    """One run's worth of labeled metrics.

    ``clock`` supplies the phase timers' notion of time; the cluster
    wires it to the engine's virtual ``now``. The default clock is a
    constant 0.0, which makes phases record zero durations — harmless
    for registries used outside a simulation.
    """

    def __init__(
        self, enabled: bool = True, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self.enabled = enabled
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._counters: dict[tuple, _Cell] = {}
        self._gauges: dict[tuple, _Cell] = {}
        self._histograms: dict[tuple, _Histogram] = {}
        self._phases: dict[str, _Phase] = {}
        #: id(owner) -> (owner, its series map), per :meth:`collect`
        self._owners: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # binding: resolve a series once, emit to the returned cell
    # ------------------------------------------------------------------
    def _bind(self, store: dict, name: str, labels: dict, new, inert):
        if not self.enabled:
            return inert
        key = _key(name, labels)
        cell = store.get(key)
        if cell is None:
            cell = store[key] = new()
        return cell

    def counter(self, name: str, **labels) -> _Cell:
        """The cell of counter ``name{labels}``: ``cell.value += v``."""
        return self._bind(self._counters, name, labels, lambda: _Cell(_ZERO), _INERT)

    def gauge(self, name: str, **labels) -> _Cell:
        """The cell of gauge ``name{labels}``: set ``cell.value``, or raise it."""
        return self._bind(self._gauges, name, labels, lambda: _Cell(_LOWEST), _INERT)

    def counters(self, name: str, *labels: str) -> _CellFamily:
        """Counters ``name{labels}`` bound at first use of a label value."""
        return _CellFamily(self.counter, name, *labels)

    def gauges(self, name: str, *labels: str) -> _CellFamily:
        """Gauges ``name{labels}`` bound at first use of a label value."""
        return _CellFamily(self.gauge, name, *labels)

    def histogram(self, name: str, **labels) -> _Histogram:
        """The histogram ``name{labels}``: ``histogram.observe(v)``."""
        if "edges" in labels:  # the removed setting must not become a label
            raise TypeError("every histogram uses DEFAULT_BUCKET_EDGES")
        return self._bind(self._histograms, name, labels, _Histogram, _INERT_HISTOGRAM)

    def collect(self, owner, series: dict) -> None:
        """Read counters off ``owner`` at every snapshot, until :meth:`release`.

        ``series`` (held, not copied) maps a counter name to its value — an
        attribute name or a function of ``owner`` — or to ``(value, guard)``.
        A series is reported while its guard, the count of the events that
        feed it (by default the value), is nonzero.
        """
        if self.enabled:
            self._owners[id(owner)] = (owner, series)

    def release(self, owner) -> None:
        """Fold ``owner``'s reading into the cells once and stop holding it."""
        entry = self._owners.pop(id(owner), None)
        if entry is not None:
            for key, value in _readings(*entry):
                self.counter(key[0]).value += value

    def _reported(self) -> list[tuple]:
        """``(key, value)`` of every reported counter, by key: emitted cells
        plus the live owners' readings, summed in collection order."""
        values = dict(_emitted(self._counters))
        for entry in self._owners.values():
            for key, value in _readings(*entry):
                values[key] = values.get(key, 0.0) + value
        return sorted(values.items())

    # ------------------------------------------------------------------
    # emission by name, for cold callers (no-ops when disabled)
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to the counter ``name{labels}``."""
        if self.enabled:
            self.counter(name, **labels).value += value

    def gauge_set(self, name: str, value: float, **labels) -> None:
        """Set the gauge ``name{labels}`` to ``value``."""
        if self.enabled:
            self.gauge(name, **labels).value = value

    def gauge_max(self, name: str, value: float, **labels) -> None:
        """Raise the gauge to ``value`` if higher (high-water marks)."""
        if self.enabled:
            cell = self.gauge(name, **labels)
            if value > cell.value:
                cell.value = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Record ``value`` into the histogram ``name{labels}``."""
        if self.enabled:
            self.histogram(name, **labels).observe(value)

    # ------------------------------------------------------------------
    # phase timers (virtual clock)
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Context manager timing one phase on the virtual clock.

        Phases accumulate: entering the same name again adds to its
        total. Nesting different names is fine; re-entering an open
        phase is an error caught by :meth:`phase_start`.
        """
        self.phase_start(name)
        try:
            yield
        finally:
            self.phase_end(name)

    def phase_start(self, name: str) -> None:
        if not self.enabled:
            return
        phase = self._phases.get(name)
        if phase is None:
            phase = self._phases[name] = _Phase()
        if phase._open_at is not None:
            raise ValueError(f"phase {name!r} started twice without ending")
        phase._open_at = self._clock()

    def phase_end(self, name: str) -> None:
        if not self.enabled:
            return
        phase = self._phases.get(name)
        if phase is None or phase._open_at is None:
            raise ValueError(f"phase {name!r} ended without a start")
        phase.virtual_s += self._clock() - phase._open_at
        phase.count += 1
        phase._open_at = None

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels) -> float:
        """Current value of one counter (0.0 if never incremented)."""
        return float(dict(self._reported()).get(_key(name, labels), 0.0))

    def gauge_value(self, name: str, **labels) -> Optional[float]:
        """Current value of one gauge (None if never set)."""
        value = getattr(self._gauges.get(_key(name, labels)), "value", _LOWEST)
        return None if type(value) is _Unset else value

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all label combinations."""
        return sum(v for k, v in self._reported() if k[0] == name)

    def __len__(self) -> int:
        """Series a snapshot would show (bound-but-untouched ones do not count)."""
        return sum(len(kind) for kind in self.snapshot().values())

    def snapshot(self) -> dict:
        """Deterministic plain-dict export of everything emitted.

        Keys are sorted and rendered ``name{k=v,...}``; the result is
        JSON-serializable and byte-stable across identical runs.
        """
        return {
            "counters": {_render(k): v for k, v in self._reported()},
            "gauges": {_render(k): v for k, v in _emitted(self._gauges)},
            "histograms": {
                _render(k): h.to_dict()
                for k, h in sorted(self._histograms.items())
                if h.count  # an empty one has min=inf, which is not JSON
            },
            "phases": {
                name: {"virtual_s": p.virtual_s, "count": p.count}
                for name, p in sorted(self._phases.items())
            },
        }


class _NullRegistry(MetricsRegistry):
    """The process-wide disabled registry: empty because it stays off."""

    def __setattr__(self, name: str, value) -> None:
        if name == "enabled" and value:
            raise AttributeError("NULL_METRICS is shared and cannot be enabled")
        super().__setattr__(name, value)


#: What a disabled registry hands out; never written (emits sit behind ``enabled``).
_INERT, _INERT_HISTOGRAM = _Cell(_ZERO), _Histogram()

#: Shared always-disabled registry — the default wiring target for
#: components constructed outside a cluster.
NULL_METRICS = _NullRegistry(enabled=False)
