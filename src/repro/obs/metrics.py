"""Process-local telemetry metrics: counters, gauges, histograms.

The registry is write-mostly: pipeline code only ever calls ``add`` /
``set`` / ``set_max`` / ``observe``; reading a value back (``snapshot``)
is reserved for the obs layer itself, tests, and benchmarks — the
``telemetry-hygiene`` lint rule bans read-backs inside ``src/repro/`` so
telemetry can never steer a campaign (observer-effect ban).

Metric names in use across the tree (dotted, lowercase):

=============================  =====================================================
``store.rows_ingested``        rows appended to a :class:`MeasurementStore`
``store.rows_adopted``         rows arriving via segment adoption (shard merge)
``store.segments_sealed``      pending chunks sealed into columnar segments
``store.segments_spilled``     segments written to ``.npz`` spill files
``store.segments_adopted``     spilled/resident segments adopted zero-copy
``store.fold_advances``        fold-once query watermark advances
``store.segments_folded``      segments folded into incremental count state
``store.query_folds``          segment/pending chunks the query kernel folded
``store.client_codes_encoded``  rows whose client identity code was computed
``store.client_codes_reused``   rows whose codes an adopter took from its source
``runner.blocks_planned``      visit blocks planned from scratch
``runner.blocks_replayed``     visit blocks replayed from the plan cache
``cusum.cells_scanned``        (cell, day) positions the CUSUM scan visited
``timing_cusum.cells_scanned``  (cell, day) positions the timing scan visited
``longitudinal.epochs_run``    epochs executed by the engine
``longitudinal.epochs_resumed``  epochs adopted from checkpoints instead
``sweep.cells_forged``         adversary grid cells forged
``process.peak_rss_kb``        gauge: ``ru_maxrss`` of this process
=============================  =====================================================
"""

from __future__ import annotations

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (e.g. peak RSS)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """A bounded summary of observations: count / total / min / max.

    Full reservoirs are overkill for the repro's needs; the four running
    aggregates are enough for rows/sec and per-phase cost reporting while
    keeping ``observe`` O(1) and allocation-free.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value


class MetricsRegistry:
    """Named counters, gauges, and histograms for one process."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- write API (safe anywhere) -------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    def update_peak_rss(self) -> None:
        """Refresh ``process.peak_rss_kb`` from ``getrusage`` (write-only)."""
        if resource is None:  # pragma: no cover - non-POSIX
            return
        peak_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        self.gauge("process.peak_rss_kb").set_max(peak_kb)

    def reset(self) -> None:
        """Drop every instrument (test isolation only)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- read API (obs layer, tests, and benchmarks only) --------------
    def snapshot(self) -> dict:
        """A JSON-ready copy of every instrument, sorted by name.

        Never call this from ``src/repro/`` outside ``obs/`` — the
        ``telemetry-hygiene`` rule flags it as an observer-effect leak.
        """
        return {
            "counters": {
                name: self._counters[name].value for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min if h.count else 0.0,
                    "max": h.max if h.count else 0.0,
                }
                for name, h in sorted(self._histograms.items())
            },
        }


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry campaign instrumentation writes to."""
    return _registry
