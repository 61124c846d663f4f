"""Process-local telemetry metrics: counters and a high-water gauge.

The registry is write-mostly: pipeline code only ever calls ``add`` /
``set_max``; reading a value back (``snapshot``)
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
``cusum.cells_scanned``        (cell, day) positions the CUSUM scan visited
``timing_cusum.cells_scanned``  (cell, day) positions the timing scan visited
``longitudinal.epochs_run``    epochs executed by the engine
``longitudinal.epochs_resumed``  epochs adopted from checkpoints instead
``sweep.cells_forged``         adversary grid cells forged
``sweep.rows_rejudged``        rows adversary grid cells' reputation verdicts judged
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
    """The highest value seen so far (e.g. peak RSS)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class MetricsRegistry:
    """Named counters and gauges for one process."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

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
        }


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry campaign instrumentation writes to."""
    return _registry
