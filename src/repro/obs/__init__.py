"""repro.obs: write-only telemetry for campaigns (spans, metrics, traces).

The subsystem is dependency-free (stdlib only) and strictly *write-only*
with respect to the measurement pipeline: nothing the pipeline computes may
depend on a value read back from a :class:`~repro.obs.trace.Tracer` or the
:class:`~repro.obs.metrics.MetricsRegistry` — traces on vs. off must leave
every campaign row, censorship event, and BENCH ratio bit-identical.  The
``telemetry-hygiene`` repro-lint rule enforces that contract syntactically;
``tests/core/test_telemetry_equivalence.py`` pins it end to end.

Layout:

- :mod:`repro.obs.clock` — the only sanctioned wall/monotonic-clock access
  point inside ``src/repro/`` (``FrozenClock`` makes timestamps
  deterministic in tests).
- :mod:`repro.obs.trace` — ``Tracer`` writes nested span records to an
  append-only JSONL stream; ``NullTracer`` is the zero-overhead default.
- :mod:`repro.obs.metrics` — process-local counters and a peak-RSS
  gauge via ``resource.getrusage``.
- :mod:`repro.obs.report` + ``python -m repro.obs`` — summarize a trace
  tree (per-phase totals, per-shard critical path) or diff two traces.
"""

from repro.obs.clock import Clock, FrozenClock, default_clock, set_default_clock
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, progress_listener

__all__ = [
    "Clock",
    "FrozenClock",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "default_clock",
    "get_registry",
    "progress_listener",
    "set_default_clock",
]
