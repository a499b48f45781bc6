"""Unified observability for the checking pipeline and runtime monitor.

Three primitives, bundled by :class:`Telemetry`:

* :mod:`repro.obs.trace` — a span tracer exporting Chrome trace-event
  JSON (``chrome://tracing`` / Perfetto), with one track per process
  so pool workers show up beside the main checker;
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms for cache layers, scheduler decisions, worker health and
  diagnostic-code frequencies;
* :mod:`repro.obs.events` — a structured event log (the bus worker
  crashes and runtime key transitions are published on), with an
  optional size-rotated JSONL audit sink (:class:`JsonlEventWriter`).

Two service-grade derivatives feed off the registry for the check
daemon (PR 8): :mod:`repro.obs.timeseries` turns cumulative counters
and histograms into a bounded ring of per-interval rate/quantile
samples, and :mod:`repro.obs.expo` renders snapshots as Prometheus
text exposition (plus the atomic textfile writer behind ``vaultc
serve --prom-file``).  :class:`repro.obs.trace.TraceRing` is the
bounded on-disk ring the daemon's slow-request capture writes
Chrome-trace JSON into.

:mod:`repro.obs.gcscope` holds the garbage-collector policy of one
check (a raised gen-0 threshold, restored afterwards) and the
``gc.callbacks`` hook behind the per-check GC numbers in
``telemetry.profile["gc"]``.

``Telemetry()`` with no arguments is the **disabled** configuration:
the tracer and metrics are shared null singletons whose operations are
no-ops, so instrumented code costs an attribute check per callsite and
records nothing.  The event log is always live — it only sees rare
events (crashes, leaks), never per-statement traffic.

See ``docs/OBSERVABILITY.md`` for the end-to-end workflow.
"""

from __future__ import annotations

from typing import Dict, Optional

from .events import Event, EventLog, JsonlEventWriter, open_event_log
from .expo import render_exposition, validate_exposition, write_textfile
from .metrics import (LATENCY_BUCKETS, RATIO_BUCKETS, Counter, Gauge,
                      Histogram, MetricsRegistry, NULL_METRICS, NullMetrics,
                      bucket_quantile)
from .timeseries import TimeSeriesRing
from .trace import (NULL_TRACER, NullTracer, TraceRing, Tracer, activate,
                    current_tracer, validate_chrome_trace)


class Telemetry:
    """One session's observability bundle.

    ``trace=True`` records spans; ``metrics=True`` records counters
    and histograms; both default off (the null singletons).  The
    session also parks its compatibility surfaces here: ``profile``
    is the dict behind ``CheckSession.last_profile`` and ``stats`` the
    :class:`~repro.pipeline.session.SessionStats` behind
    ``CheckSession.stats``.
    """

    def __init__(self, trace: bool = False, metrics: bool = False,
                 tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None,
                 events: Optional[EventLog] = None):
        self.tracer = tracer if tracer is not None else (
            Tracer() if trace else NULL_TRACER)
        self.metrics = registry if registry is not None else (
            MetricsRegistry() if metrics else NULL_METRICS)
        self.events = events if events is not None else EventLog()
        #: phase timings / scheduler verdict of the most recent check.
        self.profile: Dict[str, object] = {}
        #: the owning session's SessionStats (set by CheckSession).
        self.stats = None

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled

    def snapshot(self) -> Dict[str, object]:
        """Everything queryable about the session, as plain data."""
        out: Dict[str, object] = {
            "profile": dict(self.profile),
            "metrics": self.metrics.snapshot(),
            "events": [{"kind": e.kind, "message": e.message,
                        "fields": dict(e.fields), "ts": e.ts, "pid": e.pid}
                       for e in self.events.records],
        }
        if self.stats is not None:
            out["stats"] = {
                name: value for name, value in vars(self.stats).items()
                if isinstance(value, (int, float))}
        return out


__all__ = [
    "Counter",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "JsonlEventWriter",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "RATIO_BUCKETS",
    "Telemetry",
    "TimeSeriesRing",
    "TraceRing",
    "Tracer",
    "activate",
    "bucket_quantile",
    "current_tracer",
    "open_event_log",
    "render_exposition",
    "validate_chrome_trace",
    "validate_exposition",
    "write_textfile",
]
