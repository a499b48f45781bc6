"""A fixed-interval time-series aggregator over the metrics registry.

The check daemon's :class:`~repro.obs.metrics.MetricsRegistry` is
cumulative: counters only grow, histograms only accumulate.  For a
long-lived service that is the wrong shape to answer "what is the
request rate *now*" or "what was p95 latency over the last minute" —
so the daemon's selector loop feeds its registries through a
:class:`TimeSeriesRing` once per ``interval`` seconds, and each tick
derives the *windowed* view:

* counters become **per-second rates** (value deltas over the elapsed
  interval; only counters that moved are recorded, so idle intervals
  stay tiny);
* histograms become **p50/p95/p99 snapshots** of the observations made
  *during the interval* (bucket-count deltas fed through the same
  bucket interpolation as :meth:`Histogram.quantile`), plus the
  interval's observation count and rate;
* gauges are carried at their sampled value.

Memory is bounded by construction: the ring is a ``deque(maxlen=
capacity)`` of plain-data samples, so a daemon up for a month holds
exactly as much history as one up for a minute.  Like the tracer, the
ring is **fork-safe**: samples are attributed to the creating process,
and a sample attempt from a forked child (which inherited the parent's
baseline) resets the ring instead of double-reporting the inherited
counts.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Deque, Dict, List, Optional

from .metrics import bucket_quantile

#: default seconds between samples (the daemon's ``--sample-interval``).
DEFAULT_INTERVAL = 5.0

#: default retained samples (10 minutes of history at the default
#: interval) — the window the ``telemetry`` wire op serves.
DEFAULT_CAPACITY = 120


class TimeSeriesRing:
    """Bounded history of rate/quantile samples over one registry.

    ``due()`` is the selector-loop check: it is cheap, and false until
    ``interval`` has elapsed since the last sample, so the daemon only
    builds the merged registry it samples when a sample is owed.
    ``maybe_sample(registry)`` combines the two; ``sample(registry)``
    forces a sample regardless (tests and shutdown flushes).
    ``describe()`` is the plain-data view the ``telemetry`` wire op
    returns.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL,
                 capacity: int = DEFAULT_CAPACITY):
        self.interval = max(0.0, float(interval))
        self.capacity = max(1, int(capacity))
        self._samples: Deque[Dict[str, object]] = deque(maxlen=self.capacity)
        self._prev: Optional[Dict[str, dict]] = None
        self._prev_time: float = 0.0
        self._pid = os.getpid()

    def __len__(self) -> int:
        return len(self._samples)

    def _reset(self) -> None:
        self._samples.clear()
        self._prev = None
        self._prev_time = 0.0
        self._pid = os.getpid()

    def due(self, now: Optional[float] = None) -> bool:
        """Whether the interval has elapsed (always, before the first
        sample)."""
        if now is None:
            now = time.monotonic()
        return self._prev is None or now - self._prev_time >= self.interval

    def maybe_sample(self, registry,
                     now: Optional[float] = None) -> Optional[dict]:
        """Sample iff the interval has elapsed; the sampled dict, or
        ``None`` when it is not yet time."""
        if now is None:
            now = time.monotonic()
        return self.sample(registry, now) if self.due(now) else None

    def sample(self, registry, now: Optional[float] = None) -> dict:
        """Take one sample now (establishes the baseline on first call,
        which records an empty delta)."""
        if now is None:
            now = time.monotonic()
        if os.getpid() != self._pid:
            self._reset()
        snapshot = registry.snapshot()
        dt = now - self._prev_time if self._prev is not None else 0.0
        prev = self._prev if self._prev is not None else {}
        rates: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        quantiles: Dict[str, dict] = {}
        for name, data in snapshot.items():
            kind = data.get("type")
            if kind == "counter":
                delta = data["value"] - prev.get(name, {}).get("value", 0)
                if delta:
                    rates[name] = delta / dt if dt > 0 else 0.0
            elif kind == "gauge":
                gauges[name] = data["value"]
            elif kind == "histogram":
                before = prev.get(name, {})
                delta_count = data["count"] - before.get("count", 0)
                if delta_count <= 0:
                    continue
                old = before.get("bucket_counts")
                buckets = list(data["bucket_counts"])
                if old is not None and len(old) == len(buckets):
                    buckets = [b - a for a, b in zip(old, buckets)]
                quantiles[name] = {
                    "count": delta_count,
                    "rate": delta_count / dt if dt > 0 else 0.0,
                    "p50": bucket_quantile(data["bounds"], buckets, 0.50),
                    "p95": bucket_quantile(data["bounds"], buckets, 0.95),
                    "p99": bucket_quantile(data["bounds"], buckets, 0.99),
                }
        sample = {"time": time.time(), "dt": dt, "rates": rates,
                  "gauges": gauges, "quantiles": quantiles}
        self._samples.append(sample)
        self._prev = snapshot
        self._prev_time = now
        return sample

    def window(self) -> List[dict]:
        """The retained samples, oldest first (plain JSON-safe data)."""
        return list(self._samples)

    def describe(self) -> dict:
        """The ``telemetry`` wire-op view: config plus the window."""
        return {"interval": self.interval, "capacity": self.capacity,
                "samples": self.window()}
