"""Per-layer tracing from outside the package under test.

:meth:`Recorder.install` wraps the public entry point of each layer --
at every module-level name and class attribute bound to it, so the
wrapper sits exactly where callers look the function up -- and hooks
``gc.callbacks``.  Nothing inside ``src/`` changes.

Every wrapped call is one span: layer, thread, id, parent id, start,
duration, self time (duration minus the time its child spans cover)
and up to ``N_COUNTS`` work counts.  Spans and GC pauses go into
``array('d')`` buffers: compact, and invisible to the cyclic GC whose
pauses they measure.  :meth:`Recorder.aggregate` sums them over a time
window (``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and
so comparable across the benchmark's processes), and
:meth:`Recorder.chrome_events` turns them into Chrome trace events.

A target that no longer exists (a later change deleted the layer) is
skipped and listed in :attr:`Recorder.missing`; its metrics read 0.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import os
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

N_COUNTS = 6
_FIELDS = 7 + N_COUNTS          # layer, tid, id, parent, t0, dur, self
#: spans kept per process; later spans are only counted as dropped.
MAX_SPANS = 300_000
#: span events written to a Chrome trace per process.
MAX_EXPORTED = 20_000


def _none(_args, _kwargs, _result, _before):
    return ()


def _session_snapshot(args, _kwargs):
    stats = args[0].stats
    return (stats.context_hits, stats.context_misses,
            stats.functions_checked, stats.functions_replayed,
            stats.shared_unit_hits, stats.shared_unit_misses)


def _session_delta(_args, _kwargs, _result, before):
    after = _session_snapshot(_args, _kwargs)
    return tuple(a - b for a, b in zip(after, before))


def _ast_pool():
    intern = sys.modules.get("repro.syntax.intern")
    return getattr(intern, "AST_POOL", None) if intern else None


def _pool_snapshot(_args, _kwargs):
    pool = _ast_pool()
    return (pool.hits, pool.misses) if pool is not None else (0, 0)


def _pool_delta(args, kwargs, _result, before):
    after = _pool_snapshot(args, kwargs)
    return (after[0] - before[0], after[1] - before[1])


#: layer -> (module, attribute path, snapshot-before, counts-after).
#: Counts are what the span adds to the layer's work counters.
TARGETS: Dict[str, Tuple[str, str, Optional[Callable], Callable]] = {
    "stdlib.base": ("repro.stdlib.loader", "stdlib_context", None, _none),
    "syntax.lex": ("repro.syntax.lexer", "tokenize", None,
                   lambda a, k, r, b: (len(r),)),
    "syntax.relex": ("repro.syntax.relex", "relex", None,
                     lambda a, k, r, b: (1, int(r is not None))),
    "syntax.parse": ("repro.syntax.parser", "parse_program",
                     _pool_snapshot, _pool_delta),
    "pipeline.chunks.split": ("repro.pipeline.chunks", "split_chunks",
                              None, _none),
    "core.program.build_context": ("repro.core.program", "build_context",
                                   None, _none),
    "core.checker.check": ("repro.core.checker", "Checker.check_function",
                           None, lambda a, k, r, b: (1,)),
    "pipeline.fingerprint": ("repro.pipeline.fingerprint",
                             "function_fingerprint", None,
                             lambda a, k, r, b: (1,)),
    "pipeline.scheduler.plan": ("repro.pipeline.scheduler", "plan", None,
                                _none),
    "pipeline.workers.spawn": ("repro.pipeline.workers",
                               "WorkerPool.__init__", None, _none),
    "pipeline.workers.wait": ("repro.pipeline.workers",
                              "WorkerPool.check_batches", None,
                              lambda a, k, r, b: (
                                  sum(len(q) for q in a[1]),)),
    "pipeline.session.open": ("repro.pipeline.session",
                              "CheckSession.__init__", None, _none),
    "pipeline.session.check": ("repro.pipeline.session",
                               "CheckSession.check", _session_snapshot,
                               _session_delta),
    "cache.shared.get": ("repro.cache.store", "SharedStore.get_blobs",
                         None, _none),
    "cache.shared.put": ("repro.cache.store", "SharedStore.put_blobs",
                         None, _none),
    "diagnostics.render": ("repro.diagnostics.reporter", "Reporter.render",
                           None, _none),
    "server.protocol.encode": ("repro.server.protocol", "encode_frame",
                               None, lambda a, k, r, b: (len(r),)),
    # The one decoder under both public readers (``recv_frame`` on the
    # client, ``split_frames`` in the daemon); wrapping those instead
    # would charge socket waits to decoding.
    "server.protocol.decode": ("repro.server.protocol", "_decode_payload",
                               None, lambda a, k, r, b: (len(a[0]),)),
}
LAYERS: Tuple[str, ...] = tuple(TARGETS)


class Recorder:
    """Spans and GC pauses of one process."""

    def __init__(self) -> None:
        self.spans = array("d")
        self.gc_events = array("d")          # start, duration, generation
        self.dropped = 0
        self.missing: List[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._gc_started = 0.0
        self._installed: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable, before: Optional[Callable],
             counts: Callable) -> Callable:
        index = float(LAYERS.index(layer))
        recorder = self

        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            snap = before(args, kwargs) if before is not None else None
            start = time.perf_counter()
            work = ()
            try:
                result = fn(*args, **kwargs)
                work = counts(args, kwargs, result, snap)
                return result
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                recorder.record(index, span_id, parent, start, duration,
                                duration - frame[1], work)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def record(self, layer: float, span_id: int, parent: int, start: float,
               duration: float, self_time: float,
               counts: Sequence[float] = ()) -> None:
        if len(self.spans) >= MAX_SPANS * _FIELDS:
            self.dropped += 1
            return
        row = [layer, float(threading.get_ident() & 0xFFFFFFFF),
               float(span_id), float(parent), start, duration, self_time]
        row.extend(counts)
        row.extend([0.0] * (_FIELDS - len(row)))
        self.spans.extend(row)

    # -- GC ------------------------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_events.extend(
                (self._gc_started, time.perf_counter() - self._gc_started,
                 float(info.get("generation", 0))))

    # -- install -------------------------------------------------------------

    def install(self) -> "Recorder":
        """Wrap every target that exists and hook the GC.  Imports the
        targets' modules first, so call it after the package is on
        ``sys.path`` and before the work to be traced."""
        for layer, (module_name, path, before, counts) in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
                owner = module
                *outer, attr = path.split(".")
                for name in outer:
                    owner = getattr(owner, name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(layer)
                continue
            wrapper = self.wrap(layer, original, before, counts)
            if outer:
                setattr(owner, attr, wrapper)
                self._installed.append((owner, attr, original))
                continue
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._installed.append((mod, name, original))
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- reading -------------------------------------------------------------

    def rows(self):
        spans = self.spans
        for i in range(0, len(spans), _FIELDS):
            yield spans[i:i + _FIELDS]

    def aggregate(self, t0: float = float("-inf"),
                  t1: float = float("inf")) -> dict:
        """Per-layer self seconds, total seconds, span count and work
        counts, plus GC totals, over spans that start in ``[t0, t1)``."""
        layers = {name: {"self_s": 0.0, "total_s": 0.0, "spans": 0,
                         "counts": [0.0] * N_COUNTS} for name in LAYERS}
        for row in self.rows():
            if not t0 <= row[4] < t1:
                continue
            entry = layers[LAYERS[int(row[0])]]
            entry["self_s"] += row[6]
            entry["total_s"] += row[5]
            entry["spans"] += 1
            for k in range(N_COUNTS):
                entry["counts"][k] += row[7 + k]
        pauses = [(self.gc_events[i + 1], self.gc_events[i + 2])
                  for i in range(0, len(self.gc_events), 3)
                  if t0 <= self.gc_events[i] < t1]
        return {"layers": layers,
                "gc": {"pause_s": sum(p for p, _g in pauses),
                       "collections": len(pauses),
                       "gen2_collections": sum(1 for _p, g in pauses
                                               if g == 2),
                       "max_pause_s": max((p for p, _g in pauses),
                                          default=0.0)},
                "dropped": self.dropped, "missing": list(self.missing)}

    def chrome_events(self, process: str) -> List[dict]:
        """Chrome trace events ("X" spans, GC pauses as "gc.pause")."""
        pid = os.getpid()
        events: List[dict] = [{"name": "process_name", "ph": "M", "ts": 0,
                               "pid": pid, "args": {"name": process}}]
        for row in itertools.islice(self.rows(), MAX_EXPORTED):
            events.append({
                "name": LAYERS[int(row[0])],
                "ph": "X", "ts": row[4] * 1e6, "dur": row[5] * 1e6,
                "pid": pid, "tid": int(row[1]),
                "args": {"id": int(row[2]), "parent": int(row[3]),
                         "self_us": row[6] * 1e6}})
        for i in range(0, min(len(self.gc_events), 3 * MAX_EXPORTED), 3):
            events.append({
                "name": "gc.pause", "ph": "X",
                "ts": self.gc_events[i] * 1e6,
                "dur": self.gc_events[i + 1] * 1e6, "pid": pid, "tid": 0,
                "args": {"generation": int(self.gc_events[i + 2])}})
        return events

