"""The garbage-collector policy of one check.

A check allocates hundreds of thousands of small container objects
(tokens, positions, spans, AST nodes, flow states) that live until the
check ends and form no reference cycles, so the cyclic collector finds
nothing to free.  At CPython's default gen-0 threshold of 700 it still
runs hundreds of times per large check, promoting the survivors and
rescanning them in every older-generation pass.  :func:`check_gc_scope`
raises the gen-0 threshold to :data:`CHECK_GEN0_THRESHOLD` while a
check runs and restores the caller's thresholds afterwards.

The scope is reentrant and thread-safe: a depth counter under a lock
lets only the outermost entry save and restore the thresholds, so
nested checks and concurrent checks on other threads restore exactly
once.  It never lowers a caller's larger (or disabled, ``0``) gen-0
threshold and never calls ``gc.enable()``.  A process forked inside a
scope (a worker pool) keeps the raised threshold.

The outermost scope also installs a ``gc.callbacks`` hook counting
collections and their pause time; :meth:`GCScope.snapshot` reports
what the hook saw since that entry (``vaultc check --profile``'s
``gc`` row).  See docs/CHECKER.md, "Memory and GC".
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

#: gen-0 threshold while a check runs (CPython's default is 700).
CHECK_GEN0_THRESHOLD = 100_000

_lock = threading.Lock()
_depth = 0
_saved: Optional[Tuple[int, ...]] = None
#: cumulative counters of the hook: pause seconds, collections,
#: gen-2 collections.  Entries read deltas, so they are never reset.
_totals = [0.0, 0, 0]
_gc_started = 0.0


def _on_gc(phase: str, info: dict) -> None:
    global _gc_started
    if phase == "start":
        _gc_started = time.perf_counter()
        return
    _totals[0] += time.perf_counter() - _gc_started
    _totals[1] += 1
    if info.get("generation") == 2:
        _totals[2] += 1


class GCScope:
    """What the collector did since one entry of the scope."""

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = tuple(_totals)

    def snapshot(self) -> Dict[str, float]:
        """``pause_seconds``, ``collections`` and
        ``gen2_collections`` since the entry.  Concurrent scopes share
        the hook, so another thread's collections count here too."""
        pause, collections, gen2 = (now - then for now, then
                                    in zip(_totals, self._start))
        return {"pause_seconds": pause, "collections": collections,
                "gen2_collections": gen2}


@contextmanager
def check_gc_scope() -> Iterator[GCScope]:
    """Run a check under the raised gen-0 threshold (see the module
    docstring); yields a :class:`GCScope` for the GC statistics."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = gc.get_threshold()
            if 0 < _saved[0] < CHECK_GEN0_THRESHOLD:
                gc.set_threshold(CHECK_GEN0_THRESHOLD, *_saved[1:])
            gc.callbacks.append(_on_gc)
        _depth += 1
        scope = GCScope()
    try:
        yield scope
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                gc.set_threshold(*_saved)
                _saved = None
                if _on_gc in gc.callbacks:
                    gc.callbacks.remove(_on_gc)
