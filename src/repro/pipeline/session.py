"""The checking pipeline: incremental, cacheable, parallel.

A :class:`CheckSession` answers repeated ``check(source)`` calls the
way ``repro.check_source`` does, but re-does only the work an edit
invalidated:

* **chunked parsing** — the unit is split into top-level declaration
  chunks (:mod:`repro.pipeline.chunks`); each chunk's AST is cached by
  content hash and position, so editing one function re-parses one
  declaration, not the file;
* **context cache** — the elaborated :class:`ProgramContext` is cached
  by the tuple of chunk hashes (layered on the process-wide stdlib
  base context);
* **summary cache** — per-function diagnostics are cached under a
  stable content fingerprint of the function and everything it
  references (:mod:`repro.pipeline.fingerprint`), optionally persisted
  to disk;
* **parallel checking** — with ``jobs > 1``, uncached functions are
  packed into cost-balanced batches (:mod:`repro.pipeline.scheduler`)
  and flow-checked by a persistent fork-server worker pool
  (:mod:`repro.pipeline.workers`); results are merged in source
  (sorted qualified name) order, so the diagnostic stream is
  byte-identical to serial mode.  Below the scheduler's break-even
  point the session checks serially — ``jobs > 1`` is never slower
  than serial on small workloads;
* **shared store** — with ``shared_store=`` (a
  :class:`repro.cache.SharedStore`), summary misses batch-fetch from
  the cross-session tiers before being checked, freshly checked
  summaries are written back, and whole units replay from stored
  diagnostic streams — a *second cold session* on identical code runs
  at warm speed (see :mod:`repro.cache`).

Determinism guarantee: for any ``source``, the reporter returned by
``check`` contains the same diagnostics in the same order as
``repro.check_source(source)``, regardless of cache state or worker
count — and regardless of recoverable worker failures: the supervised
pool (:mod:`repro.pipeline.workers`) respawns crashed workers and
retries/bisects their batches, and when the pool is beyond saving the
serial fallback reuses every batch result that did complete instead of
re-checking the whole unit.  On-disk summary caches are written
atomically with a content checksum; a corrupt file is quarantined
(``summaries.pkl.corrupt.<pid>.<seq>`` — unique names with bounded
retention, so repeated corruption keeps the newest post-mortems) with
a structured ``cache_corrupt`` event and the session continues cold.
See docs/CHECKER.md ("Failure modes and recovery").
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core import build_context, check_function_diagnostics
from ..core.checker import MAX_LOOP_ITERATIONS
from ..diagnostics import Diagnostic, Reporter, VaultError
from ..obs import MetricsRegistry, Telemetry
from ..obs.gcscope import check_gc_scope
from ..obs.trace import activate as activate_tracer
from ..stdlib import stdlib_context, stdlib_source
from ..stdlib.loader import base_context_cache_info
from ..syntax import ast, parse_program, tokenize
from ..syntax.tokens import T, Token
from .chunks import Chunk, ChunkError, split_chunks
from .faults import FaultPlan
from .fingerprint import cache_checksum, function_fingerprint
from .scheduler import (BREAK_EVEN_SECONDS, DEFAULT_BATCH_TIMEOUT,
                        available_cpus, plan as plan_batches, resolve_jobs)
from .workers import WorkerCrash, WorkerPool, fork_available

#: caps on the in-memory caches; on overflow the oldest half is evicted.
_MAX_CONTEXTS = 64
_MAX_CHUNK_ASTS = 8192
#: summary/cost caches are bounded too — a session embedded in a
#: long-running daemon sees an unbounded stream of distinct sources,
#: and before these caps its summary and cost maps grew forever.
_MAX_SUMMARIES = 32768
_MAX_COSTS = 32768
#: unit-record keys this session already stored to / replayed from the
#: shared store — a warm re-check of the same source skips the shared
#: fetch (L1 serves it) instead of paying a tier round trip per check.
_MAX_SEEN_UNITS = 4096

#: quarantined ``summaries.pkl.corrupt.*`` files kept for post-mortems
#: (newest first; older ones are collected at the next quarantine).
_QUARANTINE_KEEP = 8

#: per-process quarantine sequence — combined with the pid it makes
#: every quarantine file name unique, so a second corruption can never
#: clobber the first post-mortem.
_quarantine_seq = 0

#: version 3 wraps the summaries/costs body in a checksummed envelope
#: (see ``_save_cache``) so on-disk corruption is detected and
#: quarantined instead of silently swallowed; version-1/2 payloads
#: still load (v1: summaries only, costs start empty).
_PICKLE_VERSION = 3

#: pickle-level exceptions a hostile/corrupt cache file can raise.
_CACHE_LOAD_ERRORS = (OSError, pickle.PickleError, EOFError, KeyError,
                      AttributeError, ImportError, TypeError, ValueError,
                      IndexError)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: each ``SessionStats`` field and the registry counter it reads.
STAT_COUNTERS: Dict[str, str] = {
    "checks": "session.checks",
    "context_hits": "cache.context.hits",
    "context_misses": "cache.context.misses",
    "chunk_parses": "cache.chunk_ast.misses",
    "chunk_hits": "cache.chunk_ast.hits",
    "whole_parses": "session.whole_parses",
    "functions_checked": "session.functions_checked",
    "functions_replayed": "session.functions_replayed",
    "parallel_runs": "session.parallel_runs",
    "serial_fallbacks": "workers.serial_fallbacks",
    "pool_spawns": "workers.pool_spawns",
    "fingerprints_memoized": "cache.fingerprint_memo.hits",
    "respawns": "resilience.respawns",
    "retries": "resilience.retries",
    "bisections": "resilience.bisections",
    "timeouts": "resilience.timeouts",
    "poisoned": "resilience.poisoned",
    "cache_quarantines": "resilience.cache_quarantines",
    "fallback_reused": "workers.fallback_reused",
    "shared_unit_hits": "cache.shared.unit.hits",
    "shared_unit_misses": "cache.shared.unit.misses",
    "shared_summary_hits": "cache.shared.summary.hits",
    "shared_summary_misses": "cache.shared.summary.misses",
    "shared_puts": "session.shared_puts",
}


class SessionStats:
    """A read-only view of one session's counters, for tests and
    benchmarks.

    Every counter lives in the session's metrics registry; each field
    named in :data:`STAT_COUNTERS` reads one of them (and keeps reading
    it after ``close()``).  ``last_checked``/``last_replayed`` are not
    counters: they list the qualified names that were flow-analysed
    vs. served from the summary cache by the most recent ``check``
    call.
    """

    def __init__(self, metrics: MetricsRegistry) -> None:
        self._metrics = metrics
        self.last_checked: List[str] = []
        self.last_replayed: List[str] = []

    def snapshot(self) -> Dict[str, Union[int, float]]:
        return {field: self._metrics.value(name)
                for field, name in STAT_COUNTERS.items()}

    def __repr__(self) -> str:
        return (f"SessionStats(checks={self.checks}, "
                f"ctx={self.context_hits}h/{self.context_misses}m, "
                f"chunks={self.chunk_hits}h/{self.chunk_parses}m, "
                f"functions={self.functions_replayed} replayed/"
                f"{self.functions_checked} checked)")


for _field, _name in STAT_COUNTERS.items():
    setattr(SessionStats, _field, property(
        lambda self, _name=_name: self._metrics.value(_name),
        doc=f"The ``{_name}`` counter."))
del _field, _name


class _Summary:
    """Cached diagnostics for one function fingerprint.

    A clean result (no diagnostics) replays at any position.  A dirty
    result carries spans, so it replays only for a definition at the
    same place in the same file; anywhere else the function is simply
    re-checked (a cache miss, never a wrong answer).
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        # (filename, start_line) -> tuple of diagnostics; clean results
        # are stored under the wildcard key None.
        self.entries: Dict[Optional[Tuple[str, int]],
                           Tuple[Diagnostic, ...]] = {}

    def lookup(self, filename: str, line: int
               ) -> Optional[Tuple[Diagnostic, ...]]:
        if None in self.entries:
            return self.entries[None]
        return self.entries.get((filename, line))

    def store(self, filename: str, line: int,
              diags: Tuple[Diagnostic, ...]) -> None:
        if not diags:
            self.entries.clear()
            self.entries[None] = ()
        else:
            self.entries[(filename, line)] = diags


class _CtxEntry:
    __slots__ = ("ctx", "diags", "fn_results", "env_token")

    def __init__(self, ctx, diags: Tuple[Diagnostic, ...],
                 env_token: str = ""):
        self.ctx = ctx
        self.diags = diags
        #: per-function diagnostics in merge order, filled in by the
        #: first check against this context — a later check of the
        #: byte-identical source replays without touching fingerprints.
        self.fn_results: Optional[List[Tuple[str, Tuple[Diagnostic, ...]]]] \
            = None
        #: digest of every chunk's *interface* (signatures and
        #: declarations, not function bodies) plus the session's
        #: stdlib/units configuration.  A function fingerprint computed
        #: under one env token is valid under any context with the same
        #: token, so fingerprints are memoized on the (cached) FunDef
        #: nodes keyed by it — a body edit in one chunk leaves the
        #: token unchanged and skips re-fingerprinting every other
        #: function in the unit.
        self.env_token = env_token


class CheckSession:
    """A long-lived checking pipeline with summary caching.

    Equivalent to calling :func:`repro.check_source` for every
    ``check``, but incremental across calls.  ``jobs`` > 1 enables the
    fork-based process pool (where the platform supports it);
    ``cache_dir`` persists function summaries across processes.
    """

    def __init__(self, stdlib: bool = True,
                 units: Optional[Sequence[str]] = None,
                 jobs: Union[int, str] = 1,
                 cache_dir: Optional[str] = None,
                 join_abstraction: bool = True,
                 max_loop_iterations: int = MAX_LOOP_ITERATIONS,
                 break_even_seconds: float = BREAK_EVEN_SECONDS,
                 telemetry: Optional[Telemetry] = None,
                 batch_timeout: float = DEFAULT_BATCH_TIMEOUT,
                 fault_plan: Optional[FaultPlan] = None,
                 shared_store=None):
        self.stdlib = stdlib
        self.units = tuple(units) if units is not None else None
        self.jobs = self._resolve_jobs(jobs)
        self.cache_dir = cache_dir
        self.join_abstraction = join_abstraction
        self.max_loop_iterations = max_loop_iterations
        self.break_even_seconds = break_even_seconds
        #: floor (seconds) under the per-batch watchdog deadline.
        self.batch_timeout = batch_timeout
        #: deterministic chaos schedule (tests/CI only; ``None`` in
        #: normal operation).
        self.fault_plan = fault_plan
        #: cross-session result store (:class:`repro.cache.SharedStore`)
        #: or ``None``.  The session never closes it — the owner (CLI,
        #: daemon, test) controls its lifetime.  Chaos sessions must
        #: not publish their (deliberately poisoned) results, so a
        #: fault plan disables the store.
        self.shared_store = shared_store if fault_plan is None else None
        self._shared_salt = ""
        self._seen_units: Dict[str, bool] = {}
        if self.shared_store is not None:
            from ..cache.store import options_salt
            self._shared_salt = options_salt(
                self.stdlib, self.units, join_abstraction,
                max_loop_iterations)
        #: the session's observability bundle: its registry holds every
        #: counter the session keeps; ``Telemetry(trace=True)`` adds
        #: spans.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.stats = SessionStats(self.telemetry.metrics)
        self.telemetry.stats = self.stats
        #: the front end's only incremental state: per chunk, keyed by
        #: (content hash, start line, start column), the parsed AST and
        #: the chunk's interface digest (see ``_interface_part``).  A
        #: chunk's tokens live only while it is parsed.
        self._ast_cache: Dict[Tuple[str, int, int],
                              Tuple[ast.Program, str]] = {}
        self._ctx_cache: Dict[tuple, _CtxEntry] = {}
        self._summaries: Dict[str, _Summary] = {}
        self._cost_by_qual: Dict[str, float] = {}
        self._stdlib_lines: Dict[str, List[str]] = {}
        self._pool: Optional[WorkerPool] = None
        #: set when the in-memory summaries/costs diverge from the
        #: on-disk cache; a check that replayed everything does not
        #: rewrite the (potentially large) pickle.
        self._cache_dirty = False
        if cache_dir:
            # Pre-register so a healthy run reports an explicit zero
            # (its pool-side siblings are registered at pool creation).
            self.telemetry.metrics.counter("resilience.cache_quarantines")
            self._load_cache()

    @staticmethod
    def _resolve_jobs(jobs: Union[int, str]) -> int:
        if isinstance(jobs, str):
            return resolve_jobs(jobs)
        return max(1, int(jobs))

    @property
    def last_profile(self) -> Dict[str, object]:
        """Phase timings and the scheduler's verdict for the most
        recent ``check`` call (compatibility shim; the data lives on
        :attr:`telemetry`)."""
        return self.telemetry.profile

    # -- public API --------------------------------------------------------

    def check(self, source: str, filename: str = "<input>",
              jobs: Optional[Union[int, str]] = None) -> Reporter:
        """Parse, elaborate and protocol-check one compilation unit."""
        self.stats.last_checked = []
        self.stats.last_replayed = []
        self.telemetry.metrics.counter("session.checks").inc()
        self.telemetry.profile = {}
        profile = self.telemetry.profile
        started = time.perf_counter()
        tracer = self.telemetry.tracer
        with check_gc_scope() as gc_scope:
            try:
                with activate_tracer(tracer), \
                        tracer.span("check_unit", filename=filename):
                    return self._check_inner(source, filename, jobs,
                                             profile, started)
            except BaseException as exc:
                # A crash mid-check must not masquerade as a clean
                # (empty) profile: mark it, so post-hoc consumers can
                # tell a partial record from a fast one.
                profile["aborted"] = True
                profile["error"] = f"{type(exc).__name__}: {exc}"
                self.telemetry.events.emit(
                    "check_aborted", f"check of {filename} raised: {exc}",
                    filename=filename, error=profile["error"])
                raise
            finally:
                profile["total_seconds"] = time.perf_counter() - started
                profile["gc"] = gc_scope.snapshot()

    def _check_inner(self, source: str, filename: str,
                     jobs: Optional[Union[int, str]],
                     profile: Dict[str, object],
                     started: float) -> Reporter:
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        reporter = Reporter(source, filename)
        # Shared-store unit replay: a stored record carries the unit's
        # complete diagnostic stream (stdlib + context + per-function,
        # already merged in serial order), so a hit skips parsing and
        # elaboration entirely.  Keys this session has already stored
        # or replayed skip the fetch — the in-process caches serve
        # them without a tier round trip.
        store_unit_key: Optional[str] = None
        if self.shared_store is not None:
            from ..cache.store import unit_store_key
            ukey = unit_store_key(source, filename, self._shared_salt)
            if ukey not in self._seen_units:
                store_unit_key = ukey
                record = self._shared_fetch_unit(ukey)
                if record is not None:
                    reporter.diagnostics.extend(record["diags"])
                    self._mark_unit_seen(ukey)
                    metrics.counter("cache.shared.unit.hits").inc()
                    metrics.counter("session.functions_replayed").inc(
                        record["functions"])
                    profile["plan"] = "replayed whole unit (shared store)"
                    return self._finish(reporter)
                metrics.counter("cache.shared.unit.misses").inc()
        base = None
        if self.stdlib:
            with tracer.span("stdlib_base"):
                builds_before = base_context_cache_info().misses
                base, base_diags = stdlib_context(self.units)
            if base_context_cache_info().misses == builds_before:
                metrics.counter("cache.stdlib_base.hits").inc()
            else:
                metrics.counter("cache.stdlib_base.misses").inc()
            reporter.diagnostics.extend(base_diags)
        entry = self._context_for(source, filename, base)
        profile["context_seconds"] = time.perf_counter() - started
        reporter.diagnostics.extend(entry.diags)
        if not reporter.ok:
            self._shared_store_unit(store_unit_key, reporter, 0)
            return self._finish(reporter)
        if entry.fn_results is not None:
            for qual, diags in entry.fn_results:
                reporter.diagnostics.extend(diags)
            self.stats.last_replayed = [q for q, _ in entry.fn_results]
            metrics.counter("session.functions_replayed").inc(
                len(entry.fn_results))
            metrics.counter("cache.unit_replay.hits").inc(
                len(entry.fn_results))
            profile["plan"] = "replayed whole unit"
            self._shared_store_unit(store_unit_key, reporter,
                                    len(entry.fn_results))
            return self._finish(reporter)
        check_started = time.perf_counter()
        with tracer.span("check_functions"):
            results = self._check_functions(
                entry.ctx, source, filename,
                self.jobs if jobs is None else self._resolve_jobs(jobs),
                entry.env_token)
        profile["check_seconds"] = time.perf_counter() - check_started
        entry.fn_results = results
        for qual, diags in results:
            reporter.diagnostics.extend(diags)
        if self.cache_dir and self._cache_dirty:
            self._save_cache()
            self._cache_dirty = False
        self._shared_store_unit(store_unit_key, reporter, len(results))
        return self._finish(reporter)

    def _finish(self, reporter: Reporter) -> Reporter:
        metrics = self.telemetry.metrics
        for diag in reporter.diagnostics:
            metrics.counter(f"diagnostics.{diag.code.value}").inc()
        return reporter

    def render_check(self, source: str, filename: str = "<input>",
                     jobs: Optional[Union[int, str]] = None) -> str:
        """The rendered report for ``source`` (the CLI's output)."""
        return self.check(source, filename, jobs=jobs).render()

    def close(self) -> None:
        """Shut down the worker pool (the session stays usable; a
        later parallel check simply spawns a fresh pool)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    @property
    def pool_alive(self) -> bool:
        """Whether a forked worker pool is currently resident."""
        return self._pool is not None

    def reap_idle_pool(self, max_idle_seconds: float) -> bool:
        """Tear down the worker pool if it has sat unused for
        ``max_idle_seconds`` (daemon hygiene: warm caches are cheap to
        keep, idle forked processes are not).  Returns True when a
        pool was reaped; the session stays fully usable."""
        if self._pool is not None \
                and self._pool.idle_seconds() >= max_idle_seconds:
            self.close()
            return True
        return False

    def __enter__(self) -> "CheckSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- context construction ----------------------------------------------

    def _context_for(self, source: str, filename: str, base) -> _CtxEntry:
        metrics = self.telemetry.metrics
        with self.telemetry.tracer.span("split_chunks"):
            try:
                chunks = split_chunks(source)
            except ChunkError:
                chunks = None
        if chunks:
            chunk_keys = [(_sha(c.text), c.start_line, c.start_col)
                          for c in chunks]
            key: tuple = (filename, self.units, self.stdlib,
                          tuple(chunk_keys))
        else:
            chunk_keys = []
            key = (filename, self.units, self.stdlib, _sha(source))
        entry = self._ctx_cache.get(key)
        if entry is not None:
            metrics.counter("cache.context.hits").inc()
            return entry
        metrics.counter("cache.context.misses").inc()
        programs, env_token = self._parse(source, filename, chunks,
                                          chunk_keys)
        sub = Reporter()
        with self.telemetry.tracer.span("elaborate"):
            ctx = build_context(programs, sub, base=base)
        entry = _CtxEntry(ctx, tuple(sub.diagnostics), env_token)
        if len(self._ctx_cache) >= _MAX_CONTEXTS:
            self._evict_traced(self._ctx_cache, "context")
        self._ctx_cache[key] = entry
        return entry

    def _parse(self, source: str, filename: str,
               chunks: Optional[List[Chunk]],
               chunk_keys: List[Tuple[str, int, int]]
               ) -> Tuple[List[ast.Program], str]:
        metrics = self.telemetry.metrics
        tracer = self.telemetry.tracer
        if not chunks:
            metrics.counter("session.whole_parses").inc()
            return [parse_program(source, filename)], \
                self._unit_env_token(source, filename)
        programs: List[ast.Program] = []
        iface_parts: List[str] = []
        parsed = 0
        try:
            for chunk, ckey in zip(chunks, chunk_keys):
                cached = self._ast_cache.get(ckey)
                if cached is None:
                    # Lexed once: the stream feeds the parser and the
                    # interface digest, then is dropped.
                    with tracer.span("lex", filename=filename):
                        tokens = tokenize(chunk.text, filename,
                                          chunk.start_line, chunk.start_col)
                    prog = parse_program(chunk.text, filename,
                                         first_line=chunk.start_line,
                                         first_col=chunk.start_col,
                                         tokens=tokens)
                    cached = (prog, self._interface_part(ckey, tokens))
                    parsed += 1
                    if len(self._ast_cache) >= _MAX_CHUNK_ASTS:
                        self._evict_traced(self._ast_cache, "chunk_ast")
                    self._ast_cache[ckey] = cached
                programs.append(cached[0])
                iface_parts.append(cached[1])
        except VaultError:
            # A chunk the scanner mis-split (or a genuine syntax
            # error): parse the whole unit so errors are reported
            # exactly as the non-incremental path reports them.
            self._count_chunks(parsed, len(programs))
            metrics.counter("session.whole_parses").inc()
            return [parse_program(source, filename)], \
                self._unit_env_token(source, filename)
        self._count_chunks(parsed, len(programs))
        env_token = _sha("\x00".join(iface_parts)
                         + f"\x00{filename}\x00{self.units!r}"
                           f"\x00{self.stdlib!r}")
        return programs, env_token

    def _count_chunks(self, parsed: int, seen: int) -> None:
        """Chunk-cache traffic of one unit, counted once per unit."""
        metrics = self.telemetry.metrics
        if parsed:
            metrics.counter("cache.chunk_ast.misses").inc(parsed)
        if seen > parsed:
            metrics.counter("cache.chunk_ast.hits").inc(seen - parsed)

    #: first-token kinds of chunks whose whole text is their interface
    #: (type/variant/struct/stateset/key declarations, interfaces and
    #: modules — anything that can contribute more than one signature
    #: to the context).
    _DECL_CHUNK_KINDS = frozenset({
        T.KW_INTERFACE, T.KW_MODULE, T.KW_EXTERN, T.KW_TYPE, T.KW_VARIANT,
        T.KW_STRUCT, T.KW_STATESET, T.KW_KEY,
    })

    def _interface_part(self, ckey: Tuple[str, int, int],
                        tokens: List[Token]) -> str:
        """One chunk's contribution to the context-wide env token.

        For a function-definition chunk only the header (tokens up to
        the body's opening brace — return type, name, parameters,
        effect clause) feeds the digest: body edits must not disturb
        the env token, that is the whole point of the memo.  Any chunk
        led by a declaration keyword digests its full text —
        conservative, but those chunks can define types, keys or whole
        modules whose every detail other fingerprints may see.
        """
        if tokens and tokens[0].kind in self._DECL_CHUNK_KINDS:
            return ckey[0]
        header: List[str] = []
        for tok in tokens:
            if tok.kind is T.LBRACE:
                break
            header.append(tok.text)
        return "\x1f".join(header)

    def _unit_env_token(self, source: str, filename: str) -> str:
        """Env token for the whole-unit (non-chunked) parse path."""
        return _sha(f"unit\x00{_sha(source)}\x00{filename}"
                    f"\x00{self.units!r}\x00{self.stdlib!r}")

    @staticmethod
    def _evict(cache: dict) -> None:
        for key in list(cache)[:len(cache) // 2 + 1]:
            del cache[key]

    def _evict_traced(self, cache: dict, layer: str) -> None:
        """Evict the oldest half of ``cache``, leaving a trace: a
        ``cache.<layer>.evictions`` counter and a ``cache_evict``
        event.  Before this, the summary/cost caps silently threw away
        warm state — a daemon serving an eviction-heavy workload
        looked identical to one with a healthy cache."""
        before = len(cache)
        self._evict(cache)
        evicted = before - len(cache)
        self.telemetry.metrics.counter(f"cache.{layer}.evictions").inc(evicted)
        self.telemetry.events.emit(
            "cache_evict",
            f"evicted {evicted} of {before} entries from the "
            f"{layer} cache (cap reached)",
            layer=layer, evicted=evicted, remaining=len(cache))

    # -- function checking -------------------------------------------------

    def _check_functions(self, ctx, source: str, filename: str, jobs: int,
                         env_token: str = ""
                         ) -> List[Tuple[str, Tuple[Diagnostic, ...]]]:
        """Diagnostics per function, in serial (sorted-qual) order."""
        metrics = self.telemetry.metrics
        fn_items = ctx.defined_functions()
        results: Dict[str, Tuple[Diagnostic, ...]] = {}
        to_check: List[Tuple[str, ast.FunDef, str]] = []  # qual, def, fp
        source_lines = source.splitlines()
        memoized = 0
        with self.telemetry.tracer.span("fingerprint",
                                        functions=len(fn_items)):
            for qual, fundef in fn_items:
                # A fingerprint covers the function's own text plus the
                # rendered signatures it can see; both are pinned by
                # (this FunDef object, the context's env token), so a
                # recomputation under the same pair is pure waste.  The
                # memo rides on the cached FunDef node: an edited chunk
                # parses to a fresh node and misses naturally.
                memo = fundef.__dict__.get("_pl_fp")
                if memo is not None and env_token and memo[0] == env_token:
                    fp = memo[1]
                    memoized += 1
                else:
                    fp = function_fingerprint(
                        ctx, qual, fundef,
                        self._own_text(fundef, source_lines, filename))
                    if env_token:
                        object.__setattr__(fundef, "_pl_fp",
                                           (env_token, fp))
                summary = self._summaries.get(fp)
                cached = summary.lookup(fundef.span.filename,
                                        fundef.span.start.line) \
                    if summary is not None else None
                if cached is not None:
                    results[qual] = cached
                    self.stats.last_replayed.append(qual)
                else:
                    to_check.append((qual, fundef, fp))
        if memoized:
            metrics.counter("cache.fingerprint_memo.hits").inc(memoized)
        misses = len(fn_items) - memoized
        if misses:
            metrics.counter("cache.fingerprint_memo.misses").inc(misses)
        replayed = len(fn_items) - len(to_check)
        if replayed:
            metrics.counter("cache.summary.hits").inc(replayed)
            metrics.counter("session.functions_replayed").inc(replayed)
        if to_check:
            metrics.counter("cache.summary.misses").inc(len(to_check))
        if self.shared_store is not None and to_check:
            # L1 missed these: one batched fetch against the shared
            # tiers before paying for any flow analysis.
            to_check = self._shared_fetch_summaries(to_check, results)
        if to_check:
            checked = self._run_checks(ctx, to_check, jobs)
            for (qual, fundef, fp), diags in zip(to_check, checked):
                results[qual] = diags
                self._summaries.setdefault(fp, _Summary()).store(
                    fundef.span.filename, fundef.span.start.line, diags)
                self.stats.last_checked.append(qual)
            metrics.counter("session.functions_checked").inc(len(to_check))
            self._cache_dirty = True
            if self.shared_store is not None:
                self._shared_put_summaries(to_check)
            if len(self._summaries) > _MAX_SUMMARIES:
                self._evict_traced(self._summaries, "summary")
            if len(self._cost_by_qual) > _MAX_COSTS:
                self._evict_traced(self._cost_by_qual, "costs")
        return [(qual, results[qual]) for qual, _ in fn_items]

    def _run_checks(self, ctx, to_check, jobs: int
                    ) -> List[Tuple[Diagnostic, ...]]:
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        effective_jobs = jobs if fork_available() else 1
        if self.break_even_seconds > 0 and available_cpus() < 2:
            # Workers would time-slice a single core: parallelism can
            # only lose.  (A zero break-even forces the pool anyway —
            # the tests' escape hatch for exercising the protocol.)
            effective_jobs = 1
        with tracer.span("schedule", functions=len(to_check),
                         jobs=effective_jobs):
            sched = plan_batches([(qual, fundef) for qual, fundef, _fp in
                                  to_check],
                                 effective_jobs, self._cost_by_qual,
                                 self.break_even_seconds)
        self.last_profile["plan"] = sched.describe()
        self._record_plan_metrics(sched)
        partial: Dict[str, Tuple[Tuple[Diagnostic, ...], float]] = {}
        if sched.parallel:
            try:
                return self._run_parallel(ctx, to_check, sched, jobs)
            except (WorkerCrash, OSError) as exc:
                # Even the supervised pool can be beyond saving (fork
                # failures, respawn budget exhausted).  The fallback
                # must not change the diagnostic stream — check
                # serially — but it must not vanish either (warn,
                # surface the child traceback) and it must not waste
                # the batches that *did* complete: those results ride
                # along on the exception and are reused verbatim.
                partial = dict(getattr(exc, "partial", None) or {})
                metrics.counter("workers.serial_fallbacks").inc()
                if partial:
                    metrics.counter("workers.fallback_reused").inc(
                        len(partial))
                self.telemetry.events.emit(
                    "serial_fallback",
                    f"parallel checking failed ({exc}); "
                    f"falling back to serial", error=str(exc),
                    reused=len(partial),
                    rechecked=len(to_check) - len(partial))
                print(f"repro: parallel checking failed ({exc}); "
                      f"falling back to serial", file=sys.stderr)
                child_tb = getattr(exc, "child_traceback", "")
                if child_tb:
                    print(child_tb, file=sys.stderr, end="")
                self.close()
        out: List[Tuple[Diagnostic, ...]] = []
        for qual, fundef, _fp in to_check:
            reused = partial.get(qual)
            if reused is not None:
                diags, cost = reused
                self._cost_by_qual[qual] = cost
                out.append(tuple(diags))
                continue
            started = time.perf_counter()
            with tracer.span("check_function", function=qual):
                diags = tuple(check_function_diagnostics(
                    ctx, qual, fundef,
                    join_abstraction=self.join_abstraction,
                    max_loop_iterations=self.max_loop_iterations))
            cost = time.perf_counter() - started
            self._cost_by_qual[qual] = cost
            metrics.histogram("check.function_seconds").observe(cost)
            out.append(diags)
        return out

    def _record_plan_metrics(self, sched) -> None:
        metrics = self.telemetry.metrics
        if sched.parallel:
            metrics.counter("scheduler.parallel_plans").inc()
            metrics.counter("scheduler.batches").inc(len(sched.batches))
            loads = sched.batch_costs
            if loads and min(loads) > 0:
                from ..obs.metrics import RATIO_BUCKETS
                metrics.histogram("scheduler.batch_skew",
                                  RATIO_BUCKETS).observe(
                    max(loads) / min(loads))
        elif "break-even" in sched.reason:
            metrics.counter("scheduler.break_even_serial").inc()
        else:
            metrics.counter("scheduler.serial_plans").inc()

    def _run_parallel(self, ctx, to_check, sched, jobs: int
                      ) -> List[Tuple[Diagnostic, ...]]:
        tracer = self.telemetry.tracer
        metrics = self.telemetry.metrics
        pool = self._pool
        if pool is None or not pool.matches(ctx, len(sched.batches),
                                            self.join_abstraction,
                                            self.max_loop_iterations):
            if pool is not None:
                pool.close()
            # Spawn the full requested width even when this plan has
            # fewer batches: the pool persists, and a later (larger)
            # check against the same context reuses it as-is.
            with tracer.span("pool_spawn", jobs=jobs):
                pool = WorkerPool(ctx, jobs, self.join_abstraction,
                                  self.max_loop_iterations,
                                  telemetry=self.telemetry,
                                  fault_plan=self.fault_plan,
                                  batch_timeout=self.batch_timeout)
            self._pool = pool
            metrics.counter("workers.pool_spawns").inc()
        batches = [[to_check[i][0] for i in batch]
                   for batch in sched.batches]
        with tracer.span("pool_round_trip", batches=len(batches)):
            result_map = pool.check_batches(batches, sched.batch_costs)
        if len(result_map) != len(to_check):
            raise WorkerCrash(
                f"workers returned {len(result_map)} results "
                f"for {len(to_check)} functions", partial=result_map)
        metrics.counter("session.parallel_runs").inc()
        out: List[Tuple[Diagnostic, ...]] = []
        for qual, _fundef, _fp in to_check:
            diags, cost = result_map[qual]
            self._cost_by_qual[qual] = cost
            metrics.histogram("check.function_seconds").observe(cost)
            out.append(diags)
        return out

    def _own_text(self, fundef: ast.FunDef, source_lines: List[str],
                  filename: str) -> str:
        """The exact source text of one definition (position-free)."""
        span = fundef.span
        if span.filename == filename:
            lines = source_lines
        elif span.filename.startswith("<stdlib:"):
            unit = span.filename[len("<stdlib:"):-1]
            lines = self._stdlib_lines.get(unit)
            if lines is None:
                lines = stdlib_source(unit).splitlines()
                self._stdlib_lines[unit] = lines
        else:
            return ""
        return "\n".join(lines[span.start.line - 1:span.end.line])

    # -- shared store ------------------------------------------------------

    def _mark_unit_seen(self, ukey: str) -> None:
        if len(self._seen_units) >= _MAX_SEEN_UNITS:
            self._seen_units.clear()
        self._seen_units[ukey] = True

    def _shared_fetch_unit(self, ukey: str) -> Optional[Dict[str, object]]:
        """One stored unit record, shape-validated, or ``None``."""
        with self.telemetry.tracer.span("shared_fetch_unit"):
            record = self.shared_store.fetch([ukey]).get(ukey)
        if not isinstance(record, dict):
            return None
        if not isinstance(record.get("diags"), tuple) \
                or not isinstance(record.get("functions"), int):
            return None
        return record

    def _shared_store_unit(self, ukey: Optional[str], reporter: Reporter,
                           functions: int) -> None:
        """Publish one finished unit's diagnostic stream."""
        if ukey is None or self.shared_store is None:
            return
        record = {"diags": tuple(reporter.diagnostics),
                  "functions": functions}
        with self.telemetry.tracer.span("shared_put_unit"):
            puts = self.shared_store.store({ukey: record})
        self.telemetry.metrics.counter("session.shared_puts").inc(puts)
        self._mark_unit_seen(ukey)

    def _shared_fetch_summaries(self, to_check, results
                                ) -> List[Tuple[str, ast.FunDef, str]]:
        """Batch-fetch L1 summary misses from the shared store; merge
        hits into the in-process summary map and return the functions
        the store could not serve either."""
        from ..cache.store import summary_store_key
        metrics = self.telemetry.metrics
        key_of = {fp: summary_store_key(fp, self._shared_salt)
                  for _qual, _fundef, fp in to_check}
        with self.telemetry.tracer.span("shared_fetch_summaries",
                                        keys=len(key_of)):
            fetched = self.shared_store.fetch(list(key_of.values()))
        still: List[Tuple[str, ast.FunDef, str]] = []
        hits = 0
        for qual, fundef, fp in to_check:
            entries = fetched.get(key_of[fp])
            diags = None
            if isinstance(entries, dict):
                # Union-merge: entries are keyed by (filename, line)
                # position (or the clean wildcard None), and identical
                # fingerprint + options imply identical diagnostics,
                # so keeping whichever side already has a position is
                # always sound.
                summary = self._summaries.setdefault(fp, _Summary())
                for pos, stored in entries.items():
                    if isinstance(stored, tuple) and (
                            pos is None or (isinstance(pos, tuple)
                                            and len(pos) == 2)):
                        summary.entries.setdefault(pos, stored)
                diags = summary.lookup(fundef.span.filename,
                                       fundef.span.start.line)
            if diags is not None:
                results[qual] = diags
                self.stats.last_replayed.append(qual)
                hits += 1
                self._cache_dirty = True
            else:
                still.append((qual, fundef, fp))
        if hits:
            metrics.counter("cache.shared.summary.hits").inc(hits)
            metrics.counter("session.functions_replayed").inc(hits)
        if still:
            metrics.counter("cache.shared.summary.misses").inc(len(still))
        return still

    def _shared_put_summaries(self, checked) -> None:
        """Write freshly computed summaries back to the shared tiers
        (merged with anything the fetch brought in)."""
        from ..cache.store import summary_store_key
        payload: Dict[str, object] = {}
        for _qual, _fundef, fp in checked:
            summary = self._summaries.get(fp)
            if summary is not None:
                payload[summary_store_key(fp, self._shared_salt)] = \
                    dict(summary.entries)
        if payload:
            with self.telemetry.tracer.span("shared_put_summaries",
                                            keys=len(payload)):
                puts = self.shared_store.store(payload)
            self.telemetry.metrics.counter("session.shared_puts").inc(puts)

    # -- persistence -------------------------------------------------------

    def _cache_path(self) -> str:
        return os.path.join(self.cache_dir, "summaries.pkl")

    def _load_cache(self) -> None:
        """Load the on-disk summary cache, degrading loudly.

        A missing file is a cold cache (no event).  Anything that
        fails to parse or checksum is **quarantined**: moved aside to
        ``summaries.pkl.corrupt`` (preserved for post-mortems), a
        structured ``cache_corrupt`` event is emitted with the
        exception and path, and the session continues cold.  A
        recognized-but-unsupported version is left in place but still
        reported (``cache_incompatible``) — no failure mode is a
        silent ``return`` anymore.
        """
        path = self._cache_path()
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return                                 # cold cache: normal
        except _CACHE_LOAD_ERRORS as exc:
            self._quarantine_cache(path, exc)
            return
        # Decode into fresh dicts and commit only on full success, so
        # a half-corrupt payload cannot leave the session with partial
        # (and potentially inconsistent) cache state.
        try:
            version = payload.get("version")
            if version == _PICKLE_VERSION:
                body_bytes = payload["data"]
                if cache_checksum(body_bytes) != payload["sha256"]:
                    raise ValueError(
                        "cache checksum mismatch (torn write or bit rot)")
                body = pickle.loads(body_bytes)
            elif version in (1, 2):                # legacy, pre-checksum
                body = payload
            else:
                self.telemetry.events.emit(
                    "cache_incompatible",
                    f"summary cache {path} has unsupported version "
                    f"{version!r}; starting cold (file left in place)",
                    path=path, version=version)
                return
            summaries: Dict[str, _Summary] = {}
            for fp, entries in body["summaries"].items():
                summary = _Summary()
                summary.entries = dict(entries)
                summaries[fp] = summary
            costs = {qual: float(cost)
                     for qual, cost in body.get("costs", {}).items()}
        except _CACHE_LOAD_ERRORS as exc:
            self._quarantine_cache(path, exc)
            return
        self._summaries.update(summaries)
        self._cost_by_qual.update(costs)

    def _quarantine_cache(self, path: str, exc: BaseException) -> None:
        """Move a corrupt cache file aside and publish the failure.

        Quarantine names are unique (``.corrupt.<pid>.<seq>``) so a
        second corruption cannot clobber the first post-mortem, with
        bounded retention: only the newest ``_QUARANTINE_KEEP``
        quarantined files survive each new quarantine."""
        global _quarantine_seq
        _quarantine_seq += 1
        quarantined: Optional[str] = \
            f"{path}.corrupt.{os.getpid()}.{_quarantine_seq}"
        try:
            os.replace(path, quarantined)
        except OSError:
            quarantined = None                # even the move failed
        else:
            self._prune_quarantines(path)
        self.telemetry.metrics.counter("resilience.cache_quarantines").inc()
        error = f"{type(exc).__name__}: {exc}"
        self.telemetry.events.emit(
            "cache_corrupt",
            f"summary cache {path} is corrupt ({error}); "
            + (f"quarantined to {quarantined} and rebuilding cold"
               if quarantined else
               "quarantine failed, rebuilding cold anyway"),
            path=path, error=error, quarantined=quarantined)
        print(f"repro: summary cache {path} is corrupt ({error}); "
              f"rebuilding cold", file=sys.stderr)

    @staticmethod
    def _prune_quarantines(path: str) -> None:
        """Keep only the newest ``_QUARANTINE_KEEP`` quarantined
        copies of ``path`` (``.corrupt`` and ``.corrupt.<pid>.<seq>``
        alike), deleting older ones — post-mortems stay available
        without the cache directory growing without bound."""
        directory = os.path.dirname(path) or "."
        prefix = os.path.basename(path) + ".corrupt"
        try:
            names = [name for name in os.listdir(directory)
                     if name.startswith(prefix)]
        except OSError:
            return
        stamped: List[Tuple[float, str]] = []
        for name in names:
            full = os.path.join(directory, name)
            try:
                stamped.append((os.stat(full).st_mtime, full))
            except OSError:
                continue
        stamped.sort(key=lambda item: (item[0], item[1]), reverse=True)
        for _mtime, full in stamped[_QUARANTINE_KEEP:]:
            try:
                os.unlink(full)
            except OSError:
                pass

    def _save_cache(self) -> None:
        """Atomically persist the summary cache: unique temp file,
        fsync, rename — with a content checksum over the body so the
        next load can prove it read what this process wrote."""
        body = pickle.dumps({
            "summaries": {fp: s.entries for fp, s in self._summaries.items()},
            "costs": dict(self._cost_by_qual),
        }, protocol=pickle.HIGHEST_PROTOCOL)
        payload = {
            "version": _PICKLE_VERSION,
            "sha256": cache_checksum(body),
            "data": body,
        }
        path = self._cache_path()
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            self.telemetry.events.emit(
                "cache_write_failed",
                f"could not persist summary cache to {path}: {exc}",
                path=path, error=f"{type(exc).__name__}: {exc}")
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        if self.fault_plan is not None and self.fault_plan.take_cache_flip():
            offset = self.fault_plan.flip_file_byte(path)
            self.telemetry.events.emit(
                "fault_injected",
                f"flipped byte {offset} of {path} (injected fault)",
                fault="flip-cache", path=path, offset=offset)
