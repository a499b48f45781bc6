"""A supervised fork-server worker pool for parallel flow checking.

Workers are forked **once** per elaborated context and stay warm for
subsequent ``check()`` calls against that context — they inherit the
context, the interned type tables and the warmed-up bytecode through
fork, so nothing is pickled on the way in.  The unit of communication
is a **batch** (one length-prefixed pickle frame out with a dispatch
id and a list of qualified names, one frame back with all results)
over plain ``os.pipe`` pairs — no locks, no feeder threads, no shared
queues.

The parent side is a *supervisor*, not a bare dispatcher.  A worker
failure used to abandon parallelism for a full serial re-check of
everything; now the pool degrades in the smallest possible steps:

* a worker that exits, hangs past its deadline, or desyncs its result
  stream is SIGKILLed, reaped (all of its pipe fds closed — no fd leak
  across crash/respawn cycles) and **respawned**, and its batch is
  retried under a fresh dispatch id;
* a batch that fails repeatedly is **bisected** — split in half and
  requeued — so a single poisonous function is isolated in
  ``O(log n)`` failed dispatches while every other function keeps
  checking in parallel;
* an isolated single function gets one final attempt in the parent;
  if even that raises, the function is reported as a structured
  ``V0500`` diagnostic (plus a ``poison_function`` event) instead of
  sinking the run;
* only when recovery is hopeless — the respawn budget is exhausted,
  a fork fails, or too many distinct functions crash the checker —
  does the pool give up, raising :class:`WorkerCrash` that carries the
  **partial results** of every batch that did complete, so the
  session's serial fallback re-checks only what is actually missing.

Each step is published on the session's event log (``worker_respawn``,
``worker_timeout``, ``batch_retry``, ``batch_bisect``,
``poison_function``/``poison_recovered``) and counted under the
``resilience.*`` metrics, so a degraded run is visible and
attributable after the fact.

Deadlines come from the scheduler's cost model
(:func:`repro.pipeline.scheduler.batch_deadline`): a batch may take a
generous multiple of its estimated cost, never less than the
``--batch-timeout`` floor.

Each worker counts into its own metrics registry and, when the
session traces, records its own spans (per-function
``check_function``); it ships both back as deltas in the ``ok``
result frame and the parent absorbs them, so one Chrome trace shows
the main process and every worker as separate pid tracks.  The
:mod:`repro.pipeline.faults` harness hooks into the worker loop
(dispatch-keyed crash/hang/EOF/garbage faults, per-function poison)
to make every recovery path above deterministically testable.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import struct
import time
import traceback
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core import check_function_diagnostics
from ..diagnostics import Code, Diagnostic
from ..obs import (EventLog, MetricsRegistry, NULL_TRACER,
                   Telemetry, Tracer)
from ..obs.trace import activate as activate_tracer
from .faults import FaultPlan
from .scheduler import DEFAULT_BATCH_TIMEOUT, batch_deadline

_HEADER = struct.Struct("!I")

#: dispatches of one batch before the supervisor stops retrying it
#: as-is and bisects (or, at one function, serializes) it.
MAX_BATCH_ATTEMPTS = 2

#: worker respawns per ``check_batches`` call before the pool gives
#: up and surfaces a :class:`WorkerCrash` with partial results.
MAX_RESPAWNS = 8

#: distinct functions allowed to crash the checker before the pool
#: concludes the problem is not the functions and gives up.
MAX_POISONED = 3

#: reply payloads above this are treated as stream corruption.
_MAX_FRAME = 1 << 30

#: how long a hang-injected worker sleeps (the watchdog kills it long
#: before; the constant only bounds an unsupervised escape).
_HANG_SECONDS = 600.0

#: counters pre-registered at pool creation so no-fault runs report
#: explicit zeros (the benchmark and ``vaultc stats`` read them).
RESILIENCE_COUNTERS = ("resilience.respawns", "resilience.retries",
                       "resilience.bisections", "resilience.timeouts",
                       "resilience.poisoned")


class WorkerCrash(RuntimeError):
    """The pool could not recover; carries the child traceback (when
    one exists) and the partial results of batches that completed."""

    def __init__(self, message: str, child_traceback: str = "",
                 partial: Optional[Dict[str, Tuple[Tuple[Diagnostic, ...],
                                                   float]]] = None):
        super().__init__(message)
        self.child_traceback = child_traceback
        self.partial = dict(partial) if partial else {}


class _GiveUp(Exception):
    """Internal: recovery is hopeless, unwind to the serial fallback."""

    def __init__(self, reason: str, child_traceback: str = ""):
        super().__init__(reason)
        self.reason = reason
        self.child_traceback = child_traceback


def fork_available() -> bool:
    return hasattr(os, "fork") and hasattr(os, "pipe")


# -- framed pipe I/O ---------------------------------------------------------

def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exact(fd: int, n: int) -> Optional[bytes]:
    parts: List[bytes] = []
    remaining = n
    while remaining:
        chunk = os.read(fd, remaining)
        if not chunk:
            return None          # EOF: the other end is gone
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def _write_frame(fd: int, obj: object) -> None:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    _write_all(fd, _HEADER.pack(len(payload)) + payload)


def _read_frame(fd: int) -> Optional[object]:
    header = _read_exact(fd, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    payload = _read_exact(fd, length)
    if payload is None:
        return None
    return pickle.loads(payload)


# -- the worker side ---------------------------------------------------------

def _worker_loop(ctx, cmd_fd: int, result_fd: int,
                 join_abstraction: bool, max_loop_iterations: int,
                 trace: bool,
                 fault_plan: Optional[FaultPlan] = None) -> None:
    """Runs in the forked child until told to exit (never returns)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    pid = os.getpid()
    tracer = Tracer(process_name=f"checker worker {pid}") if trace \
        else NULL_TRACER
    metrics = MetricsRegistry()
    events = EventLog()
    with activate_tracer(tracer):
        while True:
            message = _read_frame(cmd_fd)
            if message is None or message[0] == "exit":
                os._exit(0)
            _tag, dispatch_id, quals = message
            fault = fault_plan.dispatch_fault(dispatch_id) \
                if fault_plan else None
            if fault == "crash":
                os._exit(9)
            if fault == "hang":
                time.sleep(_HANG_SECONDS)
                os._exit(9)
            if fault == "eof":
                os.close(result_fd)
                os._exit(0)
            if fault == "garbage":
                _write_all(result_fd, _HEADER.pack(24) + b"\xde\xad" * 12)
                continue
            results: List[Tuple[str, Tuple[Diagnostic, ...], float]] = []
            qual = "<none>"
            try:
                with tracer.span("worker_batch", functions=len(quals)):
                    for qual in quals:
                        if fault_plan is not None \
                                and fault_plan.poisoned(qual):
                            os._exit(11)
                        started = time.perf_counter()
                        with tracer.span("check_function", function=qual):
                            diags = check_function_diagnostics(
                                ctx, qual, ctx.fun_defs[qual],
                                join_abstraction=join_abstraction,
                                max_loop_iterations=max_loop_iterations)
                        cost = time.perf_counter() - started
                        metrics.counter("workers.functions_checked").inc()
                        metrics.histogram(
                            "check.function_seconds").observe(cost)
                        results.append((qual, tuple(diags), cost))
                obs = {"events": events.drain(),
                       "spans": tracer.drain(),
                       "metrics": metrics.drain()}
                _write_frame(result_fd, ("ok", dispatch_id, results, obs))
            except BaseException:
                try:
                    _write_frame(result_fd, ("err", dispatch_id, qual,
                                             traceback.format_exc()))
                except BaseException:
                    os._exit(1)


class _Worker:
    __slots__ = ("pid", "cmd_fd", "result_fd", "buf")

    def __init__(self, pid: int, cmd_fd: int, result_fd: int):
        self.pid = pid
        self.cmd_fd = cmd_fd
        self.result_fd = result_fd
        self.buf = b""

    def close_fds(self) -> None:
        """Close both parent-side pipe ends exactly once; safe to call
        repeatedly and after partial failures."""
        for attr in ("cmd_fd", "result_fd"):
            fd = getattr(self, attr)
            if fd >= 0:
                setattr(self, attr, -1)
                try:
                    os.close(fd)
                except OSError:
                    pass


class _BatchJob:
    """One unit of supervised work: a list of quals plus its retry
    history and estimated cost (the watchdog deadline's input)."""

    __slots__ = ("quals", "cost", "attempts")

    def __init__(self, quals: List[str], cost: Optional[float],
                 attempts: int = 0):
        self.quals = list(quals)
        self.cost = cost
        self.attempts = attempts


class _RunState:
    """Book-keeping for one supervised ``check_batches`` call."""

    __slots__ = ("queue", "results", "poisoned", "busy", "idle", "sel",
                 "last_child_tb")

    def __init__(self, sel: selectors.BaseSelector):
        self.queue: Deque[_BatchJob] = deque()
        self.results: Dict[str, Tuple[Tuple[Diagnostic, ...], float]] = {}
        self.poisoned: set = set()
        #: worker -> (job, dispatch_id, absolute deadline)
        self.busy: Dict[_Worker, Tuple[_BatchJob, int, float]] = {}
        self.idle: List[_Worker] = []
        self.sel = sel
        self.last_child_tb = ""


#: sentinels for the incremental frame reader.
_PARTIAL = object()
_CORRUPT = object()


# -- the parent side ---------------------------------------------------------

class WorkerPool:
    """``jobs`` forked checkers bound to one elaborated context.

    The pool holds a strong reference to the context it was forked
    with: the session reuses the pool only while checking against the
    *same* context object and discards it when the context changes (an
    edit produced a new elaboration the children have never seen).
    """

    def __init__(self, ctx, jobs: int,
                 join_abstraction: bool, max_loop_iterations: int,
                 telemetry: Optional[Telemetry] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 batch_timeout: float = DEFAULT_BATCH_TIMEOUT):
        self.ctx = ctx
        self.jobs = jobs
        self.join_abstraction = join_abstraction
        self.max_loop_iterations = max_loop_iterations
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.fault_plan = fault_plan
        self.batch_timeout = batch_timeout
        self._workers: List[_Worker] = []
        self._closed = False
        self._dispatch_seq = 0
        self._respawns = 0
        #: when this pool last did (or finished) work — long-lived
        #: hosts (the check daemon) reap pools idle past a linger.
        self.last_used = time.monotonic()
        for name in RESILIENCE_COUNTERS:
            self.telemetry.metrics.counter(name)
        try:
            for _ in range(jobs):
                self._spawn_one()
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------------

    def _spawn_one(self) -> _Worker:
        cmd_r, cmd_w = os.pipe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            # Child: drop the parent ends — ours and every previously
            # spawned sibling's, so a sibling's pipes see EOF as soon
            # as the parent alone closes them.
            try:
                os.close(cmd_w)
                os.close(result_r)
                for sibling in self._workers:
                    for fd in (sibling.cmd_fd, sibling.result_fd):
                        if fd >= 0:
                            os.close(fd)
                _worker_loop(self.ctx, cmd_r, result_w,
                             self.join_abstraction,
                             self.max_loop_iterations,
                             self.telemetry.tracer.enabled,
                             self.fault_plan)
            finally:
                os._exit(1)
        os.close(cmd_r)
        os.close(result_w)
        worker = _Worker(pid, cmd_w, result_r)
        self._workers.append(worker)
        return worker

    def matches(self, ctx, jobs: int, join_abstraction: bool,
                max_loop_iterations: int) -> bool:
        """Can this pool serve a request with these parameters?"""
        return (not self._closed
                and ctx is self.ctx
                and jobs <= len(self._workers)
                and join_abstraction == self.join_abstraction
                and max_loop_iterations == self.max_loop_iterations)

    def close(self) -> None:
        """Shut workers down.  Idempotent, and robust to children that
        already died (or were reaped) before or during the close."""
        if self._closed:
            return
        self._closed = True
        workers, self._workers = self._workers, []
        for worker in workers:
            if worker.cmd_fd >= 0:
                try:
                    _write_frame(worker.cmd_fd, ("exit",))
                except OSError:
                    pass
            worker.close_fds()
        for worker in workers:
            self._reap(worker)

    @staticmethod
    def _reap(worker: _Worker, patience: float = 5.0) -> None:
        if worker.pid <= 0:
            return
        deadline = time.monotonic() + patience
        while time.monotonic() < deadline:
            try:
                pid, _status = os.waitpid(worker.pid, os.WNOHANG)
            except ChildProcessError:
                worker.pid = -1
                return
            if pid:
                worker.pid = -1
                return
            time.sleep(0.01)
        try:
            os.kill(worker.pid, signal.SIGKILL)
            os.waitpid(worker.pid, 0)
        except (ChildProcessError, ProcessLookupError, OSError):
            pass
        worker.pid = -1

    def __del__(self):  # best-effort; explicit close() is the API
        try:
            self.close()
        except BaseException:
            pass

    # -- checking ------------------------------------------------------------

    def check_batches(self, batches: Sequence[Sequence[str]],
                      costs: Optional[Sequence[float]] = None
                      ) -> Dict[str, Tuple[Tuple[Diagnostic, ...], float]]:
        """Run the batches under supervision; map qual -> (diags, s).

        ``costs`` (the scheduler's per-batch estimates) size the
        watchdog deadlines.  Worker crashes, hangs and stream
        corruption are recovered in-place (respawn / retry / bisect /
        serialize-one); :class:`WorkerCrash` is raised only when the
        pool as a whole is beyond saving, and then carries the partial
        results so the caller need not redo completed work.
        """
        if self._closed:
            raise WorkerCrash("worker pool is closed")
        if not self._workers:
            raise WorkerCrash("worker pool has no workers")
        self.last_used = time.monotonic()
        self._respawns = 0
        sel = selectors.DefaultSelector()
        state = _RunState(sel)
        batch_costs: List[Optional[float]] = list(costs) if costs else \
            [None] * len(batches)
        for quals, cost in zip(batches, batch_costs):
            state.queue.append(_BatchJob(list(quals), cost))
        try:
            for worker in self._workers:
                sel.register(worker.result_fd, selectors.EVENT_READ, worker)
                state.idle.append(worker)
            self._supervise(state)
        except _GiveUp as exc:
            self._final_drain(state)
            for worker in list(state.busy):
                self._retire(worker, state)
            partial = {qual: res for qual, res in state.results.items()
                       if qual not in state.poisoned}
            raise WorkerCrash(exc.reason, exc.child_traceback,
                              partial=partial) from None
        finally:
            sel.close()
            self.last_used = time.monotonic()
        return state.results

    def idle_seconds(self) -> float:
        """Seconds since this pool last started or finished a run."""
        return time.monotonic() - self.last_used

    # -- the supervision loop ------------------------------------------------

    def _supervise(self, state: _RunState) -> None:
        while state.queue or state.busy:
            self._dispatch_pending(state)
            if not state.busy:
                continue
            now = time.monotonic()
            timeout = max(0.0, min(deadline for _job, _did, deadline
                                   in state.busy.values()) - now)
            for key, _mask in state.sel.select(timeout):
                worker = key.data
                self._on_readable(worker, state)
            now = time.monotonic()
            expired = [worker for worker, (_job, _did, deadline)
                       in state.busy.items() if deadline <= now]
            for worker in expired:
                self._on_timeout(worker, state)

    def _dispatch_pending(self, state: _RunState) -> None:
        while state.queue and state.idle:
            worker = state.idle.pop()
            job = state.queue.popleft()
            dispatch_id = self._dispatch_seq
            self._dispatch_seq += 1
            try:
                _write_frame(worker.cmd_fd, ("batch", dispatch_id,
                                             list(job.quals)))
            except OSError:
                # The worker died while idle; replace it and re-offer
                # the job (no attempt charged — it never ran).
                state.queue.appendleft(job)
                self._retire(worker, state)
                self._respawn_into(state)
                continue
            deadline = time.monotonic() + batch_deadline(job.cost,
                                                         self.batch_timeout)
            state.busy[worker] = (job, dispatch_id, deadline)

    def _on_readable(self, worker: _Worker, state: _RunState) -> None:
        frame = self._read_ready(worker)
        if frame is _PARTIAL:
            return
        entry = state.busy.pop(worker, None)
        job = entry[0] if entry is not None else None
        if frame is None or frame is _CORRUPT or not isinstance(frame, tuple):
            kind = "crash" if frame is None else "garbage"
            reason = ("worker exited unexpectedly" if kind == "crash" else
                      "worker result stream corrupt")
            self._crash_event(worker.pid,
                              job.quals if job is not None else (), "",
                              reason)
            self._retire(worker, state)
            self._respawn_into(state)
            if job is not None:
                self._job_failed(job, state, kind, "")
            return
        if frame[0] == "ok":
            _tag, _dispatch_id, batch_results, obs = frame
            for qual, diags, cost in batch_results:
                state.results[qual] = (tuple(diags), cost)
            if obs:
                self.telemetry.events.absorb(obs.get("events") or [])
                self.telemetry.tracer.absorb(obs.get("spans") or [])
                self.telemetry.metrics.merge(obs.get("metrics"))
            state.idle.append(worker)
            return
        if frame[0] == "err" and job is not None:
            _tag, _dispatch_id, qual, child_tb = frame
            state.last_child_tb = child_tb
            self._crash_event(worker.pid, job.quals, child_tb,
                              f"worker raised while checking '{qual}'")
            # The worker survived (it framed the error itself): keep
            # it.  The culprit is attributed, so skip the bisection
            # dance — requeue the untouched remainder and settle the
            # culprit in the parent.
            state.idle.append(worker)
            rest = [q for q in job.quals
                    if q != qual and q not in state.results]
            if rest:
                per = job.cost / len(job.quals) \
                    if job.cost and job.quals else None
                state.queue.append(_BatchJob(
                    rest, per * len(rest) if per else None, job.attempts))
            self._resolve_poison(qual, state, child_tb)
            return
        # Unknown tag, or a reply from a worker we did not ask:
        # protocol desync — treat like corruption.
        self._crash_event(worker.pid, job.quals if job is not None else (),
                          "", "worker protocol desync")
        self._retire(worker, state)
        self._respawn_into(state)
        if job is not None:
            self._job_failed(job, state, "desync", "")

    def _on_timeout(self, worker: _Worker, state: _RunState) -> None:
        entry = state.busy.pop(worker, None)
        if entry is None:
            return
        job, _dispatch_id, deadline = entry
        self._bump("timeouts")
        self.telemetry.events.emit(
            "worker_timeout",
            f"checker worker (pid {worker.pid}) exceeded its batch "
            f"deadline; killing and respawning",
            pid=worker.pid, functions=list(job.quals),
            deadline_seconds=batch_deadline(job.cost, self.batch_timeout))
        self._retire(worker, state)
        self._respawn_into(state)
        self._job_failed(job, state, "timeout", "")

    def _job_failed(self, job: _BatchJob, state: _RunState,
                    kind: str, child_tb: str) -> None:
        job.attempts += 1
        if job.attempts < MAX_BATCH_ATTEMPTS:
            self._bump("retries")
            self.telemetry.events.emit(
                "batch_retry",
                f"retrying batch of {len(job.quals)} function(s) after "
                f"{kind} (attempt {job.attempts + 1})",
                functions=list(job.quals), attempt=job.attempts + 1,
                cause=kind)
            state.queue.append(job)
            return
        if len(job.quals) > 1:
            self._bump("bisections")
            mid = len(job.quals) // 2
            left, right = job.quals[:mid], job.quals[mid:]
            per = job.cost / len(job.quals) if job.cost else None
            self.telemetry.events.emit(
                "batch_bisect",
                f"batch of {len(job.quals)} function(s) failed "
                f"{job.attempts} time(s); bisecting to isolate the "
                f"offender",
                functions=list(job.quals), left=left, right=right,
                cause=kind)
            # The halves inherit one strike: the parent batch already
            # failed MAX_BATCH_ATTEMPTS times, so its pieces are
            # suspect — giving each a fresh retry doubles the crash
            # count per bisection level and can exhaust the respawn
            # budget before the offender is cornered.
            state.queue.append(_BatchJob(left, per * len(left) if per
                                         else None,
                                         attempts=MAX_BATCH_ATTEMPTS - 1))
            state.queue.append(_BatchJob(right, per * len(right) if per
                                         else None,
                                         attempts=MAX_BATCH_ATTEMPTS - 1))
            return
        self._resolve_poison(job.quals[0], state, child_tb)

    def _resolve_poison(self, qual: str, state: _RunState,
                        child_tb: str) -> None:
        """A single function is left holding the blame: check it once
        in the parent.  Success means the fault was worker-local or
        transient; failure makes it a structured diagnostic."""
        started = time.perf_counter()
        try:
            with self.telemetry.tracer.span("poison_isolate",
                                            function=qual):
                diags = tuple(check_function_diagnostics(
                    self.ctx, qual, self.ctx.fun_defs[qual],
                    join_abstraction=self.join_abstraction,
                    max_loop_iterations=self.max_loop_iterations))
        except Exception:
            tb = traceback.format_exc()
            state.poisoned.add(qual)
            self._bump("poisoned")
            self.telemetry.events.emit(
                "poison_function",
                f"checking '{qual}' crashes the checker; isolated and "
                f"reported as a diagnostic",
                function=qual, traceback=tb, recovered=False)
            fundef = self.ctx.fun_defs[qual]
            diag = Diagnostic(
                Code.CHECKER_INTERNAL,
                f"the checker itself crashed on '{qual}'; the function "
                f"was isolated and its protocol status is unknown",
                fundef.span,
                notes=["every other function was checked normally; "
                       "see the poison_function event for the traceback"])
            state.results[qual] = ((diag,),
                                   time.perf_counter() - started)
            if len(state.poisoned) > MAX_POISONED:
                raise _GiveUp(
                    f"{len(state.poisoned)} functions crashed the "
                    f"checker — the fault is unlikely to be in the "
                    f"functions", tb or child_tb)
        else:
            self.telemetry.events.emit(
                "poison_recovered",
                f"'{qual}' was blamed for a worker failure but checks "
                f"cleanly in the parent (transient or worker-local "
                f"fault)",
                function=qual, recovered=True)
            state.results[qual] = (diags, time.perf_counter() - started)

    # -- worker replacement --------------------------------------------------

    def _respawn_into(self, state: _RunState) -> None:
        if self._respawns >= MAX_RESPAWNS:
            raise _GiveUp(
                f"worker respawn budget exhausted "
                f"({self._respawns} respawns)", state.last_child_tb)
        try:
            worker = self._spawn_one()
        except OSError as exc:
            raise _GiveUp(f"could not respawn checker worker: {exc}")
        self._respawns += 1
        self._bump("respawns")
        self.telemetry.events.emit(
            "worker_respawn",
            f"respawned checker worker (pid {worker.pid}, "
            f"respawn {self._respawns} of this run)",
            pid=worker.pid, respawns=self._respawns)
        state.sel.register(worker.result_fd, selectors.EVENT_READ, worker)
        state.idle.append(worker)

    def _retire(self, worker: _Worker, state: _RunState) -> None:
        """Remove a worker from the run and the pool: unregister,
        SIGKILL, close both fds, reap.  Every failure path funnels
        through here, so repeated crash/respawn cycles cannot leak
        fds or zombies."""
        if worker.result_fd >= 0:
            try:
                state.sel.unregister(worker.result_fd)
            except (KeyError, ValueError):
                pass
        state.busy.pop(worker, None)
        if worker in state.idle:
            state.idle.remove(worker)
        if worker in self._workers:
            self._workers.remove(worker)
        if worker.pid > 0:
            try:
                os.kill(worker.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                pass
        worker.close_fds()
        self._reap(worker, patience=1.0)

    def _read_ready(self, worker: _Worker):
        """One read after the selector reported readability; returns a
        decoded frame, ``_PARTIAL`` (more bytes needed), ``None`` on
        EOF, or ``_CORRUPT`` on an undecodable payload."""
        try:
            chunk = os.read(worker.result_fd, 1 << 16)
        except OSError:
            return None
        if not chunk:
            return None
        worker.buf += chunk
        if len(worker.buf) < _HEADER.size:
            return _PARTIAL
        (length,) = _HEADER.unpack(worker.buf[:_HEADER.size])
        if length > _MAX_FRAME:
            return _CORRUPT
        end = _HEADER.size + length
        if len(worker.buf) < end:
            return _PARTIAL
        payload = worker.buf[_HEADER.size:end]
        worker.buf = worker.buf[end:]
        try:
            return pickle.loads(payload)
        except Exception:
            return _CORRUPT

    def _final_drain(self, state: _RunState) -> None:
        """Before giving up, briefly collect replies already in
        flight — every result salvaged here is one the serial
        fallback will not re-check."""
        deadline = time.monotonic() + 0.25
        while state.busy and time.monotonic() < deadline:
            events = state.sel.select(0.05)
            if not events:
                continue
            for key, _mask in events:
                worker = key.data
                if worker not in state.busy:
                    continue
                frame = self._read_ready(worker)
                if frame is _PARTIAL:
                    continue
                state.busy.pop(worker, None)
                if isinstance(frame, tuple) and frame and frame[0] == "ok":
                    for qual, diags, cost in frame[2]:
                        state.results[qual] = (tuple(diags), cost)
                    obs = frame[3]
                    if obs:
                        self.telemetry.events.absorb(obs.get("events") or [])
                        self.telemetry.tracer.absorb(obs.get("spans") or [])
                        self.telemetry.metrics.merge(obs.get("metrics"))

    # -- accounting ----------------------------------------------------------

    def _bump(self, name: str, n: int = 1) -> None:
        """Count one resilience action (``resilience.<name>``)."""
        self.telemetry.metrics.counter(f"resilience.{name}").inc(n)

    def _crash_event(self, pid: int, quals: Sequence[str],
                     child_traceback: str, reason: str) -> None:
        """Publish a structured record of a worker failure — the
        post-hoc attribution the old bare stderr warning lacked."""
        self.telemetry.metrics.counter("workers.crashes").inc()
        self.telemetry.events.emit(
            "worker_crash",
            f"checker worker (pid {pid}) failed: {reason}",
            pid=pid, functions=list(quals), reason=reason,
            traceback=child_traceback)
