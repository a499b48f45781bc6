"""A wire-level chaos proxy for the check daemon.

:class:`ChaosProxy` sits between a client and a real daemon on a
second Unix socket and *acts out* the wire faults of a seeded
:class:`~repro.pipeline.faults.FaultPlan` (``torn@R``, ``oversize@R``,
``stall@R``, ...).  It is the socket twin of the worker pool's
dispatch-fault injection: every request relayed through the proxy gets
a global **request index**, the plan's :meth:`~repro.pipeline.faults.
FaultPlan.wire_fault` decides what (if anything) goes wrong for that
index, and because a client retry travels under a fresh index, chaos
runs are deterministic and convergent — fault the first attempt,
watch the retry (or the in-process fallback) produce byte-identical
diagnostics.

The faults, as seen by the client:

``torn``        the reply frame stops halfway, then EOF
``garbage-frame``  a well-framed but undecodable reply payload
``oversize``    a reply header announcing more than ``MAX_FRAME``
``disconnect``  EOF right after the request, before any reply byte
``stall``       the connection stays open but nothing ever arrives
                (the client's read timeout must fire)
``kill``        the request is forwarded with the ``test_die`` chaos
                hook set, so a daemon started with
                ``VAULTC_SERVER_TEST_OPS=1`` dies mid-check

Threading: one acceptor thread plus one thread per client connection —
the proxy must keep relaying while a ``stall`` victim sits blocked.
Shutdown is wakeup-driven: :meth:`ChaosProxy.close` shuts down the
listener and every open client/upstream socket, so each blocked
``accept``/``recv`` returns at once and the threads exit.
The daemon side stays oblivious; nothing here touches daemon state.
Test-only machinery, exercised by ``tests/test_server.py`` and
``benchmarks/daemon_chaos_smoke.py``.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
from collections import Counter
from typing import List, Optional, Set

from ..pipeline.faults import FaultPlan
from .protocol import HEADER_SIZE, MAX_FRAME, encode_frame

__all__ = ["ChaosProxy"]

_HEADER = struct.Struct("!I")


def _shutdown(sock: socket.socket) -> None:
    """Wake every thread blocked on ``sock`` (its accept or recv
    returns at once)."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass                    # already closed or never connected


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    parts: List[bytes] = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 16))
        except OSError:
            return None
        if not chunk:
            return None
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def _read_raw_frame(sock: socket.socket) -> Optional[bytes]:
    """One complete frame as raw bytes (header included), or ``None``
    on EOF/error.  The proxy relays bytes, it does not validate."""
    header = _recv_exact(sock, HEADER_SIZE)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        return None
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    return header + payload


class ChaosProxy:
    """Relay daemon traffic, injecting wire faults by request index.

    Use as a context manager (or call :meth:`start`/:meth:`close`).
    Point clients at :attr:`listen_path`; the proxy dials
    ``upstream_path`` once per client connection.
    """

    def __init__(self, listen_path: str, upstream_path: str,
                 plan: Optional[FaultPlan] = None):
        self.listen_path = listen_path
        self.upstream_path = upstream_path
        self.plan = plan if plan is not None else FaultPlan()
        self.requests_seen = 0
        #: fault kind -> number of times it was acted out.
        self.faults_acted: "Counter[str]" = Counter()
        self._lock = threading.Lock()
        self._stop = False
        self._threads: List[threading.Thread] = []
        #: open client and upstream sockets, shut down by ``close``.
        self._socks: Set[socket.socket] = set()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ChaosProxy":
        if os.path.exists(self.listen_path):
            os.unlink(self.listen_path)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.listen_path)
        self._listener.listen(16)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept",
            daemon=True)
        self._accept_thread.start()
        return self

    def close(self) -> None:
        with self._lock:
            self._stop = True
            socks = list(self._socks)
        if self._listener is not None:
            _shutdown(self._listener)
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        try:
            os.unlink(self.listen_path)
        except OSError:
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
            self._accept_thread = None
        # No socket is tracked after ``_stop`` is set, so this wakes
        # every relay thread still blocked in a recv.
        for sock in socks:
            _shutdown(sock)
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads = []

    def reset(self) -> None:
        """Zero the request counter (fresh per-example determinism for
        property tests that reuse one proxy)."""
        with self._lock:
            self.requests_seen = 0

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- relaying -------------------------------------------------------------

    def _next_index(self) -> int:
        with self._lock:
            index = self.requests_seen
            self.requests_seen += 1
            return index

    def _track(self, sock: socket.socket) -> bool:
        """Register ``sock`` for shutdown by :meth:`close`; False (and
        the socket closed) once the proxy is stopping."""
        with self._lock:
            if not self._stop:
                self._socks.add(sock)
                return True
        sock.close()
        return False

    def _accept_loop(self) -> None:
        while not self._stop:
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return
            if not self._track(client):
                return
            thread = threading.Thread(
                target=self._serve_client, args=(client,),
                name="chaos-proxy-conn", daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve_client(self, client: socket.socket) -> None:
        upstream: Optional[socket.socket] = None
        try:
            while not self._stop:
                raw = _read_raw_frame(client)
                if raw is None:
                    return
                index = self._next_index()
                fault = self.plan.wire_fault(index)
                if fault == "disconnect":
                    self.faults_acted[fault] += 1
                    return                      # EOF before any reply
                if fault == "oversize":
                    self.faults_acted[fault] += 1
                    client.sendall(_HEADER.pack(MAX_FRAME + 1))
                    return
                if fault == "garbage-frame":
                    self.faults_acted[fault] += 1
                    junk = b"\xff\xfenot json at all\x00"
                    client.sendall(_HEADER.pack(len(junk)) + junk)
                    return
                if fault == "stall":
                    self.faults_acted[fault] += 1
                    # Hold the connection open, never reply; block on
                    # the client's own close (its read timeout fires).
                    _recv_exact(client, 1 << 30)
                    return
                if fault == "kill":
                    self.faults_acted[fault] += 1
                    raw = self._poison(raw)
                if upstream is None:
                    upstream = socket.socket(socket.AF_UNIX,
                                             socket.SOCK_STREAM)
                    if not self._track(upstream):
                        upstream = None
                        return
                    upstream.connect(self.upstream_path)
                upstream.sendall(raw)
                reply = _read_raw_frame(upstream)
                if reply is None:
                    return                      # daemon died mid-check
                if fault == "torn":
                    self.faults_acted[fault] += 1
                    client.sendall(reply[:max(1, len(reply) // 2)])
                    return
                client.sendall(reply)
        except OSError:
            return
        finally:
            for sock in (client, upstream):
                if sock is not None:
                    with self._lock:
                        self._socks.discard(sock)
                    try:
                        sock.close()
                    except OSError:
                        pass

    @staticmethod
    def _poison(raw: bytes) -> bytes:
        """Re-encode a request frame with the ``test_die`` chaos hook
        set, so a test-ops daemon dies mid-check on it."""
        import json
        try:
            payload = json.loads(raw[HEADER_SIZE:].decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return raw
        if not isinstance(payload, dict):
            return raw
        payload["test_die"] = True
        return encode_frame(payload)
