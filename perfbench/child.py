"""One workload process: set up, then time requests.

Run by ``run.py`` as ``python3 child.py MODE SPEC.json OUT.json``; each
sample or segment of a workload is a fresh process, so one sample's
leftover state (caches, the AST pool, GC generations) cannot bias the
next.  The process writes ``OUT.json`` with:

* ``ready`` -- ``time.monotonic()`` when set-up ended (the parent
  subtracts its spawn time: that is ``setup_s``);
* ``requests`` -- one row per request: kind, wall seconds measured by
  the caller, daemon service seconds, failure kind, verdict mismatches;
* ``rss_mb`` -- peak resident memory of the process doing the
  checking (for the daemon, after ``RSS_PASSES`` timed passes);
* with ``trace``, the per-layer aggregate over the timed window and
  the Chrome trace events.

Modes: ``cold`` (``repro.check_source`` + render, as ``vaultc check``
does), ``prime`` and ``rebuild`` (a ``CheckSession`` over an on-disk
summary cache, as ``vaultc check --jobs J --cache D`` does), ``edit``
(one warm in-process session) and ``daemon`` (a ``vaultc serve``
subprocess, one ``DaemonClient`` and a peer connection with other
options, driven in one closed loop).
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from gen import Unit, appended_edit, body_edit, helper_edit  # noqa: E402
from verdict import mismatches  # noqa: E402

#: how long a fresh daemon may take to answer its first ping.
DAEMON_START_TIMEOUT = 60.0
#: options exactly as ``vaultc check --daemon`` sends them.
DAEMON_OPTIONS = {"jobs": 1, "cache_dir": None, "break_even": None,
                  "shared_cache": None}
#: options as ``vaultc check --daemon --break-even 100`` sends them: a
#: second client whose options select a second warm session in the
#: daemon but give the same answers and the same shared-store keys, so
#: that session reads what the first one wrote to the daemon-wide L2.
PEER_OPTIONS = dict(DAEMON_OPTIONS, break_even=0.1)
#: timed passes after which the daemon's peak memory is read.  Every
#: fresh edit the daemon stores grows its L2 and session caches, so a
#: peak taken at the end of the run would grow with how many requests
#: a fast host gets through; after a fixed number of passes it does not.
RSS_PASSES = 8


def load_unit(path: str) -> Unit:
    with open(path, encoding="utf-8") as handle:
        return Unit.from_json(json.load(handle))


def cli_output(report, filename: str) -> str:
    """What ``vaultc check`` prints for ``report``."""
    if report.ok:
        return f"{filename}: OK (protocols verified)"
    return f"{report.render()}\n{filename}: {len(report.errors)} error(s)"


def row(kind: str, seconds: float, render: str, decls, expect,
        unit: str, failure: str = "", service: float = 0.0) -> dict:
    wrong = [] if failure else mismatches(render, decls, expect)
    return {"kind": kind, "seconds": seconds, "service": service,
            "failure": failure, "unit": unit,
            "mismatches": [list(m) for m in wrong]}


def in_process(kind: str, unit: Unit, check) -> dict:
    """Time ``check()``, which returns the CLI output, as one request
    on ``unit``; an exception it raises is the request's failure."""
    t0 = time.perf_counter()
    try:
        out = check()
    except Exception as exc:  # a raising check is a failed request
        return row(kind, time.perf_counter() - t0, "", unit.decls,
                   unit.expect, unit.filename,
                   failure=f"raised {type(exc).__name__}: {exc}")
    return row(kind, time.perf_counter() - t0, out, unit.decls,
               unit.expect, unit.filename)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0   # KiB on Linux


def process_peak_rss_mb(pid: int) -> float:
    """The peak resident memory so far of the running process ``pid``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0   # kB
    raise RuntimeError(f"no VmHWM for process {pid}")


def warm_up(spec: dict) -> None:
    """The small fixed check that loads lazy imports and the stdlib
    base context before timing starts."""
    from repro import check_source
    unit = load_unit(spec["warmup"])
    cli_output(check_source(unit.text, unit.filename), unit.filename)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def run_cold(spec: dict) -> dict:
    from repro import check_source
    warm_up(spec)
    ready = time.monotonic()
    unit = load_unit(spec["unit"])
    start = time.perf_counter()
    request = in_process("cold", unit, lambda: cli_output(
        check_source(unit.text, unit.filename), unit.filename))
    end = time.perf_counter()
    return {"ready": ready, "window": [start, end], "requests": [request]}


def session_check(unit: Unit, text: str, jobs: int, cache_dir: str,
                  stats: list):
    """A check through a fresh ``CheckSession(jobs, cache_dir)``, as
    ``vaultc check --jobs J --cache D`` makes; appends the session's
    stats to ``stats``."""
    from repro.pipeline import CheckSession

    def check() -> str:
        with CheckSession(jobs=jobs, cache_dir=cache_dir) as session:
            stats.append(session.stats)
            return cli_output(session.check(text, unit.filename),
                              unit.filename)
    return check


def run_prime(spec: dict) -> dict:
    unit = load_unit(spec["unit"])
    request = in_process("prime", unit, session_check(
        unit, unit.text, spec["jobs"], spec["cache_dir"], []))
    return {"ready": time.monotonic(), "window": [0.0, 0.0],
            "requests": [request]}


def run_rebuild(spec: dict) -> dict:
    warm_up(spec)
    ready = time.monotonic()
    unit = load_unit(spec["unit"])
    with open(spec["edited"], encoding="utf-8") as handle:
        text = handle.read()
    stats: list = []
    start = time.perf_counter()
    request = in_process("rebuild", unit, session_check(
        unit, text, spec["jobs"], spec["cache_dir"], stats))
    end = time.perf_counter()
    return {"ready": ready, "window": [start, end],
            "parallel_runs": stats[0].parallel_runs if stats else 0,
            "requests": [request]}


def edit_text(unit: Unit, step: list) -> str:
    kind, target, value = step
    if kind == "body":
        return body_edit(unit, unit.text, target, value)
    return helper_edit(unit, unit.text, target, value)


def run_edit(spec: dict) -> dict:
    from repro.pipeline import CheckSession
    unit = load_unit(spec["unit"])
    session = CheckSession(jobs=1)

    def check(text: str):
        return lambda: cli_output(session.check(text, unit.filename),
                                  unit.filename)
    # Priming: the base, then the first edit (which re-checks more than
    # a steady-state edit does, so it is set-up cost).  An ``unchanged``
    # request re-checks the last text sent.
    text = edit_text(unit, spec["first_edit"])
    rows = [in_process("prime", unit, check(unit.text)),
            in_process("prime", unit, check(text))]
    ready = time.monotonic()
    deadline = ready + spec["seconds"]
    script = spec["script"]
    start = time.perf_counter()
    i = 0
    while time.monotonic() < deadline or i < spec["min_requests"]:
        step = script[i % len(script)]
        i += 1
        if step[0] != "unchanged":
            text = edit_text(unit, step)
        rows.append(in_process(step[0], unit, check(text)))
    end = time.perf_counter()
    session.close()
    return {"ready": ready, "window": [start, end], "requests": rows}


def pin_to_one_cpu() -> int:
    """Pin this process (and so the daemon it starts) to one CPU.  The
    client and the daemon take turns, never running at once, so one
    CPU costs no throughput; without it each round trip may wake the
    other process on another CPU, whose latency varies with the host
    (a virtual CPU may have to be rescheduled first).  Returns the
    CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_daemon(spec: dict, trace: bool) -> dict:
    from repro.server.client import DaemonUnavailable
    cpu = pin_to_one_cpu()
    with open(spec["units"], encoding="utf-8") as handle:
        units = [Unit.from_json(u) for u in json.load(handle)]
    sock = spec["socket"]
    if trace:
        cmd = [sys.executable, os.path.join(HERE, "daemon_launcher.py"),
               sock, spec["window_file"], spec["daemon_out"]]
    else:
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--socket", sock]
    with open(spec["daemon_log"], "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=log)
    try:
        client = connect(sock, proc)
        peer = connect(sock, proc)
        try:
            return dict(drive_daemon(client, peer, units, spec,
                                     lambda: process_peak_rss_mb(proc.pid)),
                        daemon_cpu=cpu)
        finally:
            try:
                client.shutdown()
            except DaemonUnavailable:
                pass
            client.close()
            peer.close()
            proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def connect(sock: str, proc):
    from repro.server.client import DaemonClient, DaemonUnavailable
    deadline = time.monotonic() + DAEMON_START_TIMEOUT
    while True:
        try:
            client = DaemonClient(sock)
            client.ping()
            return client
        except DaemonUnavailable:
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    f"daemon did not come up (exit code {proc.poll()})")
            time.sleep(0.01)


def daemon_request(client, options: dict, kind: str, text: str,
                   filename: str, decls, expect) -> dict:
    from repro.server.client import DaemonUnavailable
    t0 = time.perf_counter()
    try:
        reply = client.check(text, filename, options)
    except DaemonUnavailable as exc:
        return row(kind, time.perf_counter() - t0, "", decls, expect,
                   filename, failure=f"unavailable: {exc}")
    seconds = time.perf_counter() - t0
    if reply.get("ok") is not True or "render" not in reply:
        return row(kind, seconds, "", decls, expect, filename,
                   failure=str(reply.get("kind", "no reply kind")))
    return row(kind, seconds, reply["render"], decls, expect, filename,
               service=float(reply.get("seconds", 0.0)))


def drive_daemon(client, peer, units, spec: dict, daemon_rss) -> dict:
    """The first pass over every unit (and the peer's first request,
    which opens its session) is set-up.  Then ``client`` goes round
    robin; every fourth request is a fresh edit, which the daemon
    writes to its L2, and ``peer`` re-sends each edited text at once,
    which its session reads from the L2.  Timing stops only after a
    whole pass, so every pass has the same mix of requests; each row
    records its pass in ``block``.  ``daemon_rss()`` is read after
    ``RSS_PASSES`` passes."""
    rows = [daemon_request(client, DAEMON_OPTIONS, "prime", u.text,
                           u.filename, u.decls, u.expect) for u in units]
    first = units[0]
    rows.append(daemon_request(peer, PEER_OPTIONS, "prime", first.text,
                               first.filename, first.decls, first.expect))
    for r in rows:
        r["seconds"] = 0.0
    ready = time.monotonic()
    deadline = ready + spec["seconds"]
    start = time.perf_counter()
    i = 0
    serial = spec["edit_serial"]
    rss_at = RSS_PASSES * len(units)
    rss_mb = 0.0
    while time.monotonic() < deadline or i < rss_at or i % len(units):
        unit = units[i % len(units)]
        first_row = len(rows)
        if i % 4 == 3:
            serial += 1
            text, name, line = appended_edit(unit, serial)
            decls = list(unit.decls) + [(line, name)]
            expect = dict(unit.expect, **{name: []})
            rows.append(daemon_request(client, DAEMON_OPTIONS, "edit", text,
                                       unit.filename, decls, expect))
            rows.append(daemon_request(peer, PEER_OPTIONS, "peer", text,
                                       unit.filename, decls, expect))
        else:
            rows.append(daemon_request(client, DAEMON_OPTIONS, "revisit",
                                       unit.text, unit.filename,
                                       unit.decls, unit.expect))
        for r in rows[first_row:]:
            r["block"] = i // len(units)
        i += 1
        if i == rss_at:
            rss_mb = daemon_rss()
    end = time.perf_counter()
    with open(spec["window_file"], "w", encoding="utf-8") as handle:
        json.dump([start, end], handle)
    return {"ready": ready, "window": [start, end], "requests": rows,
            "rss_mb": rss_mb}


def main(argv) -> int:
    mode, spec_path, out_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    recorder = None
    if spec.get("trace"):
        from layers import Recorder
        recorder = Recorder().install()
    if mode == "daemon":
        out = run_daemon(spec, bool(spec.get("trace")))
    else:
        out = {"cold": run_cold, "prime": run_prime,
               "rebuild": run_rebuild, "edit": run_edit}[mode](spec)
        out["rss_mb"] = max(peak_rss_mb(),
                            peak_rss_mb(resource.RUSAGE_CHILDREN))
    if recorder is not None:
        recorder.uninstall()
        out["layers"] = recorder.aggregate(*out["window"])
        out["stdlib_s"] = recorder.aggregate()["layers"]["stdlib.base"][
            "total_s"]
        out["trace_events"] = recorder.chrome_events(f"perfbench {mode}")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
