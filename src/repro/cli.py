"""``vaultc`` — the command-line front end.

Subcommands::

    vaultc check   file.vlt            # parse + protocol-check
    vaultc run     file.vlt [--entry main]   # check then interpret
    vaultc compile file.vlt [-o out.py]      # check then emit Python
    vaultc erase   file.vlt                  # print the key-erased source
    vaultc stats   file.vlt                  # size/annotation metrics
    vaultc mutate  file.vlt [--limit N]      # seeded-fault study
    vaultc fuzz    [--count N --seed S]      # differential path fuzzing
    vaultc serve   [--socket PATH]           # persistent check daemon
    vaultc top     [SOCKET] [--once --json]  # live daemon dashboard
    vaultc watch   DIR                       # re-check changed .vlt files
    vaultc cache   stats|gc                  # shared result store ops
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis.metrics import compare_sizes, format_table
from .analysis.mutation import run_study
from .api import check_source, load_context
from .core import check_program
from .diagnostics import RuntimeProtocolError, VaultError
from .lower import compile_to_python, erase_program, load_compiled
from .stdlib.hostimpl import create_host, make_interpreter
from .syntax import parse_program, pretty


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_jobs(value: str) -> "int | str":
    """``--jobs`` accepts an explicit count or ``auto`` (one worker
    per CPU available to this process)."""
    text = value.strip().lower()
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid --jobs value {value!r} (expected a count or 'auto')")


def _fault_plan(spec: "str | None"):
    """Parse ``--inject-faults`` / ``VAULTC_FAULTS`` (test use only)."""
    if not spec:
        return None
    from .pipeline.faults import FaultError, FaultPlan
    try:
        return FaultPlan.parse(spec)
    except FaultError as exc:
        raise VaultError(f"bad fault spec: {exc}") from None


def cmd_check(args: argparse.Namespace) -> int:
    source = _read(args.file)
    instrumented = args.trace or args.metrics
    faults = args.inject_faults or os.environ.get("VAULTC_FAULTS")
    shared = args.shared_cache
    if shared:
        from .cache import is_remote_spec
        shared_remote = is_remote_spec(shared)
    else:
        shared_remote = False
    # The daemon path only carries what the wire protocol can express;
    # introspection flags (--trace/--metrics/--profile) and the chaos
    # harness are inherently local, so they check in-process as before.
    # A *remote* shared-cache spec means "use the daemon as a cache
    # tier, check locally" — the opposite of daemon routing.
    if args.daemon is not None and not args.profile and not instrumented \
            and not faults and args.batch_timeout is None \
            and not shared_remote:
        from .server.client import check_via_daemon
        outcome = check_via_daemon(
            source, args.file,
            {"jobs": args.jobs, "cache_dir": args.cache,
             "break_even": None if args.break_even is None
             else args.break_even / 1000.0,
             "shared_cache": shared},
            args.daemon)
        if outcome is not None:
            if outcome.ok:
                print(f"{args.file}: OK (protocols verified)")
                return 0
            print(outcome.render)
            print(f"{args.file}: {outcome.errors} error(s)")
            return 1
        # No reachable daemon: transparent fallback to the identical
        # in-process pipeline below.
    if args.jobs != 1 or args.cache or args.profile or instrumented \
            or args.break_even is not None \
            or args.batch_timeout is not None or faults or shared:
        from .obs import Telemetry
        from .pipeline import CheckSession
        from .pipeline.scheduler import (BREAK_EVEN_SECONDS,
                                         DEFAULT_BATCH_TIMEOUT)
        # --profile turns metrics on too: the quantile lines in the
        # profile read off the check.function_seconds histogram.
        telemetry = Telemetry(trace=bool(args.trace),
                              metrics=bool(args.metrics) or args.profile)
        break_even = BREAK_EVEN_SECONDS if args.break_even is None \
            else args.break_even / 1000.0
        batch_timeout = DEFAULT_BATCH_TIMEOUT \
            if args.batch_timeout is None else args.batch_timeout
        store = None
        if shared:
            from .cache import open_store
            store = open_store(shared, telemetry)
        try:
            with CheckSession(jobs=args.jobs, cache_dir=args.cache,
                              telemetry=telemetry,
                              break_even_seconds=break_even,
                              batch_timeout=batch_timeout,
                              fault_plan=_fault_plan(faults),
                              shared_store=store) as session:
                try:
                    report = session.check(source, filename=args.file)
                finally:
                    # The trace is most valuable for the run that
                    # failed: write whatever was recorded even on a
                    # crash.
                    if args.trace:
                        telemetry.tracer.export(args.trace)
                if args.profile:
                    _print_profile(session, file=sys.stderr)
                if args.metrics:
                    _write_metrics(telemetry, args.metrics)
        finally:
            if store is not None:
                store.close()
    else:
        report = check_source(source, filename=args.file)
    if report.ok:
        print(f"{args.file}: OK (protocols verified)")
        return 0
    print(report.render())
    print(f"{args.file}: {len(report.errors)} error(s)")
    return 1


def _write_metrics(telemetry, destination: str) -> None:
    """``--metrics -`` renders a table to stderr; any other value is
    a path that receives the snapshot as JSON."""
    if destination == "-":
        print("metrics:", file=sys.stderr)
        print(telemetry.metrics.render(), file=sys.stderr)
        return
    import json
    with open(destination, "w", encoding="utf-8") as handle:
        json.dump(telemetry.metrics.snapshot(), handle, indent=2)
        handle.write("\n")


def _print_profile(session, file) -> int:
    profile = session.last_profile
    stats = session.stats
    print("profile:", file=file)
    for key in ("context_seconds", "check_seconds"):
        if key in profile:
            label = key.replace("_seconds", "")
            print(f"  {label:<22} {profile[key] * 1000:8.1f} ms", file=file)
    if "plan" in profile:
        print(f"  {'schedule':<22} {profile['plan']}", file=file)
    if "gc" in profile:
        gc_stats = profile["gc"]
        print(f"  {'gc':<22} {gc_stats['pause_seconds'] * 1000:8.1f} ms "
              f"in {gc_stats['collections']} collections "
              f"({gc_stats['gen2_collections']} gen-2)", file=file)
    print(f"  {'functions checked':<22} {stats.functions_checked:8d}",
          file=file)
    print(f"  {'functions replayed':<22} {stats.functions_replayed:8d}",
          file=file)
    metrics = session.telemetry.metrics
    if metrics.enabled:
        snapshot = metrics.snapshot().get("check.function_seconds")
        if snapshot and snapshot.get("count"):
            from .obs import bucket_quantile
            bounds = snapshot["bounds"]
            counts = snapshot["bucket_counts"]
            quants = " / ".join(
                f"p{int(q * 100)} "
                f"{bucket_quantile(bounds, counts, q) * 1000:.1f} ms"
                for q in (0.5, 0.95, 0.99))
            print(f"  {'function latency':<22} {quants}", file=file)
    if stats.fingerprints_memoized:
        print(f"  {'fingerprints memoized':<22} "
              f"{stats.fingerprints_memoized:8d}", file=file)
    if stats.shared_unit_hits or stats.shared_summary_hits \
            or stats.shared_puts:
        print(f"  {'shared unit replays':<22} "
              f"{stats.shared_unit_hits:8d}", file=file)
        print(f"  {'shared summary hits':<22} "
              f"{stats.shared_summary_hits:8d} hits / "
              f"{stats.shared_summary_misses} misses", file=file)
        print(f"  {'shared puts':<22} {stats.shared_puts:8d}", file=file)
    if stats.pool_spawns:
        print(f"  {'worker pools forked':<22} {stats.pool_spawns:8d}",
              file=file)
    recovered = [(label, getattr(stats, name, 0)) for label, name in
                 (("worker respawns", "respawns"),
                  ("batch retries", "retries"),
                  ("batch bisections", "bisections"),
                  ("watchdog timeouts", "timeouts"),
                  ("poisoned functions", "poisoned"),
                  ("cache quarantines", "cache_quarantines"))]
    if any(count for _label, count in recovered):
        for label, count in recovered:
            print(f"  {label:<22} {count:8d}", file=file)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    source = _read(args.file)
    ctx, report = load_context(source, filename=args.file)
    if report.ok and not args.unchecked:
        check_program(ctx, report)
    if not report.ok:
        print(report.render())
        return 1
    if args.monitor:
        from .runtime.monitor import make_monitored
        interp = make_monitored(ctx)
        host = interp.vault_host
    else:
        host = create_host()
        interp = make_interpreter(ctx, host)
    try:
        result = interp.call(args.entry)
    except RuntimeProtocolError as err:
        print(f"runtime protocol violation: {err}")
        return 2
    print(f"{args.entry}() -> {result!r}")
    leaks = host.audit()
    if args.monitor:
        leaks = leaks + interp.monitor.audit()
    if leaks:
        print("leaked resources:", "; ".join(leaks))
        return 3
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    source = _read(args.file)
    report = check_source(source, filename=args.file)
    if not report.ok:
        print(report.render())
        return 1
    code = compile_to_python(parse_program(source, args.file))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(code)
        print(f"wrote {args.output}")
    else:
        print(code)
    return 0


def cmd_erase(args: argparse.Namespace) -> int:
    source = _read(args.file)
    program = parse_program(source, args.file)
    print(pretty(erase_program(program)), end="")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    source = _read(args.file)
    cmp = compare_sizes(source)
    rows = [[metric, str(v), str(e), f"{o:+.1%}"]
            for metric, v, e, o in cmp.rows()]
    print(format_table(["metric", "vault", "erased", "overhead"], rows))

    from .core import program_cfgs
    cfgs = program_cfgs(parse_program(source, args.file))
    if cfgs:
        print()
        cfg_rows = []
        for name, cfg in sorted(cfgs.items()):
            stats = cfg.stats()
            cfg_rows.append([name, str(stats["blocks"]),
                             str(stats["edges"]), str(stats["loops"]),
                             str(stats["unreachable"])])
        print(format_table(
            ["function", "blocks", "edges", "loops", "unreachable"],
            cfg_rows))

    # A metrics-instrumented check of the same file: the session's
    # telemetry snapshot (cache traffic, scheduler verdict, worker
    # resilience counters, diagnostic code counts) as one more stats
    # table.  ``--jobs`` > 1 exercises the supervised pool, whose
    # ``resilience.*`` counters then show up (zero on healthy runs);
    # $VAULTC_FAULTS is honoured so chaos runs are inspectable here.
    from .obs import Telemetry
    from .pipeline import CheckSession
    from .pipeline.scheduler import BREAK_EVEN_SECONDS
    telemetry = Telemetry(metrics=True)
    # Asking for workers on a stats run means "show me the pool": zero
    # break-even forces it even though one file is a tiny workload.
    break_even = 0.0 if args.jobs != 1 else BREAK_EVEN_SECONDS
    with CheckSession(telemetry=telemetry, jobs=args.jobs,
                      break_even_seconds=break_even,
                      fault_plan=_fault_plan(
                          os.environ.get("VAULTC_FAULTS"))) as session:
        session.check(source, filename=args.file)
    metric_rows = [[name, value]
                   for name, value in telemetry.metrics.render_rows()]
    if metric_rows:
        print()
        print("checker metrics (one cold check):")
        print(format_table(["metric", "value"], metric_rows))
    return 0


def cmd_fmt(args: argparse.Namespace) -> int:
    source = _read(args.file)
    formatted = pretty(parse_program(source, args.file))
    if args.in_place:
        with open(args.file, "w", encoding="utf-8") as handle:
            handle.write(formatted)
        print(f"formatted {args.file}")
    else:
        print(formatted, end="")
    return 0


def cmd_cfg(args: argparse.Namespace) -> int:
    from .core import program_cfgs
    source = _read(args.file)
    cfgs = program_cfgs(parse_program(source, args.file))
    if args.function:
        cfg = cfgs.get(args.function)
        if cfg is None:
            print(f"no function '{args.function}' in {args.file}",
                  file=sys.stderr)
            return 1
        print(cfg.render())
        return 0
    for name in sorted(cfgs):
        print(cfgs[name].render())
        print()
    return 0


def cmd_mutate(args: argparse.Namespace) -> int:
    source = _read(args.file)
    summary = run_study(source, limit=args.limit)
    rows = [[name, str(n), f"{rate:.0%}"] for name, n, rate in summary.rows()]
    rows.append(["(benign / undetected)", str(summary.benign), ""])
    print(f"{summary.total} mutants")
    print(format_table(["oracle", "detected", "rate"], rows))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .testing import derive_seed, generate_program, run_fuzz

    if args.emit is not None:
        sys.stdout.write(generate_program(args.emit).source)
        return 0

    def progress(index: int, program_seed: int, verdict: str) -> None:
        if verdict == "DIVERGED":
            print(f"[{index + 1}/{args.count}] seed {program_seed}: "
                  f"DIVERGED", flush=True)
        elif not args.quiet and (index + 1) % 25 == 0:
            print(f"[{index + 1}/{args.count}] ...", flush=True)

    report = run_fuzz(args.count, seed=args.seed, jobs=args.jobs,
                      use_daemon=not args.no_daemon,
                      use_parallel=not args.no_parallel,
                      on_program=progress)

    print(f"fuzz: seed {report.seed}, {report.count} programs via "
          f"{'/'.join(report.paths)}"
          + (f" (skipped: {'/'.join(report.skipped_paths)})"
             if report.skipped_paths else ""))
    print(f"  {report.programs_ok} checked clean, "
          f"{report.programs_rejected} rejected")
    if report.diagnostics:
        tally = ", ".join(f"{code}x{n}" for code, n
                          in sorted(report.diagnostics.items()))
        print(f"  diagnostics: {tally}")

    if args.out:
        import json
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")

    if report.divergences:
        os.makedirs(args.repro_dir, exist_ok=True)
        for record in report.divergences:
            path = os.path.join(args.repro_dir,
                                f"repro-{record.program_seed}.vlt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(record.shrunk)
            print(f"  DIVERGENCE seed {record.program_seed} "
                  f"(paths {', '.join(record.paths)}): shrunk "
                  f"reproducer written to {path}")
            print(f"    replay: vaultc fuzz --emit {record.program_seed}")
        print(f"fuzz: {len(report.divergences)} divergence(s) — the "
              f"checking paths are NOT byte-identical")
        return 1
    print("fuzz: all paths byte-identical on every program")
    return 0


def _serve_child_args(args: argparse.Namespace) -> list:
    """Rebuild the ``serve`` argv for a supervised child — this very
    invocation minus ``--supervise``."""
    argv = [sys.executable, "-m", "repro.cli", "serve"]
    if args.socket:
        argv += ["--socket", args.socket]
    if args.idle_timeout is not None:
        argv += ["--idle-timeout", str(args.idle_timeout)]
    argv += ["--jobs", str(args.jobs)]
    if args.shared_cache:
        argv += ["--shared-cache", args.shared_cache]
    argv += ["--sample-interval", str(args.sample_interval)]
    if args.prom_file:
        argv += ["--prom-file", args.prom_file]
    if args.slow_ms is not None:
        argv += ["--slow-ms", str(args.slow_ms)]
    if args.trace_dir:
        argv += ["--trace-dir", args.trace_dir]
    if args.event_log:
        argv += ["--event-log", args.event_log]
    argv += ["--max-queue", str(args.max_queue),
             "--io-timeout", str(args.io_timeout)]
    return argv


def cmd_serve(args: argparse.Namespace) -> int:
    from .obs import Telemetry, open_event_log
    from .server import serve
    if args.supervise:
        from .server import Supervisor
        telemetry = Telemetry(metrics=True)
        writer = open_event_log(args.event_log and args.event_log
                                + ".supervisor", telemetry.events)
        try:
            return Supervisor(_serve_child_args(args),
                              telemetry=telemetry).run()
        finally:
            if writer is not None:
                writer.close()
    telemetry = Telemetry(metrics=True)
    # Subscribe the audit sink before serve() so server_start itself
    # lands in the log.
    writer = open_event_log(args.event_log, telemetry.events)
    try:
        return serve(socket_path=args.socket,
                     idle_timeout=args.idle_timeout,
                     telemetry=telemetry,
                     default_jobs=args.jobs,
                     ready_out=sys.stderr,
                     shared_cache_dir=args.shared_cache,
                     sample_interval=args.sample_interval,
                     prom_file=args.prom_file,
                     slow_ms=args.slow_ms,
                     trace_dir=args.trace_dir,
                     max_queue=args.max_queue,
                     io_timeout=args.io_timeout or None)
    finally:
        if writer is not None:
            writer.close()


def cmd_top(args: argparse.Namespace) -> int:
    from .server.top import run_top
    return run_top(socket_path=args.socket, interval=args.interval,
                   once=args.once or args.json, as_json=args.json)


def cmd_cache(args: argparse.Namespace) -> int:
    import json
    if args.cache_cmd == "stats":
        if args.dir:
            from .cache import CASTier
            print(json.dumps(CASTier(args.dir).stats_snapshot(),
                             indent=2, sort_keys=True))
            return 0
        from .server.client import DaemonClient, DaemonUnavailable
        try:
            # Short read timeout: a wedged daemon is an rc-1 error,
            # not a hung CLI.
            with DaemonClient(args.daemon, read_timeout=10.0) as client:
                reply = client.stats()
        except DaemonUnavailable as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        stats = reply.get("stats") if reply.get("ok") else None
        if not isinstance(stats, dict):
            print("error: daemon returned no stats", file=sys.stderr)
            return 1
        block = stats.get("shared_cache")
        if block is None:
            print("error: daemon predates the shared cache "
                  "(no shared_cache stats block)", file=sys.stderr)
            return 1
        print(json.dumps(block, indent=2, sort_keys=True))
        return 0
    if args.cache_cmd == "gc":
        from .cache import CASTier, DEFAULT_MAX_BYTES
        max_bytes = DEFAULT_MAX_BYTES if args.max_bytes is None \
            else args.max_bytes
        report = CASTier(args.dir, max_bytes=max_bytes).gc(force=True)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    raise VaultError(f"unknown cache subcommand {args.cache_cmd!r}")


def cmd_watch(args: argparse.Namespace) -> int:
    from .server.watch import run_watch
    try:
        return run_watch(args.dir, interval=args.interval,
                         cycles=args.cycles, socket_path=args.daemon,
                         options={"jobs": args.jobs,
                                  "cache_dir": args.cache})
    except NotADirectoryError:
        print(f"error: {args.dir} is not a directory", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vaultc",
        description="Vault protocol checker/compiler "
                    "(PLDI 2001 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and protocol-check a file")
    p.add_argument("file")
    p.add_argument("--jobs", "-j", type=_parse_jobs, default=1,
                   metavar="N|auto",
                   help="check functions with N parallel workers, or "
                        "'auto' for one per CPU (output is identical "
                        "to serial mode; small workloads stay serial)")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="persist function summaries under DIR so "
                        "unchanged functions are not re-checked")
    p.add_argument("--shared-cache", default=None,
                   metavar="DIR|daemon[:SOCKET]",
                   help="share summaries and unit results across "
                        "sessions through a content-addressed store: "
                        "a directory (crash-safe on-disk CAS) or "
                        "'daemon'/'daemon:SOCKET' (a running 'vaultc "
                        "serve' as a remote cache tier); a second "
                        "cold check of identical code replays at "
                        "warm speed")
    p.add_argument("--profile", action="store_true",
                   help="print phase timings and the scheduler's "
                        "verdict to stderr")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="record a span trace of the check and write "
                        "Chrome trace-event JSON to FILE (load it in "
                        "chrome://tracing or ui.perfetto.dev; pool "
                        "workers appear as separate tracks)")
    p.add_argument("--metrics", default=None, metavar="FILE|-",
                   help="record pipeline metrics (cache hit rates, "
                        "scheduler verdicts, diagnostic-code counts); "
                        "'-' prints a table to stderr, anything else "
                        "is a path that receives JSON")
    p.add_argument("--break-even", type=float, default=None, metavar="MS",
                   help="override the scheduler's break-even threshold "
                        "in milliseconds (0 forces the worker pool; "
                        "default 50)")
    p.add_argument("--batch-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="floor for the per-batch watchdog deadline: a "
                        "worker that holds a batch longer than "
                        "max(SECONDS, cost-model estimate with headroom) "
                        "is killed and respawned (default 30)")
    p.add_argument("--inject-faults", default=None, metavar="SPEC",
                   help="deterministic chaos harness (TEST USE ONLY): "
                        "inject worker crashes/hangs/pipe EOFs/pickle "
                        "garbage and cache bit-flips, e.g. "
                        "'crash@0,hang@2,flip-cache,seed=7'; also read "
                        "from $VAULTC_FAULTS")
    p.add_argument("--daemon", nargs="?", const="auto", default=None,
                   metavar="auto|SOCKET",
                   help="route the check through a running 'vaultc "
                        "serve' daemon ('auto' or no value uses the "
                        "default socket); falls back to an in-process "
                        "check, with byte-identical diagnostics, when "
                        "no daemon is reachable")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="check then interpret a file")
    p.add_argument("file")
    p.add_argument("--entry", default="main")
    p.add_argument("--unchecked", action="store_true",
                   help="skip static checking (testing baseline)")
    p.add_argument("--monitor", action="store_true",
                   help="enforce effect clauses dynamically at run time")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("compile", help="check then emit Python")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("erase", help="print the key-erased source")
    p.add_argument("file")
    p.set_defaults(fn=cmd_erase)

    p = sub.add_parser("stats", help="annotation-overhead metrics")
    p.add_argument("file")
    p.add_argument("--jobs", "-j", type=_parse_jobs, default=1,
                   metavar="N|auto",
                   help="run the instrumented check with N pool workers "
                        "so the resilience counters (respawns, retries, "
                        "bisections, timeouts) are exercised and shown")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("fmt", help="pretty-print (normalise) a file")
    p.add_argument("file")
    p.add_argument("-i", "--in-place", action="store_true")
    p.set_defaults(fn=cmd_fmt)

    p = sub.add_parser("cfg", help="print control-flow graphs")
    p.add_argument("file")
    p.add_argument("--function", "-f", default=None)
    p.set_defaults(fn=cmd_cfg)

    p = sub.add_parser("mutate", help="seeded-fault detection study")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(fn=cmd_mutate)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated protocol programs must "
             "check byte-identically through every execution path "
             "(see docs/PROTOCOLS.md)")
    p.add_argument("--count", "-n", type=int, default=50, metavar="N",
                   help="number of programs to generate (default 50)")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="master seed; the same seed and count replay "
                        "exactly the same programs (default 0)")
    p.add_argument("--jobs", "-j", type=int, default=2, metavar="N",
                   help="worker count for the parallel path (default 2)")
    p.add_argument("--no-daemon", action="store_true",
                   help="skip the check-daemon path")
    p.add_argument("--no-parallel", action="store_true",
                   help="skip the forked worker-pool path")
    p.add_argument("--out", default=None, metavar="REPORT.json",
                   help="write the full machine-readable report here")
    p.add_argument("--repro-dir", default=".", metavar="DIR",
                   help="where shrunk reproducers are written on "
                        "divergence (default: current directory)")
    p.add_argument("--emit", type=int, default=None, metavar="SEED",
                   help="print the program for one *program* seed "
                        "(as reported in a divergence) and exit")
    p.add_argument("--quiet", "-q", action="store_true",
                   help="no periodic progress lines")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the persistent check daemon (warm caches, worker "
             "pool, Unix-socket protocol; see docs/SERVER.md)")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="Unix socket to listen on (default: "
                        "$VAULTC_SOCKET or a per-user runtime path)")
    p.add_argument("--idle-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="exit after this long with no requests "
                        "(default: run until SIGTERM/Ctrl-C)")
    p.add_argument("--jobs", "-j", type=_parse_jobs, default=1,
                   metavar="N|auto",
                   help="default worker count for requests that do "
                        "not specify one")
    p.add_argument("--shared-cache", default=None, metavar="DIR",
                   help="back the daemon-wide shared cache with a "
                        "persistent on-disk CAS under DIR (all warm "
                        "sessions and the cache_get/cache_put wire "
                        "ops read and write it)")
    p.add_argument("--sample-interval", type=float, default=5.0,
                   metavar="SECONDS",
                   help="seconds between time-series samples of the "
                        "daemon's metrics (default 5; the 'telemetry' "
                        "op and 'vaultc top' read the sampled window)")
    p.add_argument("--prom-file", default=None, metavar="PATH",
                   help="atomically rewrite PATH with Prometheus text "
                        "exposition on every sample tick (point a "
                        "textfile collector at it)")
    p.add_argument("--slow-ms", type=float, default=None, metavar="MS",
                   help="capture a Chrome-trace span tree for every "
                        "request slower than MS milliseconds into a "
                        "bounded on-disk ring (see --trace-dir)")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="directory for slow-request traces (default: "
                        "'traces' beside the socket; newest 32 kept)")
    p.add_argument("--event-log", default=None, metavar="PATH",
                   help="append every daemon event to a size-rotated "
                        "JSONL audit log at PATH")
    p.add_argument("--max-queue", type=int, default=64, metavar="N",
                   help="pending check requests buffered before the "
                        "daemon load-sheds with busy replies "
                        "(default 64)")
    p.add_argument("--io-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="reap connections that stall mid-frame for "
                        "this long (slow-loris guard; default 30, "
                        "0 disables)")
    p.add_argument("--supervise", action="store_true",
                   help="run the daemon in a child process and "
                        "respawn it on crash (crash-loop backoff, "
                        "rate-limited; clean exits end supervision)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "top",
        help="live dashboard over a running daemon's telemetry op "
             "(throughput, latency quantiles, cache hit rates, "
             "sessions, slow traces)")
    p.add_argument("socket", nargs="?", default="auto",
                   metavar="SOCKET",
                   help="daemon socket to poll (default 'auto')")
    p.add_argument("--interval", type=float, default=2.0,
                   metavar="SECONDS", help="refresh interval")
    p.add_argument("--once", action="store_true",
                   help="print one snapshot and exit")
    p.add_argument("--json", action="store_true",
                   help="print the raw telemetry reply as JSON "
                        "(implies --once)")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser(
        "cache",
        help="inspect or collect a shared result store "
             "(see --shared-cache)")
    cache_sub = p.add_subparsers(dest="cache_cmd", required=True)
    pc = cache_sub.add_parser(
        "stats", help="per-tier hit/miss/occupancy counters")
    pc.add_argument("--dir", default=None, metavar="DIR",
                    help="inspect an on-disk CAS directory instead of "
                         "a live daemon")
    pc.add_argument("--daemon", nargs="?", const="auto", default="auto",
                    metavar="auto|SOCKET",
                    help="daemon socket to query (default 'auto')")
    pc.set_defaults(fn=cmd_cache)
    pc = cache_sub.add_parser(
        "gc", help="collect an on-disk CAS down to its size budget")
    pc.add_argument("dir", metavar="DIR")
    pc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="size budget to collect toward (default "
                         "512 MiB); oldest objects are deleted first")
    pc.set_defaults(fn=cmd_cache)

    p = sub.add_parser(
        "watch",
        help="re-check .vlt files under DIR whenever they change "
             "(through the daemon when one is reachable)")
    p.add_argument("dir")
    p.add_argument("--interval", type=float, default=0.5,
                   metavar="SECONDS", help="mtime poll interval")
    p.add_argument("--cycles", type=int, default=0, metavar="N",
                   help="stop after N polls (0 = run until Ctrl-C)")
    p.add_argument("--daemon", nargs="?", const="auto", default="auto",
                   metavar="auto|SOCKET",
                   help="daemon socket to check through (default "
                        "'auto'; checks fall back in-process when no "
                        "daemon is reachable)")
    p.add_argument("--jobs", "-j", type=_parse_jobs, default=1,
                   metavar="N|auto")
    p.add_argument("--cache", default=None, metavar="DIR",
                   help="summary-cache directory for in-process "
                        "fallback checks")
    p.set_defaults(fn=cmd_watch)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except VaultError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
