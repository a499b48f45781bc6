"""A fast parallel-pipeline smoke check (the ``make bench-smoke`` gate).

Runs in a few seconds on a tiny workload and asserts two properties:

* the worker pool's reason to exist — asking for ``--jobs N`` is never
  a pessimisation.  Concretely, on a multi-CPU host the parallel
  session must come within 5% of the serial cold check
  (``parallel_vs_cold >= 0.95``) — the scheduler's break-even fallback
  makes that hold even when the workload is too small for a real
  speedup.  On single-CPU hosts the timing gate is skipped (and says
  so); the byte-identity of forced-pool output is still verified, so
  the worker protocol gets exercised everywhere fork exists;

* the front-end ratchet — lex + parse must stay under a pinned
  fraction of the whole cold check on the 160-function corpus, and a
  one-chunk edit must serve >= 90% of chunks from the chunk-AST cache
  on the warm re-check.  Both are ratios of numbers measured on the same
  run, so they hold on any hardware.

Usable both as a script (``python benchmarks/bench_smoke.py``) and as
a pytest module.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.analysis import synthesize_program           # noqa: E402
from repro.obs import Telemetry                          # noqa: E402
from repro.pipeline import CheckSession, fork_available  # noqa: E402

N_FUNCTIONS = 120
N_FUNCTIONS_FRONTEND = 160
UNITS = ["region"]

#: Ceiling on (lex + parse) / cold-check wall time.  The pre-optimised
#: front-end sat at ~0.72 on this corpus; the regex lexer + inlined
#: parser hold ~0.55-0.65 even on noisy single-CPU hosts (the fraction
#: is taken as the best of three runs, since scheduling noise can only
#: inflate it).
FRONTEND_FRACTION_CEILING = 0.70

#: Floor on the chunk-AST cache hit rate across a one-chunk-edit
#: re-check.
CHUNK_CACHE_HIT_FLOOR = 0.90


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def test_parallel_never_pessimises():
    source = synthesize_program(N_FUNCTIONS, seed=13)
    cpus = _available_cpus()
    jobs = min(4, max(2, cpus))

    start = time.perf_counter()
    serial_report = CheckSession(units=UNITS).check(source)
    cold = time.perf_counter() - start

    with CheckSession(units=UNITS, jobs=jobs) as session:
        start = time.perf_counter()
        parallel_report = session.check(source)
        parallel = time.perf_counter() - start

    assert parallel_report.render() == serial_report.render(), \
        "parallel diagnostics must be byte-identical to serial"

    ratio = cold / parallel if parallel else float("inf")
    print(f"bench-smoke: {N_FUNCTIONS} fns, {cpus} CPU(s), jobs={jobs}: "
          f"serial {cold * 1000:.1f} ms, parallel {parallel * 1000:.1f} ms "
          f"(parallel_vs_cold={ratio:.2f})")

    if cpus >= 2 and fork_available():
        assert ratio >= 0.95, \
            f"--jobs {jobs} was a pessimisation: parallel_vs_cold={ratio:.2f}"
        print("bench-smoke: parallel_vs_cold >= 0.95   OK")
    else:
        print(f"bench-smoke: timing gate skipped "
              f"({cpus} CPU(s), fork_available={fork_available()})")

    if fork_available():
        # Force the pool below break-even so the worker protocol runs
        # even where the scheduler would (rightly) stay serial.
        with CheckSession(units=UNITS, jobs=2,
                          break_even_seconds=0.0) as forced:
            forced_report = forced.check(source)
            assert forced.stats.parallel_runs == 1
        assert forced_report.render() == serial_report.render(), \
            "forced worker-pool output must be byte-identical"
        print("bench-smoke: forced pool byte-identity   OK")


def test_frontend_ratchet():
    source = synthesize_program(N_FUNCTIONS_FRONTEND, seed=42)

    # Front-end share of a cold check: best of three traced runs (the
    # tracer's span totals are the same data ``--trace`` reports, and
    # timing noise can only push the fraction *up*, so min is the
    # honest estimator of what the front-end actually costs).
    best_fraction = float("inf")
    for _ in range(3):
        telemetry = Telemetry(trace=True)
        session = CheckSession(units=UNITS, telemetry=telemetry)
        start = time.perf_counter()
        session.check(source)
        wall = time.perf_counter() - start
        totals = telemetry.tracer.phase_totals()
        frontend = totals.get("lex", 0.0) + totals.get("parse", 0.0)
        best_fraction = min(best_fraction, frontend / wall)
    print(f"bench-smoke: front-end fraction {best_fraction:.2f} "
          f"(ceiling {FRONTEND_FRACTION_CEILING})")
    assert best_fraction <= FRONTEND_FRACTION_CEILING, \
        f"lex+parse take {best_fraction:.0%} of a cold check " \
        f"(ceiling {FRONTEND_FRACTION_CEILING:.0%})"

    # Chunk-AST cache hit rate across a warm one-chunk-edit re-check.
    # The edit is what forces the session back through ``_parse`` — a
    # byte-identical warm replay is served from the context cache and
    # never consults the chunk cache at all.
    session = CheckSession(units=UNITS)
    session.check(source)
    needle = "c.value += "
    at = source.index(needle, len(source) // 2)
    end = source.index(";", at)
    edited = source[:at] + "c.value += 4242" + source[end:]
    hits0, misses0 = session.stats.chunk_hits, session.stats.chunk_parses
    session.check(edited)
    hits = session.stats.chunk_hits - hits0
    misses = session.stats.chunk_parses - misses0
    rate = hits / (hits + misses) if hits + misses else 0.0
    print(f"bench-smoke: chunk-AST cache {hits} hits / {misses} misses "
          f"({rate:.1%}) on one-chunk edit")
    assert rate >= CHUNK_CACHE_HIT_FLOOR, \
        f"chunk-AST cache hit rate {rate:.1%} under " \
        f"{CHUNK_CACHE_HIT_FLOOR:.0%} on a one-chunk edit"
    print("bench-smoke: front-end ratchet   OK")


if __name__ == "__main__":
    test_parallel_never_pessimises()
    test_frontend_ratchet()
    print("bench-smoke: PASS")
