"""Metric definitions and their computation from child outputs.

``PER_LAYER`` is the layer-metric -> end-to-end-metric -> workload map
later changes cite: for each per-layer metric, the end-to-end metric
it should move, the workloads where its layer does the work, and the
workloads where it does little or none (the prediction there is no
change).  ``BENCHMARK.json`` lists the same names; its fixed schema
has no room for the map itself.

Per-layer times are self seconds per timed request (a wrapped call's
duration minus its wrapped children's), summed over every traced
process of the run -- the client and, for ``daemon_stream``, the
daemon.  Counts are per timed request.  GC figures come from the
process doing the checking (the child, or the daemon).  A layer that
did no work reads 0.

``latency_p90_ms`` is the 90th percentile of all timed requests,
except where the rows carry a ``block`` (the passes of
``daemon_stream``, each with the same mix of requests): there it is
the median over passes of each pass's 90th percentile, so a burst of
host noise in a few passes does not move it.

``peak_rss_mb`` is the median over processes of the checking
process's peak; a ``daemon_stream`` daemon's is read after
``child.RSS_PASSES`` timed passes.

``server.service_ms`` is the daemon's own ``seconds`` in each reply,
which it takes before it renders the diagnostics; so
``server.overhead_ms`` (client round trip minus service) holds the
daemon's rendering as well as framing, socket and client time.  The
rendering alone is in ``diagnostics.render_s``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

ALL = "cold_cli rebuild_j2 edit_session daemon_stream"

#: name, unit, better, moves, works on, little or no work on.
PER_LAYER: List[Tuple[str, str, str, str, str, str]] = [
    ("stdlib.base_s", "s", "lower", "setup_s", ALL, "-"),
    ("syntax.lex_s", "s", "lower", "latency_p50_ms", "cold_cli",
     "daemon_stream revisits"),
    ("syntax.parse_s", "s", "lower", "latency_p50_ms", "cold_cli",
     "daemon_stream revisits"),
    ("syntax.tokens", "count", "lower", "latency_p50_ms", "cold_cli",
     "daemon_stream revisits"),
    ("pipeline.chunks.split_s", "s", "lower", "latency_p50_ms",
     "edit_session", "rebuild_j2"),
    ("core.program.build_context_s", "s", "lower", "latency_p50_ms",
     "edit_session", "rebuild_j2"),
    ("core.checker.check_s", "s", "lower", "latency_p50_ms", "cold_cli",
     "edit_session"),
    ("core.checker.functions", "count", "lower", "latency_p50_ms",
     "cold_cli", "edit_session"),
    ("pipeline.fingerprint.time_s", "s", "lower", "latency_p50_ms",
     "edit_session rebuild_j2", "cold_cli"),
    ("pipeline.fingerprint.calls", "count", "lower", "latency_p50_ms",
     "edit_session rebuild_j2", "cold_cli"),
    ("pipeline.scheduler.plan_s", "s", "lower", "latency_p50_ms",
     "rebuild_j2", "cold_cli edit_session daemon_stream"),
    ("pipeline.workers.wait_s", "s", "lower", "latency_p50_ms",
     "rebuild_j2", "cold_cli edit_session daemon_stream"),
    ("pipeline.workers.spawn_s", "s", "lower", "latency_p50_ms",
     "rebuild_j2", "cold_cli edit_session daemon_stream"),
    ("pipeline.workers.functions", "count", "lower", "latency_p50_ms",
     "rebuild_j2", "cold_cli edit_session daemon_stream"),
    ("pipeline.session.open_s", "s", "lower", "latency_p50_ms",
     "rebuild_j2", "edit_session"),
    ("pipeline.session.self_s", "s", "lower", "latency_p50_ms",
     "edit_session daemon_stream", "cold_cli"),
    ("pipeline.session.summary_hit_ratio", "ratio", "higher",
     "latency_p50_ms", "edit_session daemon_stream", "cold_cli"),
    ("pipeline.session.context_hit_ratio", "ratio", "higher",
     "latency_p50_ms", "edit_session daemon_stream", "cold_cli"),
    ("pipeline.session.functions_checked", "count", "lower",
     "latency_p50_ms", "edit_session daemon_stream", "cold_cli"),
    ("syntax.ast_pool_hit_ratio", "ratio", "higher",
     "nothing (deletion check)", "edit_session", "cold_cli"),
    ("syntax.relex_splice_ratio", "ratio", "higher",
     "nothing (deletion check)", "edit_session", "cold_cli"),
    ("cache.shared.unit_hit_ratio", "ratio", "higher", "latency_p50_ms",
     "daemon_stream", "cold_cli rebuild_j2 edit_session"),
    ("cache.shared.get_s", "s", "lower", "latency_p50_ms",
     "daemon_stream", "cold_cli rebuild_j2 edit_session"),
    ("cache.shared.put_s", "s", "lower", "latency_p50_ms",
     "daemon_stream", "cold_cli rebuild_j2 edit_session"),
    ("diagnostics.render_s", "s", "lower", "latency_p50_ms",
     "cold_cli daemon_stream", "edit_session"),
    ("server.protocol.encode_s", "s", "lower", "latency_p50_ms",
     "daemon_stream", "cold_cli rebuild_j2 edit_session"),
    ("server.protocol.decode_s", "s", "lower", "latency_p50_ms",
     "daemon_stream", "cold_cli rebuild_j2 edit_session"),
    ("server.protocol.bytes", "bytes", "lower", "latency_p50_ms",
     "daemon_stream", "cold_cli rebuild_j2 edit_session"),
    ("server.service_ms", "ms", "lower", "latency_p50_ms",
     "daemon_stream", "-"),
    ("server.overhead_ms", "ms", "lower", "latency_p50_ms",
     "daemon_stream", "-"),
    ("gc.pause_s", "s", "lower",
     "latency_p50_ms (cold_cli), latency_p90_ms (edit_session), "
     "peak_rss_mb", ALL, "-"),
    ("gc.pause_frac", "ratio", "lower", "latency_p50_ms", ALL, "-"),
    ("gc.collections", "count", "lower", "latency_p50_ms", ALL, "-"),
    ("gc.gen2_collections", "count", "lower", "latency_p90_ms", ALL, "-"),
    ("gc.max_pause_ms", "ms", "lower", "latency_p90_ms", ALL, "-"),
    ("trace.latency_p50_ms", "ms", "lower", "-", ALL, "-"),
    ("trace.overhead_ms", "ms", "lower", "-", ALL, "-"),
]

END_TO_END = [("setup_s", "s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB")]


def quantile(values: List[float], q: float) -> float:
    """Interpolated ``q`` quantile (the median for ``q=0.5``)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100,
                                method="inclusive")[round(q * 100) - 1]


def timed_rows(children: List[dict]) -> List[dict]:
    return [r for c in children if c["timed"] for r in c["requests"]
            if r["kind"] != "prime"]


def tail_latency(children: List[dict], q: float) -> float:
    """The ``q`` quantile of the timed requests' seconds; for rows in
    passes (``block``), the median over passes of each pass's."""
    blocks: Dict[Tuple[int, int], List[float]] = {}
    for k, child in enumerate(children):
        for r in timed_rows([child]):
            if "block" in r:
                blocks.setdefault((k, r["block"]), []).append(r["seconds"])
    if blocks:
        return statistics.median(quantile(v, q) for v in blocks.values())
    return quantile([r["seconds"] for r in timed_rows(children)], q)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(children: List[dict]) -> Tuple[Dict[str, dict], List[str]]:
    timed = [c for c in children if c["timed"]]
    rows = timed_rows(timed)
    latency = [r["seconds"] for r in rows]
    values = {
        "setup_s": statistics.median(c["setup_s"] for c in timed),
        "latency_p50_ms": quantile(latency, 0.5) * 1e3,
        "latency_p90_ms": tail_latency(timed, 0.9) * 1e3,
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in timed),
    }
    notes = [f"{len(rows)} timed requests from {len(timed)} processes "
             f"(setup_s and peak_rss_mb: median over processes)"]
    for kind in sorted({r["kind"] for r in rows}):
        some = [r["seconds"] for r in rows if r["kind"] == kind]
        notes.append(f"{kind}: {len(some)} requests, p50 "
                     f"{quantile(some, 0.5) * 1e3:.3f} ms")
    return {name: _metric(values[name], unit)
            for name, unit in END_TO_END}, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: str, children: List[dict],
              daemon_outs: List[dict]) -> Tuple[Dict[str, dict], List[str]]:
    traced = [c for c in children if c["timed"] and c["traced"]]
    untraced = [c for c in children if c["timed"] and not c["traced"]]
    rows = timed_rows(traced)
    n = len(rows)
    procs = [c["layers"] for c in traced] + \
        [d["layers"] for d in daemon_outs]
    checking = daemon_outs if workload == "daemon_stream" else traced

    def self_s(layer: str) -> float:
        return sum(p["layers"][layer]["self_s"] for p in procs) / n

    def count(layer: str, k: int) -> float:
        return sum(p["layers"][layer]["counts"][k] for p in procs)

    gc_procs = [c["layers"]["gc"] for c in checking]
    pause = sum(g["pause_s"] for g in gc_procs)
    latency = [r["seconds"] for r in rows]
    base = [r["seconds"] for r in timed_rows(untraced)]
    daemon = workload == "daemon_stream"
    values = {
        "stdlib.base_s": statistics.mean(c["stdlib_s"] for c in checking),
        "syntax.lex_s": self_s("syntax.lex"),
        "syntax.parse_s": self_s("syntax.parse"),
        "syntax.tokens": count("syntax.lex", 0) / n,
        "pipeline.chunks.split_s": self_s("pipeline.chunks.split"),
        "core.program.build_context_s": self_s("core.program.build_context"),
        "core.checker.check_s": self_s("core.checker.check"),
        "core.checker.functions": count("core.checker.check", 0) / n,
        "pipeline.fingerprint.time_s": self_s("pipeline.fingerprint"),
        "pipeline.fingerprint.calls": count("pipeline.fingerprint", 0) / n,
        "pipeline.scheduler.plan_s": self_s("pipeline.scheduler.plan"),
        "pipeline.workers.wait_s": self_s("pipeline.workers.wait"),
        "pipeline.workers.spawn_s": self_s("pipeline.workers.spawn"),
        "pipeline.workers.functions":
            count("pipeline.workers.wait", 0) / n,
        "pipeline.session.open_s": self_s("pipeline.session.open"),
        "pipeline.session.self_s": self_s("pipeline.session.check"),
        "pipeline.session.summary_hit_ratio": _ratio(
            count("pipeline.session.check", 3),
            count("pipeline.session.check", 2)
            + count("pipeline.session.check", 3)),
        "pipeline.session.context_hit_ratio": _ratio(
            count("pipeline.session.check", 0),
            count("pipeline.session.check", 0)
            + count("pipeline.session.check", 1)),
        "pipeline.session.functions_checked":
            count("pipeline.session.check", 2) / n,
        "syntax.ast_pool_hit_ratio": _ratio(
            count("syntax.parse", 0),
            count("syntax.parse", 0) + count("syntax.parse", 1)),
        "syntax.relex_splice_ratio": _ratio(count("syntax.relex", 1),
                                            count("syntax.relex", 0)),
        "cache.shared.unit_hit_ratio": _ratio(
            count("pipeline.session.check", 4),
            count("pipeline.session.check", 4)
            + count("pipeline.session.check", 5)),
        "cache.shared.get_s": self_s("cache.shared.get"),
        "cache.shared.put_s": self_s("cache.shared.put"),
        "diagnostics.render_s": self_s("diagnostics.render"),
        "server.protocol.encode_s": self_s("server.protocol.encode"),
        "server.protocol.decode_s": self_s("server.protocol.decode"),
        "server.protocol.bytes": count("server.protocol.encode", 0) / n,
        "server.service_ms": quantile(
            [r["service"] for r in rows], 0.5) * 1e3 if daemon else 0.0,
        "server.overhead_ms": quantile(
            [r["seconds"] - r["service"] for r in rows], 0.5) * 1e3
        if daemon else 0.0,
        "gc.pause_s": pause / n,
        "gc.pause_frac": _ratio(pause, sum(latency)),
        "gc.collections": sum(g["collections"] for g in gc_procs) / n,
        "gc.gen2_collections":
            sum(g["gen2_collections"] for g in gc_procs) / n,
        "gc.max_pause_ms": max(g["max_pause_s"] for g in gc_procs) * 1e3,
        "trace.latency_p50_ms": quantile(latency, 0.5) * 1e3,
        "trace.overhead_ms": (quantile(latency, 0.5)
                              - quantile(base, 0.5)) * 1e3,
    }
    missing = sorted({m for p in procs for m in p["missing"]})
    dropped = sum(p["dropped"] for p in procs)
    notes = [f"{n} traced requests from {len(traced)} processes; "
             f"{len(base)} untraced requests for the overhead"]
    if missing:
        notes.append("layers not found (read as 0): " + ", ".join(missing))
    if dropped:
        notes.append(f"{dropped} spans past the per-process cap were "
                     f"counted in no layer")
    return {name: _metric(values[name], unit)
            for name, unit, *_rest in PER_LAYER}, notes
