"""Tests for the cost-model scheduler and the fork-server worker pool.

Covers the three behaviours the parallel layer promises:

* the LPT planner packs skewed per-function costs into balanced
  batches and falls back to serial below the break-even point, so
  ``jobs > 1`` never pessimises small workloads;
* summaries (and recorded costs) persist across *processes*: a cache
  written by one interpreter is replayed by another with zero
  functions re-checked;
* a crashing worker is surfaced (stderr warning + child traceback),
  and the serial fallback still produces byte-identical diagnostics.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro import check_source
from repro.analysis import synthesize_program
from repro.pipeline import (BREAK_EVEN_SECONDS, CheckSession, estimate_cost,
                            fork_available, plan, resolve_jobs)
from repro.syntax import ast, parse_program

UNITS = ["region"]


def _fundef(source: str) -> ast.FunDef:
    decls = parse_program(source).decls
    fundefs = [d for d in decls if isinstance(d, ast.FunDef)]
    assert len(fundefs) == 1
    return fundefs[0]


# ---------------------------------------------------------------------------
# The static cost estimator
# ---------------------------------------------------------------------------

class TestEstimator:
    def test_loops_and_branches_cost_more(self):
        straight = _fundef("int f(int x) { int y = x + 1; return y; }")
        loopy = _fundef("""\
int g(int x) {
    while (x > 0) {
        if (x > 10) { x = x - 2; } else { x = x - 1; }
    }
    return x;
}
""")
        assert estimate_cost(loopy) > 3 * estimate_cost(straight)

    def test_estimate_is_memoised_on_the_node(self):
        fundef = _fundef("int f() { return 1; }")
        assert estimate_cost(fundef) == estimate_cost(fundef)
        assert "_pl_cost" in fundef.__dict__


# ---------------------------------------------------------------------------
# LPT planning and the break-even fallback
# ---------------------------------------------------------------------------

class TestPlan:
    def test_skewed_costs_pack_into_balanced_batches(self):
        rng = random.Random(0)
        quals = [f"fn_{i}" for i in range(200)]
        costs = {q: rng.expovariate(10.0) for q in quals}
        items = [(q, None) for q in quals]
        sched = plan(items, jobs=4, recorded_costs=costs,
                     break_even_seconds=0.0)
        assert sched.parallel
        assert len(sched.batches) == 4
        # Every item lands in exactly one batch.
        flat = sorted(i for batch in sched.batches for i in batch)
        assert flat == list(range(200))
        # Batches come within 20% of each other despite the skew.
        loads = [sum(costs[quals[i]] for i in batch)
                 for batch in sched.batches]
        assert max(loads) <= min(loads) * 1.2
        assert sched.batch_costs == pytest.approx(loads)

    def test_below_break_even_stays_serial(self):
        items = [(f"fn_{i}", None) for i in range(10)]
        costs = {q: 0.001 for q, _ in items}  # 10ms total < 50ms
        sched = plan(items, jobs=4, recorded_costs=costs)
        assert not sched.parallel
        assert "break-even" in sched.reason
        assert sched.total_cost == pytest.approx(0.01)

    def test_single_worker_or_single_item_is_serial(self):
        items = [(f"fn_{i}", None) for i in range(10)]
        costs = {q: 1.0 for q, _ in items}
        assert not plan(items, jobs=1, recorded_costs=costs).parallel
        assert not plan(items[:1], jobs=4, recorded_costs=costs).parallel

    def test_serial_plan_skips_the_cost_model(self):
        # No recorded costs and no FunDef to estimate: a serial plan
        # must not look at either.
        items = [(f"fn_{i}", None) for i in range(10)]
        sched = plan(items, jobs=1)
        assert not sched.parallel and sched.reason == "single worker"
        assert not plan(items[:1], jobs=4).parallel

    def test_recorded_costs_override_the_estimate(self):
        small = _fundef("int f() { return 1; }")
        items = [("a", small), ("b", small)]
        # The estimate alone is far below break-even...
        assert not plan(items, jobs=2).parallel
        # ...but a recorded history of slow checks flips the verdict.
        sched = plan(items, jobs=2, recorded_costs={"a": 1.0, "b": 1.0})
        assert sched.parallel

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs("5") == 5
        for spec in ("auto", "", 0, -1, None):
            assert resolve_jobs(spec) >= 1
        assert BREAK_EVEN_SECONDS > 0


# ---------------------------------------------------------------------------
# Cross-process summary persistence
# ---------------------------------------------------------------------------

_WRITER = """\
import sys
from repro.pipeline import CheckSession
from repro.analysis import synthesize_program

source = synthesize_program(20, seed=9, error_rate=0.2)
session = CheckSession(units=["region"], cache_dir=sys.argv[1])
session.check(source)
assert session.stats.functions_checked > 0
print(session.stats.functions_checked)
"""


class TestCrossProcessPersistence:
    def test_cache_written_by_subprocess_replays_in_parent(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        env = dict(os.environ)
        src_root = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src_root) \
            + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _WRITER, cache_dir],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        checked_in_child = int(proc.stdout.strip())

        source = synthesize_program(20, seed=9, error_rate=0.2)
        session = CheckSession(units=UNITS, cache_dir=cache_dir)
        report = session.check(source)
        # Zero functions re-checked: every summary replayed from the
        # cache the other interpreter wrote.
        assert session.stats.functions_checked == 0
        assert session.stats.last_checked == []
        assert session.stats.functions_replayed == checked_in_child
        assert report.render() == check_source(source, units=UNITS).render()
        # Recorded costs travelled with the summaries (cache v2).
        assert len(session._cost_by_qual) == checked_in_child

    def test_version1_cache_payload_still_loads(self, tmp_path):
        import pickle
        source = synthesize_program(5, seed=2)
        writer = CheckSession(units=UNITS, cache_dir=str(tmp_path))
        writer.check(source)
        path = os.path.join(str(tmp_path), "summaries.pkl")
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        inner = pickle.loads(payload["data"])
        with open(path, "wb") as handle:
            pickle.dump({"version": 1, "summaries": inner["summaries"]},
                        handle)
        reader = CheckSession(units=UNITS, cache_dir=str(tmp_path))
        reader.check(source)
        assert reader.stats.functions_checked == 0


# ---------------------------------------------------------------------------
# Worker crashes are surfaced, not swallowed
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not fork_available(), reason="needs os.fork")
class TestWorkerCrash:
    def test_crash_warns_and_falls_back_to_serial(self, monkeypatch, capfd):
        import repro.pipeline.workers as workers

        def boom(ctx, qual, fundef, **kwargs):
            raise RuntimeError("injected worker failure")

        # Patch before the pool forks: children inherit the broken
        # checker, the parent's serial fallback does not use it.
        monkeypatch.setattr(workers, "check_function_diagnostics", boom)
        source = synthesize_program(12, seed=3, error_rate=0.3)
        expected = check_source(source, units=UNITS).render()
        with CheckSession(units=UNITS, jobs=2,
                          break_even_seconds=0.0) as session:
            rendered = session.check(source).render()
        assert rendered == expected
        assert session.stats.serial_fallbacks == 1
        err = capfd.readouterr().err
        assert "falling back to serial" in err
        assert "injected worker failure" in err  # the child's traceback

    def test_crash_emits_structured_event(self, monkeypatch, capfd):
        import repro.pipeline.workers as workers

        def boom(ctx, qual, fundef, **kwargs):
            raise RuntimeError("injected worker failure")

        monkeypatch.setattr(workers, "check_function_diagnostics", boom)
        source = synthesize_program(12, seed=3, error_rate=0.3)
        with CheckSession(units=UNITS, jobs=2,
                          break_even_seconds=0.0) as session:
            session.check(source)
        crashes = session.telemetry.events.by_kind("worker_crash")
        assert crashes
        event = crashes[0]
        assert event.fields["pid"] > 0  # the child's pid
        assert event.fields["functions"]  # the batch it was checking
        assert all(isinstance(q, str) for q in event.fields["functions"])
        assert "injected worker failure" in event.fields["traceback"]
        assert len(session.telemetry.events.by_kind("serial_fallback")) == 1
        capfd.readouterr()  # the stderr warning still fires; discard
