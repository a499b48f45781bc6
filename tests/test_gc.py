"""The garbage-collector contract of a check.

A check must leave no cyclic garbage: the context, AST and per-function
checker state it builds are freed by reference counting as soon as
they are dropped, so the cyclic collector never has work to do on the
checker's heap.  And the check-scoped gen-0 threshold
(:func:`repro.obs.gcscope.check_gc_scope`) must always hand the
caller's GC settings back unchanged.
"""

from __future__ import annotations

import gc
import threading
from pathlib import Path

import pytest

from repro import check_source
from repro.diagnostics import VaultError
from repro.obs.gcscope import CHECK_GEN0_THRESHOLD, check_gc_scope
from repro.pipeline import CheckSession
from repro.syntax import Token

REPO = Path(__file__).resolve().parent.parent

WORKER = """
int worker_{i}(int input) {{
    tracked(R) region rgn = Region.create();
    R:cell c = new(rgn) cell {{ value = input; extra = 0; }};
    c.value += helper({bump});
    if (c.value > 10) {{
        c.extra = c.value * 2;
    }} else {{
        c.extra = c.value - 1;
    }}
    int result = c.value + c.extra;
    Region.delete(rgn);
    return result;
}}
"""

LEAK = """
void leaky() {
    tracked(R) region rgn = Region.create();
}
"""


def region_unit(param: str = "v", bump: int = 1, workers: int = 24) -> str:
    """A multi-function region unit: a helper, ``workers`` callers of
    it (``worker_0`` adds ``bump``) and one leaking function."""
    helper = f"int helper(int {param}) {{ return {param} + 1; }}\n"
    return ("struct cell { int value; int extra; }\n" + helper
            + "".join(WORKER.format(i=i, bump=bump if i == 0 else i)
                      for i in range(workers))
            + LEAK)


def cyclic_garbage(check) -> int:
    """Objects the cyclic collector frees after ``check()`` runs with
    automatic collection off."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        check()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def restore_gc():
    """Put the process's GC settings back whatever a test does."""
    thresholds = gc.get_threshold()
    enabled = gc.isenabled()
    yield
    gc.set_threshold(*thresholds)
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestNoCyclicGarbage:
    def test_cold_region_unit(self):
        source = region_unit()

        def check():
            report = check_source(source, "region_unit.vlt")
            assert len(report.errors) == 1
            report.render()

        check()   # loads lazy imports and the stdlib base context
        assert cyclic_garbage(check) == 0

    def test_cold_paper_programs(self):
        # floppy.vlt and protocol_gallery.vlt pass function values
        # where function types are expected (match_signatures).
        sources = [(path, (REPO / path).read_text(encoding="utf-8"))
                   for path in ("src/repro/drivers/vault/floppy.vlt",
                                "examples/protocol_gallery.vlt")]

        def check():
            for path, text in sources:
                check_source(text, path).render()

        check()
        assert cyclic_garbage(check) == 0

    def test_warm_body_edit(self):
        session = CheckSession()
        session.check(region_unit(bump=2), "unit.vlt")
        session.check(region_unit(bump=3), "unit.vlt")

        def check():
            session.check(region_unit(bump=4), "unit.vlt").render()
            assert session.stats.last_checked == ["worker_0"]

        assert cyclic_garbage(check) == 0

    def test_warm_helper_interface_edit(self):
        session = CheckSession()
        session.check(region_unit(param="v"), "unit.vlt")
        session.check(region_unit(param="w"), "unit.vlt")

        def check():
            session.check(region_unit(param="x"), "unit.vlt").render()
            assert "helper" in session.stats.last_checked

        assert cyclic_garbage(check) == 0


def live_tokens() -> int:
    gc.collect()
    return sum(isinstance(obj, Token) for obj in gc.get_objects())


class TestWarmSessionHeap:
    def test_warm_session_keeps_no_tokens(self):
        # The front end caches one (AST, interface digest) pair per
        # chunk; a chunk's token stream must die with its parse.
        source = (REPO / "examples/protocol_gallery.vlt").read_text(
            encoding="utf-8")
        check_source(source, "protocol_gallery.vlt")  # warm the stdlib
        before = live_tokens()
        session = CheckSession()
        session.check(source, "protocol_gallery.vlt")
        session.check(source.replace("\n\n", "\n\n\n", 1),
                      "protocol_gallery.vlt")
        assert session.stats.chunk_parses > 0
        assert live_tokens() <= before


@pytest.mark.usefixtures("restore_gc")
class TestCheckGCScope:
    def test_raises_gen0_then_restores(self):
        gc.set_threshold(555, 7, 3)
        with check_gc_scope():
            assert gc.get_threshold() == (CHECK_GEN0_THRESHOLD, 7, 3)
        assert gc.get_threshold() == (555, 7, 3)
        assert check_source(region_unit(workers=2)).errors
        assert gc.get_threshold() == (555, 7, 3)

    def test_restores_after_a_raising_check(self):
        gc.set_threshold(555, 7, 3)
        with pytest.raises(RuntimeError):
            with check_gc_scope():
                raise RuntimeError("boom")
        assert gc.get_threshold() == (555, 7, 3)
        with pytest.raises(VaultError):
            check_source("int broken( {")
        assert gc.get_threshold() == (555, 7, 3)
        with pytest.raises(VaultError):
            CheckSession().check("int broken( {")
        assert gc.get_threshold() == (555, 7, 3)

    def test_nested_entries_restore_once(self):
        gc.set_threshold(555, 7, 3)
        callbacks = len(gc.callbacks)
        with check_gc_scope():
            with check_gc_scope():
                assert len(gc.callbacks) == callbacks + 1
            assert gc.get_threshold() == (CHECK_GEN0_THRESHOLD, 7, 3)
            assert len(gc.callbacks) == callbacks + 1
        assert gc.get_threshold() == (555, 7, 3)
        assert len(gc.callbacks) == callbacks

    def test_concurrent_checks_restore_once(self):
        gc.set_threshold(555, 7, 3)
        callbacks = len(gc.callbacks)
        entered = [threading.Event(), threading.Event()]
        leave = [threading.Event(), threading.Event()]
        errors = []

        def worker(i: int) -> None:
            try:
                with check_gc_scope():
                    entered[i].set()
                    leave[i].wait(10)
                    check_source(region_unit(workers=2))
            except BaseException as exc:   # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(2)]
        threads[0].start()
        assert entered[0].wait(10)
        threads[1].start()
        assert entered[1].wait(10)
        # The first thread leaves while the second is still checking.
        leave[0].set()
        threads[0].join(30)
        assert not threads[0].is_alive()
        assert gc.get_threshold() == (CHECK_GEN0_THRESHOLD, 7, 3)
        leave[1].set()
        threads[1].join(30)
        assert not threads[1].is_alive()
        assert not errors
        assert gc.get_threshold() == (555, 7, 3)
        assert len(gc.callbacks) == callbacks

    def test_keeps_a_larger_caller_threshold(self):
        gc.set_threshold(CHECK_GEN0_THRESHOLD * 2, 7, 3)
        with check_gc_scope():
            assert gc.get_threshold() == (CHECK_GEN0_THRESHOLD * 2, 7, 3)
        check_source(region_unit(workers=2))
        assert gc.get_threshold() == (CHECK_GEN0_THRESHOLD * 2, 7, 3)

    def test_keeps_a_disabled_threshold(self):
        gc.set_threshold(0, 7, 3)
        with check_gc_scope():
            assert gc.get_threshold() == (0, 7, 3)
        assert gc.get_threshold() == (0, 7, 3)

    def test_leaves_gc_disabled(self):
        gc.disable()
        with check_gc_scope():
            assert not gc.isenabled()
        check_source(region_unit(workers=2))
        CheckSession().check(region_unit(workers=2))
        assert not gc.isenabled()

    def test_snapshot_counts_collections(self):
        with check_gc_scope() as scope:
            gc.collect()
            stats = scope.snapshot()
        assert stats["collections"] >= 1
        assert stats["gen2_collections"] >= 1
        assert stats["pause_seconds"] > 0.0

    def test_session_profile_carries_gc_stats(self):
        session = CheckSession()
        session.check(region_unit(workers=2))
        stats = session.last_profile["gc"]
        assert set(stats) == {"pause_seconds", "collections",
                              "gen2_collections"}
