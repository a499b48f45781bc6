"""Fast tests for the benchmark's own code: generator determinism, the
answer tables, the verdict gate and the wrappers' self-time
arithmetic."""

from __future__ import annotations

import json
import os
import random
import time

import pytest

import gen
import layers
import metrics
import run
import verdict


def _bytes(unit: gen.Unit) -> str:
    return json.dumps(unit.to_json(), sort_keys=True)


# -- generator determinism ----------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda s: gen.region_unit("r.vlt", 40, s, helpers=3),
    lambda s: gen.protocol_unit("p.vlt", s, n_protocols=3, n_clients=8),
    gen.cold_unit,
])
def test_same_seed_same_bytes_and_answers(make):
    assert _bytes(make(7)) == _bytes(make(7))
    assert _bytes(make(7)) != _bytes(make(8))


def test_workload_inputs_are_deterministic():
    assert gen.digest(gen.daemon_units(3)) == gen.digest(gen.daemon_units(3))
    assert len(gen.daemon_units(3)) == gen.DAEMON_UNITS
    unit = gen.edit_unit(2)
    one = run.edit_script(unit, random.Random("s"))
    assert one == run.edit_script(unit, random.Random("s"))
    kinds = [step[0] for step in one[:10]]
    assert sorted(kinds) == sorted(run.EDIT_MIX)
    assert gen.rebuild_edit(unit, 4) == gen.rebuild_edit(unit, 4)


def test_bug_share_and_decl_lines():
    unit = gen.region_unit("r.vlt", 200, 1, bug_share=0.05)
    assert sum(1 for codes in unit.expect.values() if codes) == 10
    lines = unit.text.split("\n")
    for line, name in unit.decls:
        if name != "<decl>":
            assert f" {name}(" in lines[line - 1]


def test_edits_keep_lines_and_touch_one_place():
    unit = gen.edit_unit(5)
    body = gen.body_edit(unit, unit.text, "worker_3", 77)
    helper = gen.helper_edit(unit, unit.text, "helper_1", 9)
    for text in (body, helper):
        assert text.count("\n") == unit.text.count("\n")
        assert text != unit.text
    assert "int v9) [R]" in helper and "value = v9;" in helper
    text, name, line = gen.appended_edit(unit, 12)
    assert text.split("\n")[line - 1].startswith(f"int {name}(")


# -- answer tables against the checker ----------------------------------------

def _codes(text: str, decls):
    from repro import check_source
    return verdict.codes_by_function(check_source(text, "t.vlt").render(),
                                     decls)


HAND_WRITTEN = """\
struct cell { int value; }
int fine(int x) {
    tracked(R) region rgn = Region.create();
    R:cell c = new(rgn) cell { value = x; };
    int r = c.value;
    Region.delete(rgn);
    return r;
}
int leaky(int x) {
    tracked(R) region rgn = Region.create();
    return x;
}
int dangling(int x) {
    tracked(R) region rgn = Region.create();
    R:cell c = new(rgn) cell { value = x; };
    Region.delete(rgn);
    return c.value;
}
int twice(int x) {
    tracked(R) region rgn = Region.create();
    Region.delete(rgn);
    Region.delete(rgn);
    return x;
}
"""
HAND_DECLS = [(1, "<decl>"), (2, "fine"), (9, "leaky"), (13, "dangling"),
              (19, "twice")]


def test_hand_written_unit_matches_bug_codes():
    assert _codes(HAND_WRITTEN, HAND_DECLS) == {
        "leaky": gen.BUG_CODES["leak"],
        "dangling": gen.BUG_CODES["dangle"],
        "twice": gen.BUG_CODES["double"]}


def test_generated_answers_hold_on_small_units():
    from repro import check_source
    units = [gen.region_unit("r.vlt", 12, 1, bug_share=0.5, helpers=2),
             gen.protocol_unit("p.vlt", 11, n_protocols=2, n_clients=10),
             gen.warmup_unit()] + gen.paper_units()
    for unit in units:
        render = check_source(unit.text, unit.filename).render()
        assert verdict.mismatches(render, unit.decls, unit.expect) == [], \
            unit.filename
    assert {c for u in units for codes in u.expect.values()
            for c in codes} >= {"V0300", "V0301", "V0302", "V0303"}


# -- verdict gate -------------------------------------------------------------

RENDER = """\
a.vlt:3:5: error [V0302] key r is still held
      3 |     return x;
         |     ^
a.vlt:7:1: error [V0301] wrong state
a.vlt:8:1: warning [V0303] consumed
"""


def test_codes_are_charged_to_the_enclosing_declaration():
    decls = [(2, "f"), (6, "g")]
    assert verdict.codes_by_function(RENDER, decls) == {
        "f": ["V0302"], "g": ["V0301", "V0303"]}
    assert verdict.codes_by_function(RENDER, [(5, "g")])[
        verdict.PRELUDE] == ["V0302"]


def test_mismatches_list_missing_and_unexpected_codes():
    decls = [(2, "f"), (6, "g"), (10, "h")]
    expect = {"f": ["V0302"], "g": ["V0301"], "h": ["V0300"]}
    assert verdict.mismatches(RENDER, decls, expect) == [
        ("g", ["V0301"], ["V0301", "V0303"]), ("h", ["V0300"], [])]


def test_a_raising_check_is_a_failed_request():
    import child
    unit = gen.region_unit("r.vlt", 3, 1)

    def check():
        raise ValueError("boom")
    row = child.in_process("edit", unit, check)
    assert row["failure"] == "raised ValueError: boom"
    assert row["unit"] == "r.vlt" and row["mismatches"] == []
    ok = child.in_process("edit", unit,
                          lambda: "r.vlt: OK (protocols verified)")
    assert ok["failure"] == "" and ok["mismatches"] == []


def test_edit_mode_answers_every_request_kind(tmp_path):
    import child
    unit = gen.region_unit("e.vlt", 12, 3, helpers=2)
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(unit.to_json()))
    script = [["unchanged", "", 0], ["body", "worker_1", 77],
              ["helper", "helper_0", 5], ["unchanged", "", 0]]
    out = child.run_edit({"unit": str(path), "first_edit":
                          ["body", "worker_2", 50], "script": script,
                          "seconds": 0, "min_requests": len(script)})
    kinds = [r["kind"] for r in out["requests"]]
    assert kinds == ["prime", "prime"] + [s[0] for s in script]
    assert all(not r["failure"] and not r["mismatches"]
               for r in out["requests"])


# -- wrappers -----------------------------------------------------------------

def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_excludes_nested_spans():
    rec = layers.Recorder()
    inner = rec.wrap("syntax.lex", lambda: _busy(0.01) or [1, 2, 3],
                     None, layers.TARGETS["syntax.lex"][3])

    def outer_body():
        _busy(0.005)
        inner()
        inner()
        return "done"

    outer = rec.wrap("syntax.parse", outer_body, None, layers._none)
    assert outer() == "done"
    rows = list(rec.rows())
    lex = [r for r in rows if r[0] == layers.LAYERS.index("syntax.lex")]
    (parse,) = [r for r in rows
                if r[0] == layers.LAYERS.index("syntax.parse")]
    assert len(lex) == 2
    assert all(r[3] == parse[2] for r in lex)          # parent id
    assert parse[3] == 0
    assert parse[6] == pytest.approx(parse[5] - lex[0][5] - lex[1][5],
                                     abs=1e-12)
    agg = rec.aggregate()["layers"]
    assert agg["syntax.lex"]["counts"][0] == 6          # tokens
    assert agg["syntax.lex"]["spans"] == 2
    assert agg["syntax.parse"]["self_s"] == pytest.approx(parse[6])
    assert rec.aggregate(t0=parse[4] + parse[5])["layers"][
        "syntax.lex"]["spans"] == 0


def test_a_raising_call_still_closes_its_span():
    rec = layers.Recorder()

    def boom():
        raise ValueError("x")

    wrapped = rec.wrap("syntax.lex", boom, None,
                       layers.TARGETS["syntax.lex"][3])
    with pytest.raises(ValueError):
        wrapped()
    assert rec.aggregate()["layers"]["syntax.lex"]["spans"] == 1
    assert rec._stack() == []


def test_install_rebinds_every_alias_and_uninstall_restores():
    import repro.api
    import repro.syntax
    import repro.syntax.parser
    original = repro.syntax.parser.parse_program
    rec = layers.Recorder().install()
    try:
        assert repro.api.parse_program is not original
        assert repro.api.parse_program is repro.syntax.parse_program
        assert repro.api.parse_program.__wrapped__ is original
        repro.api.check_source("int f(int x) { return x; }\n")
        agg = rec.aggregate()["layers"]
        assert agg["syntax.parse"]["spans"] >= 1
        assert agg["core.checker.check"]["counts"][0] == 1
    finally:
        rec.uninstall()
    assert repro.api.parse_program is original
    from repro.obs.trace import validate_chrome_trace
    payload = {"traceEvents": rec.chrome_events("test")}
    assert validate_chrome_trace(payload) == []


def test_quantile_and_layer_table():
    assert metrics.quantile([3.0], 0.9) == 3.0
    assert metrics.quantile([1.0, 2.0, 3.0], 0.5) == 2.0
    names = [row[0] for row in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    with open(os.path.join(run.HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == names
    assert sorted(m["name"] for m in bench["end_to_end"]) == sorted(
        name for name, _unit in metrics.END_TO_END)


def test_tail_latency_is_the_median_over_passes():
    def child(passes):
        return {"timed": True, "requests": [
            {"kind": "revisit", "seconds": s, "block": b}
            for b, secs in enumerate(passes) for s in secs]}
    calm = [float(s) for s in range(1, 11)]
    burst = [s + 100.0 for s in calm]
    # One noisy pass out of three does not move the result.
    assert metrics.tail_latency([child([calm, burst, calm])], 0.9) == \
        metrics.quantile(calm, 0.9)
    # Passes of different processes are not merged.
    assert metrics.tail_latency([child([calm]), child([calm]),
                                 child([burst])], 0.9) == \
        metrics.quantile(calm, 0.9)
    # Rows without passes: the plain quantile.
    flat = {"timed": True, "requests": [
        {"kind": "cold", "seconds": s} for s in calm + burst]}
    assert metrics.tail_latency([flat], 0.9) == \
        metrics.quantile(calm + burst, 0.9)
