"""CLI tests for ``vaultc``."""

import json
import os
import re

import pytest

from repro.cli import main

GOOD = """
struct point { int x; int y; }
int main() {
    tracked(R) region rgn = Region.create();
    R:point pt = new(rgn) point {x=1; y=2;};
    int v = pt.x + pt.y;
    Region.delete(rgn);
    return v;
}
"""

LEAKY = """
void main() {
    tracked(R) region rgn = Region.create();
}
"""


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.vlt"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def leaky_file(tmp_path):
    path = tmp_path / "leaky.vlt"
    path.write_text(LEAKY)
    return str(path)


class TestCheck:
    def test_check_good(self, good_file, capsys):
        assert main(["check", good_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_leaky(self, leaky_file, capsys):
        assert main(["check", leaky_file]) == 1
        assert "V0302" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.vlt"]) == 1


class TestRun:
    def test_run_good(self, good_file, capsys):
        assert main(["run", good_file]) == 0
        assert "-> 3" in capsys.readouterr().out

    def test_run_rejects_leaky(self, leaky_file):
        assert main(["run", leaky_file]) == 1

    def test_run_unchecked_reports_leak(self, leaky_file, capsys):
        rc = main(["run", leaky_file, "--unchecked"])
        assert rc == 3
        assert "leak" in capsys.readouterr().out.lower()


class TestCompileEraseStats:
    def test_compile_to_stdout(self, good_file, capsys):
        assert main(["compile", good_file]) == 0
        out = capsys.readouterr().out
        assert "def main(" in out

    def test_compile_to_file(self, good_file, tmp_path):
        out_path = str(tmp_path / "out.py")
        assert main(["compile", good_file, "-o", out_path]) == 0
        assert os.path.exists(out_path)

    def test_erase(self, good_file, capsys):
        assert main(["erase", good_file]) == 0
        out = capsys.readouterr().out
        assert "tracked" not in out
        assert "R:" not in out

    def test_stats(self, good_file, capsys):
        assert main(["stats", good_file]) == 0
        out = capsys.readouterr().out
        assert "tokens" in out

    def test_mutate(self, good_file, capsys):
        assert main(["mutate", good_file, "--limit", "4"]) == 0
        out = capsys.readouterr().out
        assert "Vault checker" in out

    def test_fmt_prints_normalised_source(self, good_file, capsys):
        assert main(["fmt", good_file]) == 0
        out = capsys.readouterr().out
        from repro.syntax import parse_program, pretty
        assert pretty(parse_program(out)) == out

    def test_fmt_in_place(self, good_file, capsys):
        assert main(["fmt", good_file, "-i"]) == 0
        assert main(["check", good_file]) == 0

    def test_cfg_all(self, good_file, capsys):
        assert main(["cfg", good_file]) == 0
        out = capsys.readouterr().out
        assert "cfg main:" in out
        assert "(entry)" in out

    def test_cfg_single_function(self, good_file, capsys):
        assert main(["cfg", good_file, "-f", "main"]) == 0
        assert "cfg main:" in capsys.readouterr().out

    def test_cfg_unknown_function(self, good_file, capsys):
        assert main(["cfg", good_file, "-f", "nope"]) == 1

    def test_run_monitor_clean(self, good_file, capsys):
        assert main(["run", good_file, "--monitor"]) == 0

    def test_run_monitor_detects_leak(self, leaky_file, capsys):
        rc = main(["run", leaky_file, "--unchecked", "--monitor"])
        assert rc == 3

    def test_stats_includes_checker_metrics(self, good_file, capsys):
        assert main(["stats", good_file]) == 0
        out = capsys.readouterr().out
        assert "checker metrics (one cold check):" in out
        assert "cache.context.misses" in out


class TestObservability:
    def test_profile_output_shape(self, good_file, capsys):
        assert main(["check", good_file, "--profile"]) == 0
        err = capsys.readouterr().err
        assert "profile:" in err
        assert "context" in err and "ms" in err
        assert "check" in err
        assert "functions checked" in err
        assert "functions replayed" in err
        # One GC row from the check's gc.callbacks hook.
        gc_rows = re.findall(
            r"^  gc +\d+\.\d ms in \d+ collections \(\d+ gen-2\)$",
            err, re.M)
        assert len(gc_rows) == 1, err

    def test_trace_emits_valid_chrome_json(self, good_file, tmp_path,
                                           capsys):
        from repro.obs import validate_chrome_trace
        trace_path = str(tmp_path / "trace.json")
        assert main(["check", good_file, "--trace", trace_path]) == 0
        with open(trace_path) as handle:
            payload = json.load(handle)
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        for event in events:
            for key in ("name", "ph", "ts", "pid"):
                assert key in event
        names = {e["name"] for e in events}
        assert {"check_unit", "lex", "parse", "elaborate"} <= names

    def test_trace_written_even_for_rejected_program(self, leaky_file,
                                                     tmp_path, capsys):
        from repro.obs import validate_chrome_trace
        trace_path = str(tmp_path / "trace.json")
        assert main(["check", leaky_file, "--trace", trace_path]) == 1
        with open(trace_path) as handle:
            assert validate_chrome_trace(json.load(handle)) == []

    def test_metrics_table_on_stderr(self, good_file, capsys):
        assert main(["check", good_file, "--metrics", "-"]) == 0
        err = capsys.readouterr().err
        assert "metrics:" in err
        assert "cache.context.misses" in err
        assert "diagnostics" not in err  # clean program: no codes counted

    def test_metrics_json_file(self, leaky_file, tmp_path, capsys):
        metrics_path = str(tmp_path / "metrics.json")
        assert main(["check", leaky_file, "--metrics", metrics_path]) == 1
        with open(metrics_path) as handle:
            snap = json.load(handle)
        assert snap["cache.context.misses"]["value"] == 1
        assert snap["diagnostics.V0302"]["value"] >= 1
        assert snap["check.function_seconds"]["type"] == "histogram"

    def test_disabled_instrumentation_records_nothing(self, good_file):
        from repro.pipeline import CheckSession
        session = CheckSession()
        with open(good_file) as handle:
            report = session.check(handle.read())
        assert report.ok
        assert session.telemetry.metrics.snapshot() == {}
        assert list(session.telemetry.tracer.events) == []
        snap = session.telemetry.snapshot()
        assert snap["metrics"] == {}
