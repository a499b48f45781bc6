"""One command for the whole benchmark: every workload, untraced and
traced, in one table.

Run from the repository root::

    python3 perfbench/report.py --seed 1

For every workload it runs ``run.py`` for ``BENCHMARK.json``'s
``run_seconds``, with ``--trace 0`` (the end-to-end metrics) and
``--trace 1`` (the per-layer metrics), then prints each end-to-end
metric by name with its unit, the verdict failures, the tracing
overhead, and the per-layer table with the metric map from
``metrics.PER_LAYER``.  Exits 1 when any verdict was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import RUNNERS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with "
                         f"{proc.returncode}")
    path = os.path.join(".perfbench_out",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    cols = list(RUNNERS)
    plain = {w: run_one(w, args.seed, seconds, 0) for w in cols}
    traced = {w: run_one(w, args.seed, seconds, 1) for w in cols}
    head = f"{'metric':<36} {'unit':<6}" + "".join(f"{w:>15}" for w in cols)
    print(f"host: {json.dumps(plain[cols[0]]['host'], sort_keys=True)}")
    print("\nend to end (untraced runs)")
    print(head)
    for name, unit in END_TO_END:
        print(f"{name:<36} {unit:<6}" + "".join(
            f"{plain[w]['metrics'][name]['value']:>15.4g}" for w in cols))
    for label, records in (("untraced", plain), ("traced", traced)):
        print(f"{'failed_frac (' + label + ')':<36} {'ratio':<6}" + "".join(
            f"{records[w]['failed'] / records[w]['attempted']:>15.4g}"
            for w in cols))
    print(f"{'trace.overhead_ms':<36} {'ms':<6}" + "".join(
        f"{traced[w]['metrics']['trace.overhead_ms']['value']:>15.4g}"
        for w in cols))
    print(f"{'inputs sha256':<43}" + "".join(
        f"{plain[w]['inputs_sha256'][:12]:>15}" for w in cols))
    print("\nper layer (traced runs; 0 = the layer did no work)")
    print(head + "  moves / works on / little or no work on")
    for name, unit, _better, moves, busy, idle in PER_LAYER:
        print(f"{name:<36} {unit:<6}" + "".join(
            f"{traced[w]['metrics'][name]['value']:>15.4g}" for w in cols)
            + f"  {moves} / {busy} / {idle}")
    wrong = [(w, r) for records in (plain, traced)
             for w, r in records.items() if not r["correct"]]
    for workload, record in wrong:
        print(f"WRONG VERDICTS in {workload} (trace {record['trace']}): "
              f"{record['failed']} of {record['attempted']} requests")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
