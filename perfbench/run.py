"""perfbench: the repository's benchmark (see ``BENCHMARK.json``).

Run from the repository root::

    python3 perfbench/run.py --workload cold_cli --seed 1 \
        --seconds 22 --trace 0

Workloads (closed loop, one client; every sample or segment runs in a
fresh child process, see ``child.py``):

* ``cold_cli`` -- ``repro.check_source`` + render of a seeded
  1280-function region unit, one fresh process per sample;
* ``rebuild_j2`` -- ``CheckSession(jobs=min(2, CPUs), cache_dir=D)``
  over a summary cache primed with the base, checking the base with a
  seeded quarter of the bodies edited, one fresh process per sample;
* ``edit_session`` -- one warm ``CheckSession`` over a 640-function
  unit with helpers, 70% body edits / 20% unchanged re-checks / 10%
  helper interface edits;
* ``daemon_stream`` -- a ``vaultc serve`` subprocess and one
  ``DaemonClient`` going round robin over 128 units (the frozen paper
  corpus plus seeded units), one revisit in four with a fresh edit,
  which a peer connection with other options (so another warm
  session) re-sends at once and the daemon answers from its L2; the
  client and the daemon share one CPU.

Every request's per-function diagnostic codes are checked against the
known answer.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a separate traced run (``metrics.py``), and the Chrome
trace is written under ``.perfbench_out/``.  The lines before it are
the human-readable report: host, input digest, every metric with its
unit, and each verdict mismatch by unit and function.

Exits 2 without a result when the package source (``src/repro``) is
not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from metrics import end_to_end, per_layer  # noqa: E402

#: fresh processes per run for the one-process-per-sample workloads.
MIN_SAMPLES = 4
#: child processes (each with its own set-up) a long-lived workload's
#: run is split into, so ``setup_s`` is a median of several set-ups
#: (the daemon's set-up, its first pass over every unit, is longer).
SEGMENTS = {"edit_session": 3, "daemon_stream": 2}
#: requests an ``edit_session`` segment makes at least.
MIN_SEGMENT_REQUESTS = 40
#: a child that runs longer than this is a hung benchmark.
CHILD_TIMEOUT = 170.0
#: request kinds in every block of ten ``edit_session`` requests.
EDIT_MIX = ("body",) * 7 + ("unchanged",) * 2 + ("helper",)
#: blocks of ten in one ``edit_session`` segment's script (it repeats
#: if a segment makes more requests).
EDIT_BLOCKS = 300


class Run:
    """One benchmark run: its arguments, directories and children."""

    def __init__(self, args: argparse.Namespace, root: str):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = os.path.join(".perfbench_work",
                                 f"{self.workload}-{os.getpid()}")
        self.out_dir = ".perfbench_out"
        os.makedirs(self.work, exist_ok=True)
        os.makedirs(self.out_dir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.children: List[dict] = []
        self.daemon_outs: List[dict] = []
        #: host facts a workload adds (the jobs ``rebuild_j2`` used).
        self.info: Dict[str, object] = {}
        #: generated inputs besides the units (edit scripts, edited
        #: texts); they go into the input digest.
        self.inputs: List[str] = []
        self._n = 0
        self.warmup_path = self.write_json("warmup.json",
                                           gen.warmup_unit().to_json())

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def write_json(self, name: str, obj) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle)
        return path

    def spawn(self, mode: str, spec: dict, traced: bool = False,
              timed: bool = True) -> dict:
        """Run one child to completion; returns its output plus
        ``setup_s`` (child start to ready) and ``traced``."""
        self._n += 1
        spec = dict(spec, src=self.src, trace=traced,
                    warmup=self.warmup_path)
        spec_path = self.write_json(f"spec{self._n}.json", spec)
        out_path = self.path(f"out{self._n}.json")
        log_path = self.path(f"child{self._n}.log")
        started = time.monotonic()
        with open(log_path, "w", encoding="utf-8") as log:
            # Its own session, so a hung child goes down together with
            # any daemon it started.
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), mode,
                 spec_path, out_path],
                env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            try:
                proc.wait(timeout=CHILD_TIMEOUT)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        if proc.returncode != 0:
            with open(log_path, encoding="utf-8") as log:
                raise RuntimeError(f"{mode} child exited with "
                                   f"{proc.returncode}:\n{log.read()}")
        with open(out_path, encoding="utf-8") as handle:
            out = json.load(handle)
        out["setup_s"] = out["ready"] - started
        out["traced"] = traced
        out["timed"] = timed
        self.children.append(out)
        return out

    def until_deadline(self, minimum: int):
        """Sample indices until ``seconds`` have passed (and at least
        ``minimum`` samples ran)."""
        deadline = time.monotonic() + self.seconds
        i = 0
        while time.monotonic() < deadline or i < minimum:
            yield i
            i += 1

    def traced_sample(self, i: int) -> bool:
        """In a traced run, samples alternate between untraced (for the
        tracing overhead) and traced (for the layers)."""
        return self.trace and i % 2 == 1


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def cold_cli(run: Run) -> List[gen.Unit]:
    unit = gen.cold_unit(run.seed)
    spec = {"unit": run.write_json("unit.json", unit.to_json())}
    for i in run.until_deadline(MIN_SAMPLES):
        run.spawn("cold", spec, traced=run.traced_sample(i))
    return [unit]


def rebuild_j2(run: Run) -> List[gen.Unit]:
    jobs = min(2, len(os.sched_getaffinity(0)))
    run.info["rebuild_jobs"] = jobs
    unit = gen.region_unit("rebuild.vlt", gen.COLD_FUNCTIONS, run.seed)
    edited = gen.rebuild_edit(unit, run.seed)
    run.inputs.append(edited)
    with open(run.path("edited.vlt"), "w", encoding="utf-8") as handle:
        handle.write(edited)
    spec = {"unit": run.write_json("unit.json", unit.to_json()),
            "edited": run.path("edited.vlt"), "jobs": jobs}
    primed = run.path("primed-cache")
    run.spawn("prime", dict(spec, cache_dir=primed), timed=False)
    for i in run.until_deadline(MIN_SAMPLES):
        cache_dir = run.path(f"cache{i}")
        shutil.copytree(primed, cache_dir)
        out = run.spawn("rebuild", dict(spec, cache_dir=cache_dir),
                        traced=run.traced_sample(i))
        run.info.setdefault("parallel_runs", []).append(
            out["parallel_runs"])
        shutil.rmtree(cache_dir)
    return [unit]


def edit_script(unit: gen.Unit, rng: random.Random) -> List[list]:
    """Seeded requests in blocks of ten with ``EDIT_MIX``'s kinds; every
    edit writes a value used nowhere else, so no edited text repeats."""
    workers = sorted(n for n in unit.expect if n.startswith("worker_"))
    helpers = sorted(n for n in unit.expect if n.startswith("helper_"))
    script = []
    serial = 100
    for _ in range(EDIT_BLOCKS):
        block = list(EDIT_MIX)
        rng.shuffle(block)
        for kind in block:
            serial += 1
            if kind == "body":
                script.append([kind, rng.choice(workers), serial])
            elif kind == "helper":
                script.append([kind, rng.choice(helpers), serial])
            else:
                script.append([kind, "", 0])
    return script


def edit_session(run: Run) -> List[gen.Unit]:
    unit = gen.edit_unit(run.seed)
    unit_path = run.write_json("unit.json", unit.to_json())
    workers = sorted(n for n in unit.expect if n.startswith("worker_"))
    segments = SEGMENTS["edit_session"]
    for k in range(segments):
        rng = random.Random(f"{run.seed}:edit-script:{k}")
        script = edit_script(unit, rng)
        first = ["body", rng.choice(workers), 50]
        run.inputs.append(json.dumps([first, script]))
        run.spawn("edit", {"unit": unit_path, "script": script,
                           "first_edit": first,
                           "seconds": run.seconds / segments,
                           "min_requests": MIN_SEGMENT_REQUESTS},
                  traced=run.trace and k > 0)
    return [unit]


def daemon_stream(run: Run) -> List[gen.Unit]:
    units = gen.daemon_units(run.seed)
    units_path = run.write_json("units.json", [u.to_json() for u in units])
    segments = SEGMENTS["daemon_stream"]
    for k in range(segments):
        traced = run.trace and k > 0
        spec = {"units": units_path, "socket": run.path(f"d{k}.sock"),
                "window_file": run.path(f"window{k}.json"),
                "daemon_out": run.path(f"daemon{k}.json"),
                "daemon_log": run.path(f"daemon{k}.log"),
                "seconds": run.seconds / segments,
                "edit_serial": 100000 * k}
        out = run.spawn("daemon", spec, traced=traced)
        run.info["daemon_cpu"] = out["daemon_cpu"]
        if traced:
            with open(spec["daemon_out"], encoding="utf-8") as handle:
                run.daemon_outs.append(json.load(handle))
    return units


RUNNERS = {"cold_cli": cold_cli, "rebuild_j2": rebuild_j2,
           "edit_session": edit_session, "daemon_stream": daemon_stream}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_info(run: Run) -> dict:
    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "gc_threshold": list(gc.get_threshold()),
            "gc_enabled": gc.isenabled(),
            "fork": hasattr(os, "fork"),
            "commit": git_commit(run.root),
            **run.info}


def write_trace(run: Run) -> str:
    """Merge the traced processes' spans into one Chrome trace and
    check it with the package's own validator."""
    events = [e for child in run.children + run.daemon_outs
              for e in child.get("trace_events", ())]
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    sys.path.insert(0, run.src)
    from repro.obs.trace import validate_chrome_trace
    problems = validate_chrome_trace(payload)
    if problems:
        raise RuntimeError("invalid Chrome trace: " + "; ".join(problems[:5]))
    path = os.path.join(run.out_dir,
                        f"{run.workload}-seed{run.seed}.trace.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=RUNNERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no package source at src/repro; run from the "
              "repository root", file=sys.stderr)
        return 2
    run = Run(args, root)
    try:
        units = RUNNERS[args.workload](run)
        trace_path = write_trace(run) if run.trace else None
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    rows = [r for child in run.children for r in child["requests"]]
    failed = [r for r in rows if r["failure"] or r["mismatches"]]
    host = host_info(run)
    digest = gen.digest(units, *run.inputs)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"inputs: sha256={digest} units={len(units)}")
    if run.trace:
        metrics, notes = per_layer(run.workload, run.children,
                                   run.daemon_outs)
        notes.append(f"chrome trace: {trace_path}")
    else:
        metrics, notes = end_to_end(run.children)
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_frac {len(failed)}/{len(rows)} = "
          f"{len(failed) / len(rows):.4f} ratio")
    for r in failed[:50]:
        what = r["failure"] or "; ".join(
            f"{fn}: expected {want} got {got}"
            for fn, want, got in r["mismatches"])
        print(f"  FAILED {r['unit']} ({r['kind']}): {what}")
    result = {"correct": not failed, "attempted": len(rows),
              "failed": len(failed), "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  inputs_sha256=digest, notes=notes)
    with open(os.path.join(run.out_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
