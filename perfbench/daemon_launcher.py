"""The traced daemon: ``vaultc serve`` with the layer wrappers and the
GC hook installed first.

Run by ``child.py`` as ``python3 daemon_launcher.py SOCKET WINDOW OUT``
with the package on ``PYTHONPATH``.  It serves through the public CLI
entry point, so the daemon is configured exactly as an untraced
``vaultc serve --socket SOCKET``.  On shutdown it reads the client's
timed window from ``WINDOW`` and writes the daemon's per-layer
aggregate over that window, its stdlib set-up time and its Chrome
trace events to ``OUT``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import Recorder  # noqa: E402


def main(argv) -> int:
    sock, window_file, out_file = argv
    recorder = Recorder().install()
    from repro.cli import main as vaultc
    try:
        return vaultc(["serve", "--socket", sock])
    finally:
        recorder.uninstall()
        try:
            with open(window_file, encoding="utf-8") as handle:
                window = json.load(handle)
        except FileNotFoundError:
            window = [float("-inf"), float("inf")]
        out = {"layers": recorder.aggregate(*window),
               "stdlib_s": recorder.aggregate()["layers"]["stdlib.base"][
                   "total_s"],
               "trace_events": recorder.chrome_events("vaultc serve")}
        with open(out_file, "w", encoding="utf-8") as handle:
            json.dump(out, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
