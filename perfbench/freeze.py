"""Re-freeze the paper corpus: copy the paper's programs, the scenario
demos and their pinned golden outputs into ``data/``, and record where
each top-level declaration starts (``data/decls.json``), so the known
answer of every function can be read off the frozen golden.

The benchmark never runs this; it reads the frozen copies, so a later
change to the sources or goldens cannot change a workload.  Run it by
hand, from the repository root, only to re-pin the corpus on purpose::

    PYTHONPATH=src python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from gen import DATA_DIR, PAPER_UNITS  # noqa: E402

#: frozen name -> repository path of its source.
SOURCES = {
    "floppy.vlt": "src/repro/drivers/vault/floppy.vlt",
    "crypt.vlt": "src/repro/drivers/vault/crypt.vlt",
}


def repo_path(name: str) -> str:
    return SOURCES.get(name, f"examples/{name}")


def top_level_decls(text: str, filename: str):
    from repro.syntax import ast, parse_program
    program = parse_program(text, filename)
    decls = []
    for decl in program.decls:
        if isinstance(decl, ast.FunDef):
            decls.append((decl.span.start.line, decl.decl.name))
        else:
            decls.append((decl.span.start.line, "<decl>"))
    return sorted(decls)


def main() -> int:
    decls = {}
    for name in PAPER_UNITS:
        rel = repo_path(name)
        shutil.copyfile(rel, os.path.join(DATA_DIR, name))
        shutil.copyfile(os.path.join("tests", "golden",
                                     rel.replace("/", "__") + ".golden"),
                        os.path.join(DATA_DIR, name + ".golden"))
        with open(rel, encoding="utf-8") as handle:
            decls[name] = {"source": rel,
                           "decls": top_level_decls(handle.read(), rel)}
    with open(os.path.join(DATA_DIR, "decls.json"), "w",
              encoding="utf-8") as handle:
        json.dump(decls, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
